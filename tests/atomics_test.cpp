// One-sided RDMA atomics suite (ctest -L atomics): fabric FAA/CAS unit
// semantics — fetched values, serialization through the target NIC's single
// atomics unit, the shared per-(source, region) QP FIFO with writes in both
// directions, isolation failure modes, and the ~2x-write cost calibration —
// plus the fetch-add TicketSequencer (dense exactly-once tickets, gsn
// contiguity under the 6-seed sequencer-crash chaos slice in faa mode) and
// the ALock lease lock (a holder that crashes mid-critical-section delays
// contenders by one lease, never wedges them; stale unlocks are fenced).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <vector>

#include "core/domain.hpp"
#include "net/atomics.hpp"
#include "workload/sharded.hpp"

namespace spindle {
namespace {

using net::AtomicResult;
using net::Fabric;
using net::RegionId;
using net::TimingModel;

std::uint64_t word_at(std::span<const std::byte> mem, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, mem.data() + off, sizeof v);
  return v;
}

void put_word(std::span<std::byte> mem, std::size_t off, std::uint64_t v) {
  std::memcpy(mem.data() + off, &v, sizeof v);
}

// ---------------------------------------------------------------------------
// Fabric FAA / CAS unit semantics

struct AtomicsFixture : ::testing::Test {
  sim::Engine engine;
  TimingModel timing;
  Fabric fabric{engine, timing, 4};

  std::vector<std::byte> mem = std::vector<std::byte>(65536);
  RegionId region;

  void SetUp() override { region = fabric.register_region(0, mem); }
};

TEST_F(AtomicsFixture, FaaFetchesOldValueAndAdds) {
  put_word(mem, 0, 40);
  AtomicResult res;
  engine.spawn([](Fabric* f, RegionId r, AtomicResult* out) -> sim::Co<> {
    *out = co_await f->rdma_faa(1, r, 0, 2);
  }(&fabric, region, &res));
  engine.run();
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.value, 40u);  // the *old* word
  EXPECT_EQ(word_at(mem, 0), 42u);
  EXPECT_EQ(fabric.stats(1).atomics_posted, 1u);
  EXPECT_EQ(fabric.stats(0).atomics_executed, 1u);
}

TEST_F(AtomicsFixture, CasSwapsOnlyOnMatch) {
  put_word(mem, 8, 7);
  AtomicResult hit, miss;
  engine.spawn([](Fabric* f, RegionId r, AtomicResult* a,
                  AtomicResult* b) -> sim::Co<> {
    *a = co_await f->rdma_cas(1, r, 8, 7, 9);    // matches: swap
    *b = co_await f->rdma_cas(1, r, 8, 7, 11);   // stale expected: no-op
  }(&fabric, region, &hit, &miss));
  engine.run();
  EXPECT_TRUE(hit.ok);
  EXPECT_EQ(hit.value, 7u);
  EXPECT_TRUE(miss.ok);
  EXPECT_EQ(miss.value, 9u);  // fetched the post-swap word; swap refused
  EXPECT_EQ(word_at(mem, 8), 9u);
}

TEST_F(AtomicsFixture, ConcurrentFaasSerializeThroughAtomicsUnit) {
  // Two initiators race FAA(+1) on the same word: the target NIC's single
  // atomics unit must serialize them, so the fetched values are exactly
  // {0, 1} — a torn or concurrent execution would fetch {0, 0}.
  AtomicResult a, b;
  engine.spawn([](Fabric* f, RegionId r, AtomicResult* out) -> sim::Co<> {
    *out = co_await f->rdma_faa(1, r, 0, 1);
  }(&fabric, region, &a));
  engine.spawn([](Fabric* f, RegionId r, AtomicResult* out) -> sim::Co<> {
    *out = co_await f->rdma_faa(2, r, 0, 1);
  }(&fabric, region, &b));
  engine.run();
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  std::vector<std::uint64_t> fetched{a.value, b.value};
  std::sort(fetched.begin(), fetched.end());
  EXPECT_EQ(fetched, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(word_at(mem, 0), 2u);
  EXPECT_EQ(fabric.stats(0).atomics_executed, 2u);
}

TEST_F(AtomicsFixture, AtomicPostedAfterWriteSeesItLand) {
  // QP FIFO, write -> atomic direction: a large slow write posted first on
  // the same (source, region) QP must land before a FAA posted right after
  // it executes — even though the 16-byte atomic request alone would beat
  // the 32 KB payload to the target by a wide margin.
  std::vector<std::byte> big(32768);
  put_word(big, 0, 77);
  const RegionId src = fabric.register_region(1, big);
  fabric.post_write(src, 0, big.size(), region, 0);
  AtomicResult res;
  engine.spawn([](Fabric* f, RegionId r, AtomicResult* out) -> sim::Co<> {
    *out = co_await f->rdma_faa(1, r, 0, 1);
  }(&fabric, region, &res));
  engine.run();
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.value, 77u);  // fetched the written word, not the zero
  EXPECT_EQ(word_at(mem, 0), 78u);
}

TEST_F(AtomicsFixture, WritePostedAfterAtomicLandsAfterItExecutes) {
  // QP FIFO, atomic -> write direction: a write posted on the same QP after
  // the atomic must not overtake it, even when the atomic's execution is
  // pushed far out by contention on the target's atomics unit. Ten FAAs
  // from node 2 (to a different word) back the unit up by ~2.5 us; node 1's
  // FAA queues behind them, and node 1's write — posted while that FAA is
  // still queued, and which would land ~1.5 us before it executes if the
  // QP FIFO were broken — must wait for the RMW.
  for (int i = 0; i < 10; ++i) {
    engine.spawn([](Fabric* f, RegionId r) -> sim::Co<> {
      co_await f->rdma_faa(2, r, 16, 1);
    }(&fabric, region));
  }
  AtomicResult res;
  engine.spawn([](Fabric* f, RegionId r, AtomicResult* out) -> sim::Co<> {
    *out = co_await f->rdma_faa(1, r, 0, 1);
  }(&fabric, region, &res));
  // post_cpu_first is 1 us: node 1's verb reaches its QP at t = 1000, so a
  // write posted at t = 1200 sits behind it.
  engine.schedule_fn(1200, [this] {
    std::array<std::byte, 8> w;
    put_word(w, 0, 999);
    fabric.post_write(1, region, 0, w);
  });
  engine.run();
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.value, 0u);    // the write had not landed at RMW time...
  EXPECT_EQ(word_at(mem, 0), 999u);  // ...and overwrote the word after it
  EXPECT_EQ(word_at(mem, 16), 10u);
}

TEST_F(AtomicsFixture, IsolatedEndpointFailsTheVerb) {
  fabric.isolate(0);
  AtomicResult res;
  engine.spawn([](Fabric* f, RegionId r, AtomicResult* out) -> sim::Co<> {
    *out = co_await f->rdma_faa(1, r, 0, 5);
  }(&fabric, region, &res));
  engine.run();
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(word_at(mem, 0), 0u);  // word untouched
  EXPECT_EQ(fabric.stats(0).atomics_executed, 0u);
}

TEST_F(AtomicsFixture, UncontendedCostIsRoughlyTwiceAWrite) {
  // DESIGN.md §3g calibration: post CPU + 16 B request leg + atomics-unit
  // occupancy + 8 B response leg lands near 2x the isolated one-sided write
  // latency (~1.8 us -> ~3.7 us), and well under 3x.
  AtomicResult res;
  engine.spawn([](Fabric* f, RegionId r, AtomicResult* out) -> sim::Co<> {
    *out = co_await f->rdma_faa(1, r, 0, 1);
  }(&fabric, region, &res));
  engine.run();
  ASSERT_TRUE(res.ok);
  const double write = static_cast<double>(timing.isolated_latency(8));
  const double done = static_cast<double>(engine.now());
  EXPECT_GE(done, 1.5 * write);
  EXPECT_LE(done, 3.0 * write);
}

TEST_F(AtomicsFixture, LoopbackStillUsesTheAtomicsUnit) {
  // A node FAA-ing its own region skips the wire but still serializes
  // through its NIC atomics unit (a CPU store would not be atomic against
  // concurrent remote atomics).
  AtomicResult local, remote;
  engine.spawn([](Fabric* f, RegionId r, AtomicResult* a,
                  AtomicResult* b) -> sim::Co<> {
    *a = co_await f->rdma_faa(0, r, 0, 1);
    *b = co_await f->rdma_faa(2, r, 0, 1);
  }(&fabric, region, &local, &remote));
  engine.run();
  ASSERT_TRUE(local.ok);
  ASSERT_TRUE(remote.ok);
  EXPECT_EQ(local.value, 0u);
  EXPECT_EQ(remote.value, 1u);
  EXPECT_EQ(fabric.stats(0).atomics_executed, 2u);
}

// ---------------------------------------------------------------------------
// TicketSequencer: dense exactly-once tickets

TEST(TicketSequencer, ConcurrentAcquirersGetDenseDistinctTickets) {
  sim::Engine engine;
  TimingModel timing;
  Fabric fabric(engine, timing, 4);
  net::TicketSequencer seq(fabric, 0);

  std::vector<std::uint64_t> tickets;
  for (net::NodeId who = 1; who <= 3; ++who) {
    engine.spawn([](net::TicketSequencer* s, net::NodeId id,
                    std::vector<std::uint64_t>* out) -> sim::Co<> {
      for (int i = 0; i < 10; ++i) {
        const AtomicResult r = co_await s->acquire(id);
        EXPECT_TRUE(r.ok);
        if (!r.ok) co_return;
        out->push_back(r.value);
      }
    }(&seq, who, &tickets));
  }
  engine.run();
  ASSERT_EQ(tickets.size(), 30u);
  std::sort(tickets.begin(), tickets.end());
  for (std::uint64_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i], i);  // dense from 0, no skip, no duplicate
  }
  EXPECT_EQ(seq.issued(), 30u);
}

// ---------------------------------------------------------------------------
// ALock: lease expiry and fencing

TEST(ALock, UncontendedAndHandoffWithoutSteal) {
  sim::Engine engine;
  TimingModel timing;
  Fabric fabric(engine, timing, 4);
  net::ALock lock(fabric, 0);  // default 2 ms lease

  bool done = false;
  engine.spawn([](net::ALock* l, bool* fin) -> sim::Co<> {
    EXPECT_TRUE(co_await l->lock(1));
    EXPECT_TRUE(co_await l->unlock(1));
    EXPECT_TRUE(co_await l->lock(2));
    EXPECT_TRUE(co_await l->unlock(2));
    *fin = true;
  }(&lock, &done));
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(lock.acquisitions(), 2u);
  EXPECT_EQ(lock.steals(), 0u);
}

TEST(ALock, ContenderWaitsForLiveHolder) {
  sim::Engine engine;
  TimingModel timing;
  Fabric fabric(engine, timing, 4);
  net::ALock::Config cfg;
  cfg.lease = sim::micros(500);
  cfg.retry_interval = sim::micros(5);
  net::ALock lock(fabric, 0, cfg);

  sim::Nanos handoff = -1;
  engine.spawn([](sim::Engine* e, net::ALock* l, sim::Nanos* at) -> sim::Co<> {
    EXPECT_TRUE(co_await l->lock(1));
    co_await e->sleep(sim::micros(40));  // critical section
    EXPECT_TRUE(co_await l->unlock(1));
    *at = e->now();
  }(&engine, &lock, &handoff));
  bool got = false;
  engine.spawn([](sim::Engine* e, net::ALock* l, sim::Nanos* at,
                  bool* ok) -> sim::Co<> {
    EXPECT_TRUE(co_await l->lock(2));
    EXPECT_GE(e->now(), *at);  // only after the holder released
    EXPECT_TRUE(co_await l->unlock(2));
    *ok = true;
  }(&engine, &lock, &handoff, &got));
  engine.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(lock.acquisitions(), 2u);
  EXPECT_EQ(lock.steals(), 0u);  // a live holder is never stolen from
}

TEST(ALock, CrashedHolderIsStolenAfterLeaseAndFenced) {
  sim::Engine engine;
  TimingModel timing;
  Fabric fabric(engine, timing, 4);
  net::ALock::Config cfg;
  cfg.lease = sim::micros(200);
  cfg.retry_interval = sim::micros(5);
  net::ALock lock(fabric, 0, cfg);

  bool done = false;
  engine.spawn([](sim::Engine* e, Fabric* f, net::ALock* l,
                  bool* fin) -> sim::Co<> {
    // Node 1 takes the lock, then dies mid-critical-section.
    EXPECT_TRUE(co_await l->lock(1));
    const sim::Nanos acquired_at = e->now();
    f->isolate(1);

    // Node 2 must get in anyway — delayed by at most one lease, not wedged.
    EXPECT_TRUE(co_await l->lock(2));
    EXPECT_GE(e->now(), acquired_at + sim::micros(200));
    EXPECT_LE(e->now(), acquired_at + sim::micros(400));
    EXPECT_EQ(l->steals(), 1u);

    // The ghost's unlock is fenced: its token no longer matches, the word
    // is untouched, and node 2 still holds.
    f->restore(1);
    EXPECT_FALSE(co_await l->unlock(1));
    EXPECT_TRUE(co_await l->unlock(2));

    // A fresh acquisition after the dust settles needs no steal.
    EXPECT_TRUE(co_await l->lock(3));
    EXPECT_TRUE(co_await l->unlock(3));
    *fin = true;
  }(&engine, &fabric, &lock, &done));
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(lock.acquisitions(), 3u);
  EXPECT_EQ(lock.steals(), 1u);
}

// ---------------------------------------------------------------------------
// FAA-mode ordering domain: gsn contiguity / exactly-once, clean and under
// the sequencer-crash chaos slice. Mirrors shard_test's merged-stream
// harness with DomainConfig::sequencer_mode = faa — the ticket counter
// lives on node 0, so the odd chaos seeds kill the ticket home exactly
// like they kill the SST sequencer.

using core::Cluster;
using core::ClusterConfig;
using core::DomainConfig;
using core::DomainDelivery;
using core::OrderingDomain;
using core::ProtocolOptions;

struct FaaRec {
  std::size_t shard;
  std::uint32_t mask;
  std::uint64_t sender;
  std::int64_t seq;
  std::uint64_t gsn;
  bool cross;
  std::uint64_t tag;
};

struct FaaRun {
  std::vector<std::vector<FaaRec>> per_member;
  std::uint64_t crosses_sent = 0;
  std::uint64_t grants = 0;
  std::vector<std::uint64_t> frontier;
  bool completed = false;
};

std::uint64_t tag_of(std::span<const std::byte> data) {
  std::uint64_t t = 0;
  if (data.size() >= sizeof t) std::memcpy(&t, data.data(), sizeof t);
  return t;
}

FaaRun run_faa_merged(std::size_t nodes, std::size_t shards,
                      std::size_t messages, double cross_fraction,
                      std::uint64_t seed, net::NodeId victim = 255,
                      sim::Nanos crash_at = 0) {
  ClusterConfig cc;
  cc.nodes = nodes;
  cc.seed = seed;
  cc.sim_threads = 1;  // one-sided atomics are serial-mode only (v1)
  Cluster cluster(cc);
  std::vector<net::NodeId> members;
  for (std::size_t i = 0; i < nodes; ++i) {
    members.push_back(static_cast<net::NodeId>(i));
  }
  DomainConfig dc;
  dc.shards = shards;
  dc.members = members;
  dc.sequencer_mode = core::SequencerKind::faa;
  ProtocolOptions opts = ProtocolOptions::spindle();
  opts.window_size = 16;
  opts.max_msg_size = 1024;
  dc.opts = opts;
  OrderingDomain dom(cluster, std::move(dc));
  cluster.start();

  FaaRun out;
  out.per_member.resize(nodes);
  for (net::NodeId m : members) {
    auto& recs = out.per_member[m];
    dom.attach(m, [&recs](const DomainDelivery& d) {
      recs.push_back(FaaRec{d.shard, d.shard_mask, d.sender, d.seq, d.gsn,
                            d.cross, tag_of(d.data)});
    });
  }

  std::uint64_t crosses = 0;
  for (net::NodeId s : members) {
    std::vector<bool> is_cross(messages);
    for (std::size_t i = 0; i < messages; ++i) {
      is_cross[i] = workload::sharded_is_cross(
          workload::sharded_message_hash(seed, s, i), cross_fraction);
      if (is_cross[i]) ++crosses;
    }
    cluster.engine().spawn(
        [](Cluster* c, OrderingDomain* dm, net::NodeId id,
           std::vector<bool> xs, std::uint64_t sd) -> sim::Co<> {
          for (std::size_t i = 0; i < xs.size(); ++i) {
            if (c->node(id).stopped()) co_return;
            const std::uint64_t h = workload::sharded_message_hash(sd, id, i);
            const std::uint64_t tag =
                (static_cast<std::uint64_t>(id) << 32) | i;
            auto builder = [tag](std::span<std::byte> buf) {
              std::memcpy(buf.data(), &tag, sizeof tag);
            };
            if (xs[i]) {
              co_await dm->send_multi(
                  id, workload::sharded_cross_mask(h, dm->shards(), 2), 64,
                  builder);
            } else {
              co_await dm->send(id, h, 64, builder);
            }
          }
        }(&cluster, &dom, s, std::move(is_cross), seed));
  }
  out.crosses_sent = crosses;

  if (victim < nodes) {
    cluster.engine().schedule_fn(crash_at, [&cluster, victim] {
      cluster.crash(victim);
    });
  }
  const sim::Nanos horizon =
      victim < nodes ? sim::seconds(2) : sim::seconds(30);
  const std::uint64_t expect = nodes * messages * nodes;
  out.completed = cluster.engine().run_until(
      [&] {
        std::uint64_t total = 0;
        for (const auto& recs : out.per_member) total += recs.size();
        return total >= expect;
      },
      horizon);
  out.grants = dom.grants_issued();
  for (net::NodeId m : members) {
    out.frontier.push_back(dom.merge_frontier(m));
  }
  cluster.shutdown();
  return out;
}

/// The ordering contract on whatever each member delivered (full runs and
/// crash-truncated prefixes alike): exactly-once per member, crosses in
/// contiguous gsn order from 0, gsn -> payload agreement across members,
/// per-(shard, sender) single-seq monotonicity, per-shard projection
/// prefix consistency.
void check_faa_invariants(const FaaRun& run, std::size_t shards) {
  for (std::size_t m = 0; m < run.per_member.size(); ++m) {
    const auto& recs = run.per_member[m];
    std::map<std::uint64_t, std::size_t> tag_count;
    std::uint64_t next_gsn = 0;
    std::map<std::pair<std::size_t, std::uint64_t>, std::int64_t> last_seq;
    for (const FaaRec& r : recs) {
      EXPECT_EQ(++tag_count[r.tag], 1u) << "dup tag at member " << m;
      if (r.cross) {
        EXPECT_EQ(r.gsn, next_gsn) << "gsn gap at member " << m;
        ++next_gsn;
        EXPECT_GE(std::popcount(r.mask), 2);
      } else {
        auto& next_min = last_seq[{r.shard, r.sender}];
        EXPECT_GE(r.seq, next_min) << "single seq regression, member " << m;
        next_min = r.seq + 1;
      }
    }
  }
  std::map<std::uint64_t, std::uint64_t> gsn_tag;
  for (const auto& recs : run.per_member) {
    for (const FaaRec& r : recs) {
      if (!r.cross) continue;
      auto [it, inserted] = gsn_tag.emplace(r.gsn, r.tag);
      EXPECT_EQ(it->second, r.tag) << "gsn " << r.gsn << " payload disagrees";
    }
  }
  for (std::size_t sh = 0; sh < shards; ++sh) {
    std::vector<std::vector<std::uint64_t>> proj;
    for (const auto& recs : run.per_member) {
      std::vector<std::uint64_t> p;
      for (const FaaRec& r : recs) {
        if ((r.mask >> sh) & 1u) p.push_back(r.tag);
      }
      proj.push_back(std::move(p));
    }
    for (std::size_t a = 1; a < proj.size(); ++a) {
      const std::size_t n = std::min(proj[0].size(), proj[a].size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(proj[0][i], proj[a][i])
            << "shard " << sh << " projection diverges at " << i
            << " between members 0 and " << a;
      }
    }
  }
}

TEST(FaaOrdering, MergedStreamInvariantsAndExactTicketUse) {
  const FaaRun run = run_faa_merged(6, 4, 50, 0.25, 9);
  ASSERT_TRUE(run.completed);
  EXPECT_GT(run.crosses_sent, 0u);
  // A clean run consumes exactly one ticket per cross — no skipped or
  // double-consumed FAA.
  EXPECT_EQ(run.grants, run.crosses_sent);
  for (std::size_t m = 0; m < run.per_member.size(); ++m) {
    EXPECT_EQ(run.per_member[m].size(), 6u * 50u);
    EXPECT_EQ(run.frontier[m], run.crosses_sent);
  }
  check_faa_invariants(run, 4);
}

TEST(FaaChaos, SequencerCrashKeepsInvariants) {
  // The same 6-seed chaos slice as ShardChaos: odd seeds kill node 0 — in
  // faa mode that is the ticket counter's home NIC, so in-flight FAAs fail
  // and their crosses are dropped before any copy is multicast — even seeds
  // a plain member. Every delivered prefix must satisfy the contract.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const net::NodeId victim =
        (seed % 2) ? net::NodeId{0} : static_cast<net::NodeId>(1 + seed % 5);
    const sim::Nanos when = sim::micros(60 + 35 * seed);
    const FaaRun run = run_faa_merged(6, 2, 40, 0.30, seed, victim, when);
    check_faa_invariants(run, 2);
    for (std::size_t m = 0; m < run.per_member.size(); ++m) {
      std::uint64_t crosses_seen = 0;
      for (const FaaRec& r : run.per_member[m]) crosses_seen += r.cross;
      EXPECT_EQ(crosses_seen, run.frontier[m])
          << "seed " << seed << " member " << m;
      // Tickets may outrun deliveries (a sender can die between its FAA
      // executing and the copies landing) but never the reverse.
      EXPECT_LE(crosses_seen, run.grants);
    }
  }
}

TEST(FaaMode, RejectsParallelEngine) {
  ClusterConfig cc;
  cc.nodes = 4;
  cc.sim_threads = 2;
  Cluster cluster(cc);
  DomainConfig dc;
  dc.shards = 2;
  for (net::NodeId i = 0; i < 4; ++i) dc.members.push_back(i);
  dc.sequencer_mode = core::SequencerKind::faa;
  EXPECT_THROW(OrderingDomain(cluster, std::move(dc)), std::invalid_argument);
}

}  // namespace
}  // namespace spindle
