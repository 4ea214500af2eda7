// Sharded ordering domain (ctest -L shard): key routing, the k = 1
// bit-identity lock against the determinism-lock golden, 2-shard golden
// digests across worker counts, the cross-shard ordering invariants (with
// the sequencer on a sender and on a node that only sequences), and chaos
// seeds that crash the sequencer / a shard member mid-merge and check the
// invariants still hold on the delivered prefixes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <vector>

#include "core/domain.hpp"
#include "workload/sharded.hpp"

namespace spindle::core {
namespace {

struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix_histogram(const metrics::Histogram& hist) {
    mix(hist.count());
    mix(hist.min());
    mix(hist.max());
    for (const auto& b : hist.buckets()) {
      mix(b.low);
      mix(b.count);
    }
  }
  void mix_counters(const metrics::ProtocolCounters& c) {
    mix(c.rdma_writes_posted);
    mix(c.rdma_bytes_posted);
    mix(static_cast<std::uint64_t>(c.post_cpu));
    mix(static_cast<std::uint64_t>(c.sender_wait));
    mix(static_cast<std::uint64_t>(c.lock_wait));
    mix(c.nulls_sent);
    mix(c.null_iterations);
    mix(c.messages_sent);
    mix(c.messages_delivered);
    mix(c.bytes_delivered);
    mix(static_cast<std::uint64_t>(c.predicate_cpu));
    mix_histogram(c.send_batches);
    mix_histogram(c.receive_batches);
    mix_histogram(c.delivery_batches);
    mix_histogram(c.delivery_latency_ns);
  }
};

std::uint64_t tag_of(std::span<const std::byte> data) {
  std::uint64_t t = 0;
  if (data.size() >= sizeof t) std::memcpy(&t, data.data(), sizeof t);
  return t;
}

// ---------------------------------------------------------------------------
// Key routing

TEST(ShardRouting, DeterministicAndBalanced) {
  ClusterConfig cc;
  cc.nodes = 8;
  Cluster cluster(cc);
  DomainConfig dc;
  dc.shards = 8;
  for (net::NodeId i = 0; i < 8; ++i) dc.members.push_back(i);
  OrderingDomain dom(cluster, dc);

  std::vector<std::uint64_t> per_shard(8, 0);
  for (std::uint64_t key = 0; key < 8000; ++key) {
    const std::size_t s = dom.shard_of(key);
    ASSERT_LT(s, 8u);
    EXPECT_EQ(s, dom.shard_of(key));  // stable
    ++per_shard[s];
  }
  for (std::uint64_t n : per_shard) {
    EXPECT_GT(n, 700u);  // ~1000 expected; no shard starves or hogs
    EXPECT_LT(n, 1300u);
  }
}

TEST(ShardRouting, CrossMaskAndFraction) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    std::size_t crosses = 0;
    for (std::uint64_t i = 0; i < 10'000; ++i) {
      const std::uint64_t h = workload::sharded_message_hash(seed, 3, i);
      if (workload::sharded_is_cross(h, 0.10)) ++crosses;
      const std::uint32_t mask = workload::sharded_cross_mask(h, 8, 3);
      EXPECT_EQ(std::popcount(mask), 3);
      EXPECT_LT(mask, 1u << 8);
    }
    EXPECT_GT(crosses, 700u);  // 10% +- sampling noise
    EXPECT_LT(crosses, 1300u);
    EXPECT_FALSE(workload::sharded_is_cross(
        workload::sharded_message_hash(seed, 0, 0), 0.0));
  }
}

// ---------------------------------------------------------------------------
// k = 1 bit-identity: the exact determinism-lock fig03 workload
// (cluster_digest(8, 1, 100, 7)) driven through a 1-shard OrderingDomain
// must reproduce the golden digest bit-for-bit — the domain layer is
// contractually invisible at k = 1. Re-derived with determinism_lock_test's
// copy (one counter write per peer for a service that receives and
// delivers), and again with it when the receive and deliver stages stopped
// charging reads of the node's own trailer row and received_num column.

constexpr std::uint64_t kGoldenFig03 = 0x2bde055a95a34657;

TEST(ShardDeterminism, K1DomainBitIdenticalToFig03Golden) {
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kMessages = 100;
  ClusterConfig cc;
  cc.nodes = kNodes;
  cc.seed = 7;
  Cluster cluster(cc);
  std::vector<net::NodeId> members;
  for (std::size_t i = 0; i < kNodes; ++i) {
    members.push_back(static_cast<net::NodeId>(i));
  }
  ProtocolOptions opts = ProtocolOptions::spindle();
  opts.max_msg_size = 1024;
  opts.window_size = 32;

  DomainConfig dc;
  dc.name = "sg0";  // label only; kept for like-for-like SST field names
  dc.shards = 1;
  dc.members = members;
  dc.opts = opts;
  OrderingDomain dom(cluster, std::move(dc));
  cluster.start();

  struct Rec {
    std::uint32_t sg;
    std::uint64_t sender;
    std::int64_t seq;
    std::int64_t idx;
    sim::Nanos at;
    std::uint64_t tag;
  };
  std::vector<std::vector<Rec>> per_node(kNodes);
  for (net::NodeId m : members) {
    dom.attach(m, [&cluster, &per_node, m](const DomainDelivery& d) {
      per_node[m].push_back(Rec{static_cast<std::uint32_t>(d.shard), d.sender,
                                d.seq, d.sender_index, cluster.engine().now(),
                                tag_of(d.data)});
    });
  }
  for (std::size_t s = 0; s < kNodes; ++s) {
    cluster.engine().spawn(
        [](Cluster* c, OrderingDomain* dm, net::NodeId id, std::size_t count,
           std::uint64_t base) -> sim::Co<> {
          for (std::size_t i = 0; i < count; ++i) {
            if (c->node(id).stopped()) co_return;
            const std::uint64_t tag = base + i;
            co_await dm->send(id, 0, 256, [tag](std::span<std::byte> buf) {
              std::memcpy(buf.data(), &tag, sizeof tag);
            });
          }
        }(&cluster, &dom, members[s], kMessages,
          1'000'000 + (s + 1) * 10'000));
  }
  const std::uint64_t expect = kNodes * kMessages * kNodes;
  const bool done = cluster.engine().run_until(
      [&] { return cluster.total_delivered(dom.shard_subgroup(0)) >= expect; },
      sim::seconds(30));
  ASSERT_TRUE(done);

  Digest d;
  d.mix(static_cast<std::uint64_t>(cluster.engine().now()));
  for (const auto& recs : per_node) {
    d.mix(recs.size());
    for (const Rec& r : recs) {
      d.mix(r.sg);
      d.mix(r.sender);
      d.mix(static_cast<std::uint64_t>(r.seq));
      d.mix(static_cast<std::uint64_t>(r.idx));
      d.mix(static_cast<std::uint64_t>(r.at));
      d.mix(r.tag);
    }
  }
  d.mix_counters(cluster.stats().total);
  cluster.shutdown();
  std::printf("digest k1-domain: 0x%llx\n",
              static_cast<unsigned long long>(d.h));
  EXPECT_EQ(d.h, kGoldenFig03);
}

// ---------------------------------------------------------------------------
// 2-shard determinism golden, pinned at 1 / 2 / 4 workers: the sequencer
// columns, grant pushes, and buried-marker merge must produce the same
// delivery streams (order, virtual times, payloads) on every engine.
// Re-derived when a service that receives and delivers began to push both
// counters as one write per peer: RDMA writes 4352 -> 3927, makespan
// 368.59 -> 365.78us, cross-shard p50 143.4 -> 135.2us.
// Re-derived when the slot and grant waits began to park on the node's
// wait signal and resume at the landing (or the local write) that ends
// them, instead of at the next point of a 300ns poll grid, and claims
// began to ring the doorbell: RDMA writes 3927 -> 3897, makespan 365.78
// -> 360.09us, grant mean 12.27 -> 11.46us, engine steps 11192 -> 8070.
// The digest is still the same at 1, 2 and 4 workers.
// Re-derived when the receive and deliver stages stopped charging reads of
// the node's own trailer row and received_num column, the grant scan
// stopped charging a member check for the sequencer's own request column,
// and a request made on the sequencer node began to ring its doorbell:
// grant mean 11.46 -> 11.10us, but smaller receive batches raise the RDMA
// writes (3897 -> 4137 serial) and the makespan 360.09 -> 368.52us,
// engine steps 8070 -> 8273. One digest at 1, 2 and 4 workers.

constexpr std::uint64_t kGoldenTwoShard = 0x3c29ad51213be54c;

TEST(ShardDeterminism, TwoShardGoldenAcrossSimThreads) {
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    workload::ShardedConfig cfg;
    cfg.nodes = 6;
    cfg.shards = 2;
    cfg.messages_per_sender = 60;
    cfg.message_size = 512;
    cfg.cross_fraction = 0.10;
    cfg.opts.window_size = 16;
    cfg.seed = 5;
    cfg.sim_threads = workers;
    const workload::ShardedResult r = workload::run_sharded(cfg);
    ASSERT_TRUE(r.completed) << "workers=" << workers;
    EXPECT_GT(r.crosses_sent, 0u);
    EXPECT_EQ(r.grants_issued, r.crosses_sent);
    if (workers == 1) {
      std::printf("digest 2-shard: 0x%llx\n",
                  static_cast<unsigned long long>(r.delivery_digest));
    }
    EXPECT_EQ(r.delivery_digest, kGoldenTwoShard) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Ordering invariants of the merged stream (k = 4, mixed singles/crosses,
// every sender interleaving both from one coroutine).

struct MergedRec {
  std::size_t shard;
  std::uint32_t mask;
  std::uint64_t sender;
  std::int64_t seq;
  std::uint64_t gsn;
  bool cross;
  std::uint64_t tag;
  bool operator==(const MergedRec&) const = default;
};

struct MergedRun {
  std::vector<std::vector<MergedRec>> per_member;
  std::uint64_t crosses_sent = 0;
  std::uint64_t singles_sent = 0;
  std::uint64_t grants = 0;
  std::vector<std::uint64_t> frontier;
  bool completed = false;
};

/// Where the sequencer runs, which nodes send, and on how many workers.
struct Placement {
  net::NodeId sequencer = 0;
  std::vector<net::NodeId> senders;  // empty: every node sends
  std::size_t sim_threads = 1;
};

/// Drive the senders, each interleaving singles and width-2 crosses from
/// one sequential coroutine (harder on the merge than per-shard streams:
/// a sender's singles chase its own in-flight crosses). Optionally crash
/// `victim` at `crash_at` (serial engine only); runs to quiescence or the
/// horizon either way.
MergedRun run_merged(std::size_t nodes, std::size_t shards,
                     std::size_t messages, double cross_fraction,
                     std::uint64_t seed, const Placement& at = {},
                     net::NodeId victim = 255, sim::Nanos crash_at = 0) {
  ClusterConfig cc;
  cc.nodes = nodes;
  cc.seed = seed;
  cc.sim_threads = at.sim_threads;
  Cluster cluster(cc);
  std::vector<net::NodeId> members;
  for (std::size_t i = 0; i < nodes; ++i) {
    members.push_back(static_cast<net::NodeId>(i));
  }
  const std::vector<net::NodeId> senders =
      at.senders.empty() ? members : at.senders;
  DomainConfig dc;
  dc.shards = shards;
  dc.members = members;
  dc.senders = senders;
  dc.sequencer = at.sequencer;
  ProtocolOptions opts = ProtocolOptions::spindle();
  opts.window_size = 16;
  opts.max_msg_size = 1024;
  dc.opts = opts;
  OrderingDomain dom(cluster, std::move(dc));
  cluster.start();

  MergedRun out;
  out.per_member.resize(nodes);
  for (net::NodeId m : members) {
    auto& recs = out.per_member[m];
    dom.attach(m, [&recs](const DomainDelivery& d) {
      recs.push_back(MergedRec{d.shard, d.shard_mask, d.sender, d.seq, d.gsn,
                               d.cross, tag_of(d.data)});
    });
  }

  std::uint64_t crosses = 0, singles = 0;
  for (net::NodeId s : senders) {
    std::vector<bool> is_cross(messages);
    for (std::size_t i = 0; i < messages; ++i) {
      is_cross[i] = workload::sharded_is_cross(
          workload::sharded_message_hash(seed, s, i), cross_fraction);
      (is_cross[i] ? crosses : singles) += 1;
    }
    cluster.engine_for(s).spawn(
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
  out.singles_sent = singles;

  if (victim < nodes) {
    cluster.engine().schedule_fn(crash_at, [&cluster, victim] {
      cluster.crash(victim);
    });
  }
  // Crash runs stall on the frontier and would ride out the whole
  // watchdog; a couple of virtual seconds is orders of magnitude past the
  // crash point and keeps the chaos sweep fast.
  const sim::Nanos horizon =
      victim < nodes ? sim::seconds(2) : sim::seconds(30);
  const std::uint64_t expect = senders.size() * messages * nodes;
  out.completed = cluster.run_until(
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

/// The ordering contract, checked on whatever each member delivered (full
/// runs and crash-truncated prefixes alike):
///  - exactly-once per member (no duplicate tags);
///  - crosses in strictly increasing, contiguous gsn order from 0;
///  - equal-gsn crosses carry the same payload at every member;
///  - singles of one (shard, sender) in strictly increasing seq order;
///  - the merged projection onto each shard is prefix-consistent across
///    members (equal where both delivered).
void check_invariants(const MergedRun& run, std::size_t shards) {
  for (std::size_t m = 0; m < run.per_member.size(); ++m) {
    const auto& recs = run.per_member[m];
    std::map<std::uint64_t, std::size_t> tag_count;
    std::uint64_t next_gsn = 0;
    std::map<std::pair<std::size_t, std::uint64_t>, std::int64_t> last_seq;
    for (const MergedRec& r : recs) {
      EXPECT_EQ(++tag_count[r.tag], 1u) << "dup tag at member " << m;
      if (r.cross) {
        EXPECT_EQ(r.gsn, next_gsn) << "gsn gap at member " << m;
        ++next_gsn;
        EXPECT_GE(std::popcount(r.mask), 2);
      } else {
        // Default-constructed 0 is fine: seqs start at >= 0 and must
        // strictly increase per (shard, sender) stream.
        auto& next_min = last_seq[{r.shard, r.sender}];
        EXPECT_GE(r.seq, next_min) << "single seq regression, member " << m;
        next_min = r.seq + 1;
      }
    }
  }
  // Cross payload agreement by gsn, across members.
  std::map<std::uint64_t, std::uint64_t> gsn_tag;
  for (const auto& recs : run.per_member) {
    for (const MergedRec& r : recs) {
      if (!r.cross) continue;
      auto [it, inserted] = gsn_tag.emplace(r.gsn, r.tag);
      EXPECT_EQ(it->second, r.tag) << "gsn " << r.gsn << " payload disagrees";
    }
  }
  // Per-shard projection prefix consistency.
  for (std::size_t sh = 0; sh < shards; ++sh) {
    std::vector<std::vector<std::uint64_t>> proj;
    for (const auto& recs : run.per_member) {
      std::vector<std::uint64_t> p;
      for (const MergedRec& r : recs) {
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

TEST(ShardOrdering, MergedStreamInvariants) {
  const MergedRun run = run_merged(6, 4, 50, 0.25, 9);
  ASSERT_TRUE(run.completed);
  EXPECT_GT(run.crosses_sent, 0u);
  EXPECT_EQ(run.grants, run.crosses_sent);
  for (std::size_t m = 0; m < run.per_member.size(); ++m) {
    EXPECT_EQ(run.per_member[m].size(), 6u * 50u);
    EXPECT_EQ(run.frontier[m], run.crosses_sent);
    std::uint64_t crosses_seen = 0;
    for (const MergedRec& r : run.per_member[m]) crosses_seen += r.cross;
    EXPECT_EQ(crosses_seen, run.crosses_sent);
  }
  check_invariants(run, 4);
}

TEST(ShardOrdering, EveryMemberSameCrossOrder) {
  const MergedRun run = run_merged(4, 2, 40, 0.5, 21);
  ASSERT_TRUE(run.completed);
  std::vector<std::uint64_t> order0;
  for (const MergedRec& r : run.per_member[0]) {
    if (r.cross) order0.push_back(r.tag);
  }
  for (std::size_t m = 1; m < run.per_member.size(); ++m) {
    std::vector<std::uint64_t> order;
    for (const MergedRec& r : run.per_member[m]) {
      if (r.cross) order.push_back(r.tag);
    }
    EXPECT_EQ(order, order0) << "member " << m;
  }
}

TEST(ShardOrdering, NonSenderSequencerOnLastNode) {
  // The other domain tests sequence on node 0, which also sends. Here the
  // last node only sequences: every grant is a remote push, and no request
  // shares the sequencer's row. The run is the same on 1 and 2 workers.
  Placement at;
  at.sequencer = 5;
  at.senders = {0, 1, 2, 3, 4};
  std::vector<std::vector<MergedRec>> serial;
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    at.sim_threads = workers;
    const MergedRun run = run_merged(6, 4, 50, 0.25, 9, at);
    ASSERT_TRUE(run.completed) << "workers=" << workers;
    EXPECT_GT(run.crosses_sent, 0u);
    EXPECT_EQ(run.grants, run.crosses_sent) << "workers=" << workers;
    for (std::size_t m = 0; m < run.per_member.size(); ++m) {
      EXPECT_EQ(run.per_member[m].size(), 5u * 50u);
      EXPECT_EQ(run.frontier[m], run.crosses_sent)
          << "workers=" << workers << " member " << m;
    }
    check_invariants(run, 4);
    if (workers == 1) {
      serial = run.per_member;
    } else {
      EXPECT_EQ(run.per_member, serial);
    }
  }
}

TEST(ShardOrdering, RequesterResumesAtTheInstantItsGrantLands) {
  // A quiet three-node, two-shard domain sequenced on node 0; node 1 asks
  // for one gsn. Its grant (count, gsn) pair lands in node 1's SST table,
  // which rings node 1's wait signal, so the requester's grant wait ends at
  // that landing, not at the next point of a polling grid.
  ClusterConfig cc;
  cc.nodes = 3;
  Cluster cluster(cc);
  DomainConfig dc;
  dc.shards = 2;
  dc.members = {0, 1, 2};
  dc.opts = ProtocolOptions::spindle();
  dc.opts.max_msg_size = 256;
  OrderingDomain domain(cluster, dc);
  cluster.start();

  const sst::Sst& table = cluster.node(1).sst();
  sst::FieldId granted;
  for (std::uint32_t i = 0; i < table.layout().row_size() / 8; ++i) {
    if (table.layout().field_name(sst::FieldId{i}) ==
        "domain.xgrant_count[1]") {
      granted = sst::FieldId{i};
    }
  }
  ASSERT_TRUE(granted.valid());
  const std::size_t seq_row = cluster.rank_of(dc.sequencer);

  sim::Engine& eng = cluster.engine();
  const sim::Nanos t0 = sim::micros(500);
  eng.run_to(t0);
  eng.spawn(domain.send_multi(1, 0b11, 64, [](std::span<std::byte>) {}));
  sim::Nanos landed = -1;
  while (landed < 0 && eng.step_until(t0 + sim::micros(200))) {
    if (table.read_i64(seq_row, granted) >= 1) landed = eng.now();
  }
  ASSERT_GT(landed, t0) << "the grant never landed";
  eng.run_to(t0 + sim::micros(200));
  const metrics::Histogram grants = domain.grant_latency();
  ASSERT_EQ(grants.count(), 1u);
  EXPECT_EQ(t0 + static_cast<sim::Nanos>(grants.max()), landed);
  cluster.shutdown();
}

TEST(ShardOrdering, SequencerNodeRequestIsGrantedWithinOnePollingRound) {
  // A quiet three-node, two-shard domain sequenced on node 0, which asks
  // for a gsn itself. Its request is a local write that no push lands, so
  // it rings node 0's doorbell: the idle polling thread wakes at once and
  // grants it in its next round, instead of when its backoff (up to 50us)
  // ends. The bound is one round: the pause (overhead plus the largest
  // jitter) and the grant scan's compute. (No scheduling hiccups: one
  // would deschedule the thread for 8us whatever rang.) Measured: 0ns at
  // each instant below, the grant landing in the round the ring starts;
  // 7.8-44.0us when nothing rang.
  for (const sim::Nanos at :
       {sim::micros(503), sim::micros(517), sim::micros(529),
        sim::micros(541)}) {
    ClusterConfig cc;
    cc.nodes = 3;
    cc.cpu.hiccup_mean_gap = 0;
    Cluster cluster(cc);
    DomainConfig dc;
    dc.shards = 2;
    dc.members = {0, 1, 2};
    dc.opts = ProtocolOptions::spindle();
    dc.opts.max_msg_size = 256;
    OrderingDomain domain(cluster, dc);
    cluster.start();

    sim::Engine& eng = cluster.engine();
    eng.run_to(at);
    eng.spawn(domain.send_multi(dc.sequencer, 0b11, 64,
                                [](std::span<std::byte>) {}));
    eng.run_to(at + sim::micros(100));
    const metrics::Histogram grants = domain.grant_latency();
    ASSERT_EQ(grants.count(), 1u) << "request at " << at;
    const CpuModel& cpu = cluster.cpu();
    const sim::Nanos round = cpu.iteration_overhead + cpu.iteration_jitter +
                             cpu.predicate_eval +
                             2 * cpu.per_member_check +
                             cpu.per_message_receive;
    EXPECT_LE(static_cast<sim::Nanos>(grants.max()), round)
        << "request at " << at;
    cluster.shutdown();
  }
}

// ---------------------------------------------------------------------------
// Chaos: crash the sequencer (or a shard member) mid-merge. Liveness is
// allowed to stop — the frontier may stall on a partial cross — but every
// delivered prefix must still satisfy the full ordering contract.

TEST(ShardChaos, CrashMidMergeKeepsInvariants) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    // Odd seeds kill the sequencer (node 0), even seeds a plain member.
    const net::NodeId victim =
        (seed % 2) ? net::NodeId{0} : static_cast<net::NodeId>(1 + seed % 5);
    const sim::Nanos when = sim::micros(60 + 35 * seed);
    const MergedRun run = run_merged(6, 2, 40, 0.30, seed, {}, victim, when);
    // The run usually cannot complete (stability needs every member), so
    // completed is not asserted — only the prefix contract.
    check_invariants(run, 2);
    for (std::size_t m = 0; m < run.per_member.size(); ++m) {
      std::uint64_t crosses_seen = 0;
      for (const MergedRec& r : run.per_member[m]) crosses_seen += r.cross;
      EXPECT_EQ(crosses_seen, run.frontier[m])
          << "seed " << seed << " member " << m;
      EXPECT_LE(crosses_seen, run.grants);
    }
  }
}

}  // namespace
}  // namespace spindle::core
