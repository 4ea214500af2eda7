// Determinism lock for the predicate-framework refactor (ctest -L predicate).
//
// Records a digest of the *observable* protocol behaviour — per-node delivery
// order, virtual delivery times, latency histograms, and the protocol
// counters — for three representative configurations, and asserts the digests
// match goldens captured on the pre-refactor pipeline (the monolithic
// Node::process_subgroup_sync + hand-rolled view.cpp polling loops).
//
// If one of these digests changes, the refactored pipeline is NOT
// bit-identical to the original: some predicate fired at a different virtual
// time, charged different CPU, or posted RDMA writes in a different order.
// Do not update the goldens to paper over a diff unless the change is an
// intentional, understood behaviour change (and say so in the commit).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/view.hpp"
#include "metrics/metrics.hpp"
#include "workload/experiment.hpp"

namespace spindle::core {
namespace {

/// FNV-1a, the digest accumulator. Order-sensitive on purpose: the delivery
/// *sequence* is part of the contract, not just the delivered set.
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

/// Cluster-level digest: per-node delivery records (in upcall order, with
/// the virtual time of the trigger that delivered them), then the merged
/// counter snapshot and the makespan. Only the first `active` subgroups
/// send (all of them by default); `parks`, when given, receives the parks
/// summed over every subgroup and node.
std::uint64_t cluster_digest(std::size_t nodes, std::size_t subgroups,
                             std::size_t messages, std::uint64_t seed,
                             std::size_t active = SIZE_MAX,
                             std::uint64_t* parks = nullptr) {
  active = std::min(active, subgroups);
  ClusterConfig cc;
  cc.nodes = nodes;
  cc.seed = seed;
  Cluster cluster(cc);
  std::vector<net::NodeId> members;
  for (std::size_t i = 0; i < nodes; ++i) {
    members.push_back(static_cast<net::NodeId>(i));
  }
  ProtocolOptions opts = ProtocolOptions::spindle();
  opts.max_msg_size = 1024;
  opts.window_size = 32;
  std::vector<SubgroupId> sgs;
  for (std::size_t g = 0; g < subgroups; ++g) {
    sgs.push_back(cluster.create_subgroup(
        {"sg" + std::to_string(g), members, members, opts}));
  }
  cluster.start();

  struct Rec {
    std::uint32_t sg;
    std::uint64_t sender;
    std::int64_t seq;
    std::int64_t idx;
    sim::Nanos at;
    std::uint64_t tag;
  };
  std::vector<std::vector<Rec>> per_node(nodes);
  for (net::NodeId m : members) {
    for (SubgroupId sg : sgs) {
      cluster.node(m).set_delivery_handler(
          sg, [&cluster, &per_node, m](const Delivery& d) {
            per_node[m].push_back(Rec{d.subgroup, d.sender, d.seq,
                                      d.sender_index, cluster.engine().now(),
                                      tag_of(d.data)});
          });
    }
  }
  for (std::size_t g = 0; g < active; ++g) {
    const SubgroupId sg = sgs[g];
    for (std::size_t s = 0; s < nodes; ++s) {
      cluster.engine().spawn(
          [](Cluster* c, net::NodeId id, SubgroupId g, std::size_t count,
             std::uint64_t base) -> sim::Co<> {
            for (std::size_t i = 0; i < count; ++i) {
              if (c->node(id).stopped()) co_return;
              const std::uint64_t tag = base + i;
              co_await c->node(id).send(g, 256,
                                        [tag](std::span<std::byte> buf) {
                                          std::memcpy(buf.data(), &tag,
                                                      sizeof tag);
                                        });
            }
          }(&cluster, members[s], sg, messages,
            (sg + 1) * 1'000'000 + (s + 1) * 10'000));
    }
  }
  const std::uint64_t expect = active * nodes * messages * nodes;
  std::uint64_t seen = 0;
  const bool done = cluster.engine().run_until(
      [&] {
        seen = 0;
        for (SubgroupId sg : sgs) seen += cluster.total_delivered(sg);
        return seen >= expect;
      },
      sim::seconds(30));
  EXPECT_TRUE(done) << "pipeline stalled: " << seen << "/" << expect;

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
  const metrics::ClusterStats stats = cluster.stats();
  d.mix_counters(stats.total);
  if (parks) {
    *parks = 0;
    for (const auto& sg : stats.subgroups) *parks += sg.sched_parks;
  }
  cluster.shutdown();
  return d.h;
}

/// Managed-group digest: a chaos-style run with a mid-stream crash, a view
/// change, and a persistent subgroup, sampled at a fixed virtual horizon.
std::uint64_t view_change_digest(std::uint64_t seed) {
  constexpr std::size_t kNodes = 4;
  ManagedGroup::Config cfg;
  cfg.nodes = kNodes;
  cfg.seed = seed;
  ManagedGroup group(cfg, [](const View& v) {
    SubgroupConfig sc;
    sc.name = "main";
    sc.members = v.members;
    sc.senders = v.members;
    sc.opts = ProtocolOptions::spindle();
    sc.opts.max_msg_size = 64;
    sc.opts.window_size = 16;
    sc.opts.persistent = true;
    return std::vector<SubgroupConfig>{sc};
  });
  group.start();

  std::vector<std::vector<std::uint64_t>> delivered(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto id = static_cast<net::NodeId>(i);
    group.set_delivery_handler(id, 0, [&delivered, id](const Delivery& d) {
      delivered[id].push_back(tag_of(d.data));
    });
  }
  for (net::NodeId n = 0; n < kNodes; ++n) {
    for (std::uint64_t i = 0; i < 30; ++i) {
      std::vector<std::byte> p(64);
      const std::uint64_t tag = n * 1000 + i;
      std::memcpy(p.data(), &tag, sizeof tag);
      group.send(n, 0, std::move(p));
    }
  }
  group.engine().run_to(sim::micros(150));
  group.crash(3);
  group.engine().run_to(sim::millis(15));  // fixed horizon: fully comparable

  Digest d;
  d.mix(group.epoch());
  d.mix(group.view().members.size());
  for (std::size_t i = 0; i < kNodes; ++i) {
    d.mix(group.is_alive(static_cast<net::NodeId>(i)) ? 1 : 0);
    d.mix(delivered[i].size());
    for (std::uint64_t t : delivered[i]) d.mix(t);
    const auto log = group.persistent_log(static_cast<net::NodeId>(i), 0);
    d.mix(log.size());
    for (const auto& entry : log) d.mix(tag_of(entry));
  }
  return d.h;
}

// Golden digests, captured on the pre-refactor pipeline (monolithic
// process_subgroup_sync, sleep-polling view layer). The refactored
// predicate framework must reproduce them exactly.
// kGoldenFig03 was re-derived once, for the parallel engine's
// worker-invariant event key (sim/sched.hpp): cross-scheduler
// same-instant ties break by the deterministic key hash instead of
// global insertion order, which reordered one tie in this workload (the
// other three digests were unaffected). Serial and parallel runs pin
// the *same* digests — parallel_engine_test cross-checks that.
constexpr std::uint64_t kGoldenFig03 = 0xe8fc214e12b1e8e3;
constexpr std::uint64_t kGoldenFig09 = 0xea69ce9212cbae91;
constexpr std::uint64_t kGoldenViewChange = 0x3080420c16e0e5a0;
// One hot subgroup plus four cold ones under the default 25us park_after:
// the cold groups go quiet drained, park, and are never evaluated again,
// so the digest pins the park schedule (fig09 and fig03 never park, so
// they cannot). Re-derived once, when drained groups began to park
// instead of being probed on a scan lane.
constexpr std::uint64_t kGoldenHotCold = 0xc9d5cd0559767b26;

TEST(DeterminismLock, Fig03SingleSubgroup) {
  const std::uint64_t h = cluster_digest(8, 1, 100, 7);
  std::printf("digest fig03: 0x%llx\n", static_cast<unsigned long long>(h));
  EXPECT_EQ(h, kGoldenFig03);
}

TEST(DeterminismLock, Fig09BatchedMultigroup) {
  const std::uint64_t h = cluster_digest(6, 3, 40, 11);
  std::printf("digest fig09: 0x%llx\n", static_cast<unsigned long long>(h));
  EXPECT_EQ(h, kGoldenFig09);
}

TEST(DeterminismLock, HotColdParking) {
  std::uint64_t parks = 0;
  const std::uint64_t h = cluster_digest(6, 5, 40, 11, /*active=*/1, &parks);
  std::printf("digest hot-cold: 0x%llx (%llu parks)\n",
              static_cast<unsigned long long>(h),
              static_cast<unsigned long long>(parks));
  EXPECT_GT(parks, 0u) << "the drained cold subgroups never parked";
  EXPECT_EQ(h, kGoldenHotCold);
}

TEST(DeterminismLock, ChaosSeedWithViewChange) {
  const std::uint64_t h = view_change_digest(3);
  std::printf("digest view: 0x%llx\n", static_cast<unsigned long long>(h));
  EXPECT_EQ(h, kGoldenViewChange);
}

}  // namespace
}  // namespace spindle::core
