// Parallel conservative-lookahead engine (ctest -L parallel).
//
// Two layers of coverage:
//  1. sim::ParallelEngine unit tests — window mechanics (drain, run_to
//     horizons, run_until at window granularity, the idle watchdog).
//  2. Byte-identity cross-checks: the three determinism-lock cluster
//     configurations (tests/determinism_lock_test.cpp) run to a fixed
//     virtual horizon at 1, 2 and 4 workers, and the FULL digest — every
//     per-node delivery record with its virtual timestamp, plus the merged
//     protocol counters — must be identical across worker counts. Since the
//     1-worker run is the plain serial engine (already pinned against the
//     historical goldens by determinism_lock_test), equality here pins the
//     parallel runs to the goldens transitively.
//  3. A chaos slice: cpu stalls, predicate delays and degraded links
//     (latency multipliers >= 1, with and without jitter) under the
//     parallel engine. Every case must match serial exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "core/group.hpp"
#include "metrics/metrics.hpp"
#include "sim/parallel.hpp"

namespace spindle {
namespace {

// ---------------------------------------------------------------------------
// sim::ParallelEngine units
// ---------------------------------------------------------------------------

TEST(ParallelEngineUnit, DrainRunsEveryWorkerDry) {
  sim::ParallelEngine pe(2, 1'000);
  int fired0 = 0, fired1 = 0;
  // Two independent event chains, one per worker, spanning many windows.
  std::function<void(sim::Nanos)> chain0 = [&](sim::Nanos at) {
    pe.worker(0).schedule_fn(at, [&, at] {
      if (++fired0 < 10) chain0(at + 700);
    });
  };
  std::function<void(sim::Nanos)> chain1 = [&](sim::Nanos at) {
    pe.worker(1).schedule_fn(at, [&, at] {
      if (++fired1 < 10) chain1(at + 1'300);
    });
  };
  chain0(100);
  chain1(250);
  pe.run();
  EXPECT_EQ(fired0, 10);
  EXPECT_EQ(fired1, 10);
  EXPECT_EQ(pe.steps(), 20u);
  // Last events: w0 at 100+9*700=6400, w1 at 250+9*1300=11950.
  EXPECT_EQ(pe.now(), 11'950);
  EXPECT_GE(pe.windows(), 1u);
}

TEST(ParallelEngineUnit, RunToStopsAtHorizonAndSyncsClocks) {
  sim::ParallelEngine pe(2, 1'000);
  int fired = 0;
  pe.worker(0).schedule_fn(100, [&] { ++fired; });
  pe.worker(1).schedule_fn(50'000, [&] { ++fired; });
  pe.run_to(10'000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(pe.worker(0).now(), 10'000);
  EXPECT_EQ(pe.worker(1).now(), 10'000);
  EXPECT_EQ(pe.now(), 10'000);
  pe.run_to(60'000);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(pe.now(), 60'000);
}

TEST(ParallelEngineUnit, RunUntilStopsWhenConditionHolds) {
  sim::ParallelEngine pe(4, 500);
  // Per-worker slots, summed only in the condition (which runs at a
  // barrier with all workers parked) — the accounting pattern every
  // parallel-mode client must follow; a single shared counter would be a
  // data race across workers.
  std::uint64_t count[4] = {0, 0, 0, 0};
  for (std::size_t w = 0; w < 4; ++w) {
    for (int i = 1; i <= 50; ++i) {
      pe.worker(w).schedule_fn(i * 400, [&slot = count[w]] { ++slot; });
    }
  }
  const auto total = [&] { return count[0] + count[1] + count[2] + count[3]; };
  const bool met = pe.run_until([&] { return total() >= 60; });
  EXPECT_TRUE(met);
  EXPECT_GE(total(), 60u);   // met...
  EXPECT_LT(total(), 200u);  // ...but well before the drain
}

TEST(ParallelEngineUnit, RunUntilReportsDrainWithoutMeeting) {
  sim::ParallelEngine pe(2, 1'000);
  int fired = 0;
  pe.worker(0).schedule_fn(10, [&] { ++fired; });
  const bool met = pe.run_until([] { return false; });
  EXPECT_FALSE(met);
  EXPECT_EQ(fired, 1);
}

TEST(ParallelEngineUnit, WatchdogAbortsBeyondMaxVirtual) {
  sim::ParallelEngine pe(2, 1'000);
  int fired = 0;
  pe.worker(1).schedule_fn(sim::seconds(100), [&] { ++fired; });
  const bool met = pe.run_until([] { return false; }, sim::millis(1));
  EXPECT_FALSE(met);
  EXPECT_EQ(fired, 0);  // the far-future event never ran
}

// ---------------------------------------------------------------------------
// Cluster byte-identity across worker counts
// ---------------------------------------------------------------------------

/// FNV-1a digest, same accumulator as determinism_lock_test.
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

struct RunSpec {
  std::size_t nodes;
  std::size_t subgroups;
  std::size_t messages;
  std::uint64_t seed;
  /// Subgroups whose members send (the first `active`); the rest stay
  /// cold.
  std::size_t active = SIZE_MAX;
  /// Fault installation hook, called right after start() (workers are not
  /// running yet, so main-thread fabric/node calls are safe here).
  std::function<void(core::Cluster&)> chaos{};
};

std::size_t active_of(const RunSpec& spec) {
  return std::min(spec.active, spec.subgroups);
}

/// Scan-lane demotions and parks summed over every subgroup and node.
struct SchedCounts {
  std::uint64_t demotions = 0;
  std::uint64_t parks = 0;
  bool operator==(const SchedCounts&) const = default;
};

/// Run `spec` with `workers` simulation threads up to the fixed virtual
/// horizon, and digest everything observable: per-node delivery records
/// (subgroup, sender, seq, index, virtual delivery time, payload tag) in
/// upcall order, final virtual time, and the merged protocol counters.
/// Both serial and parallel runs execute the exact same event set when
/// driven by run_to(), so the digests must agree bit-for-bit. The out
/// parameters receive the delivered count and the scheduler counters.
std::uint64_t digest_to_horizon(const RunSpec& spec, std::size_t workers,
                                sim::Nanos horizon,
                                std::uint64_t* delivered_out,
                                SchedCounts* sched_out) {
  core::ClusterConfig cc;
  cc.nodes = spec.nodes;
  cc.seed = spec.seed;
  cc.sim_threads = workers;
  core::Cluster cluster(cc);
  std::vector<net::NodeId> members;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    members.push_back(static_cast<net::NodeId>(i));
  }
  core::ProtocolOptions opts = core::ProtocolOptions::spindle();
  opts.max_msg_size = 1024;
  opts.window_size = 32;
  std::vector<core::SubgroupId> sgs;
  for (std::size_t g = 0; g < spec.subgroups; ++g) {
    sgs.push_back(cluster.create_subgroup(
        {"sg" + std::to_string(g), members, members, opts}));
  }
  cluster.start();
  if (spec.chaos) spec.chaos(cluster);

  struct Rec {
    std::uint32_t sg;
    std::uint64_t sender;
    std::int64_t seq;
    std::int64_t idx;
    sim::Nanos at;
    std::uint64_t tag;
  };
  std::vector<std::vector<Rec>> per_node(spec.nodes);
  for (net::NodeId m : members) {
    sim::Engine& eng = cluster.engine_for(m);
    for (core::SubgroupId sg : sgs) {
      cluster.node(m).set_delivery_handler(
          sg, [&per_node, &eng, m](const core::Delivery& d) {
            per_node[m].push_back(Rec{d.subgroup, d.sender, d.seq,
                                      d.sender_index, eng.now(),
                                      tag_of(d.data)});
          });
    }
  }
  for (std::size_t g = 0; g < active_of(spec); ++g) {
    const core::SubgroupId sg = sgs[g];
    for (std::size_t s = 0; s < spec.nodes; ++s) {
      cluster.engine_for(members[s])
          .spawn([](core::Cluster* c, net::NodeId id, core::SubgroupId g,
                    std::size_t count, std::uint64_t base) -> sim::Co<> {
            for (std::size_t i = 0; i < count; ++i) {
              if (c->node(id).stopped()) co_return;
              const std::uint64_t tag = base + i;
              co_await c->node(id).send(g, 256,
                                        [tag](std::span<std::byte> buf) {
                                          std::memcpy(buf.data(), &tag,
                                                      sizeof tag);
                                        });
            }
          }(&cluster, members[s], sg, spec.messages,
            (sg + 1) * 1'000'000 + (s + 1) * 10'000));
    }
  }
  cluster.run_to(horizon);

  std::uint64_t seen = 0;
  for (core::SubgroupId sg : sgs) seen += cluster.total_delivered(sg);
  *delivered_out = seen;

  Digest d;
  d.mix(static_cast<std::uint64_t>(cluster.now()));
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
  *sched_out = {};
  for (const auto& sg : stats.subgroups) {
    sched_out->demotions += sg.sched_demotions;
    sched_out->parks += sg.sched_parks;
  }
  cluster.shutdown();
  return d.h;
}

/// Serial probe: completion time of the workload (run_until on one thread),
/// used to pick a horizon that covers the whole run for every worker count.
sim::Nanos completion_horizon(const RunSpec& spec) {
  core::ClusterConfig cc;
  cc.nodes = spec.nodes;
  cc.seed = spec.seed;
  core::Cluster cluster(cc);
  std::vector<net::NodeId> members;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    members.push_back(static_cast<net::NodeId>(i));
  }
  core::ProtocolOptions opts = core::ProtocolOptions::spindle();
  opts.max_msg_size = 1024;
  opts.window_size = 32;
  std::vector<core::SubgroupId> sgs;
  for (std::size_t g = 0; g < spec.subgroups; ++g) {
    sgs.push_back(cluster.create_subgroup(
        {"sg" + std::to_string(g), members, members, opts}));
  }
  cluster.start();
  if (spec.chaos) spec.chaos(cluster);
  for (std::size_t g = 0; g < active_of(spec); ++g) {
    const core::SubgroupId sg = sgs[g];
    for (std::size_t s = 0; s < spec.nodes; ++s) {
      cluster.engine().spawn(
          [](core::Cluster* c, net::NodeId id, core::SubgroupId g,
             std::size_t count, std::uint64_t base) -> sim::Co<> {
            for (std::size_t i = 0; i < count; ++i) {
              if (c->node(id).stopped()) co_return;
              const std::uint64_t tag = base + i;
              co_await c->node(id).send(g, 256,
                                        [tag](std::span<std::byte> buf) {
                                          std::memcpy(buf.data(), &tag,
                                                      sizeof tag);
                                        });
            }
          }(&cluster, members[s], sg, spec.messages,
            (sg + 1) * 1'000'000 + (s + 1) * 10'000));
    }
  }
  const std::uint64_t expect =
      active_of(spec) * spec.nodes * spec.messages * spec.nodes;
  const bool done = cluster.run_until(
      [&] {
        std::uint64_t seen = 0;
        for (core::SubgroupId sg : sgs) seen += cluster.total_delivered(sg);
        return seen >= expect;
      },
      sim::seconds(30));
  EXPECT_TRUE(done) << "serial probe stalled";
  const sim::Nanos t = cluster.now();
  cluster.shutdown();
  // Past-completion margin: also pins the idle/backoff tail behaviour.
  return t + sim::micros(100);
}

/// Returns the serial run's scan-lane demotions and parks.
SchedCounts expect_identical_across_workers(const RunSpec& spec) {
  const sim::Nanos horizon = completion_horizon(spec);
  const std::uint64_t expect =
      active_of(spec) * spec.nodes * spec.messages * spec.nodes;
  std::uint64_t d1 = 0, d2 = 0, d4 = 0;
  SchedCounts m1, m2, m4;
  const std::uint64_t h1 = digest_to_horizon(spec, 1, horizon, &d1, &m1);
  const std::uint64_t h2 = digest_to_horizon(spec, 2, horizon, &d2, &m2);
  const std::uint64_t h4 = digest_to_horizon(spec, 4, horizon, &d4, &m4);
  EXPECT_EQ(d1, expect);
  EXPECT_EQ(d2, expect);
  EXPECT_EQ(d4, expect);
  EXPECT_TRUE(m1 == m2) << "2-worker scheduler counters diverged";
  EXPECT_TRUE(m1 == m4) << "4-worker scheduler counters diverged";
  std::printf("digest W1=0x%llx W2=0x%llx W4=0x%llx (horizon %lld ns)\n",
              static_cast<unsigned long long>(h1),
              static_cast<unsigned long long>(h2),
              static_cast<unsigned long long>(h4),
              static_cast<long long>(horizon));
  EXPECT_EQ(h1, h2) << "2-worker run diverged from serial";
  EXPECT_EQ(h1, h4) << "4-worker run diverged from serial";
  return m1;
}

TEST(ParallelDeterminism, Fig03SingleSubgroupIdenticalAt124Workers) {
  expect_identical_across_workers({8, 1, 100, 7});
}

TEST(ParallelDeterminism, Fig09BatchedMultigroupIdenticalAt124Workers) {
  expect_identical_across_workers({6, 3, 40, 11});
}

// The determinism lock's hot-plus-cold golden: four cold subgroups demote
// onto the default scan lane and park drained, so this pins the park and
// wake schedule across worker counts (the landing-signal wake then runs on
// the destination's worker thread, which parallel_tsan checks).
TEST(ParallelDeterminism, HotColdScanLaneIdenticalAt124Workers) {
  const SchedCounts c =
      expect_identical_across_workers({6, 5, 40, 11, /*active=*/1});
  EXPECT_GT(c.demotions, 0u);
  EXPECT_GT(c.parks, 0u);
}

// ---------------------------------------------------------------------------
// Chaos slice under the parallel engine
// ---------------------------------------------------------------------------

// Deterministic faults (no link jitter): a cpu-stalled host, a slowed
// delivery predicate, and a degraded link (latency x2). Parallel runs must
// still match serial bit-for-bit.
TEST(ParallelChaos, DeterministicFaultSliceMatchesSerial) {
  RunSpec spec{6, 2, 30, 23};
  spec.chaos = [](core::Cluster& cluster) {
    // Degraded (never faster) link 1 -> 4, installed at t=0 from the main
    // thread before the workers launch.
    cluster.fabric().set_link_fault(1, 4, 2.0, 0);
    // Mid-run host faults, scheduled on the owning node's worker.
    cluster.engine_for(2).schedule_fn(sim::micros(40), [&cluster] {
      cluster.fabric().host(2).slow_cpu(sim::micros(90));
    });
    cluster.engine_for(3).schedule_fn(sim::micros(20), [&cluster] {
      cluster.fabric().host(3).predicate_delay("deliver", sim::micros(120),
                                               700);
    });
  };
  expect_identical_across_workers(spec);
}

// Jittered links: every engine mode draws per-link jitter from the same
// counter-keyed hash stream, so jittered chaos matches serial bit-for-bit
// too. The jitter bounds are several wire delays wide so the draws reach
// the delivery timestamps (sub-microsecond jitter on two links is absorbed
// by the other members' acknowledgements and changes nothing observable).
TEST(ParallelChaos, JitteredLinksAgreeAcrossWorkerCounts) {
  RunSpec spec{6, 2, 30, 29};
  spec.chaos = [](core::Cluster& cluster) {
    cluster.fabric().set_link_fault(0, 5, 1.5, 4000);
    cluster.fabric().set_link_fault(4, 1, 1.0, 9000);
  };
  expect_identical_across_workers(spec);
}

}  // namespace
}  // namespace spindle
