// Total-failure restart: every member crashes mid-load, restarts from its
// durable log, and the group recovers onto the longest common durable
// prefix (fault::VsyncChecker episode invariants 6-8), then resumes the
// interrupted traffic from the failure-atomic send queues.
//
// All tests are deterministic pure functions of their fixed seeds; the
// first test additionally pins the full recovered run to a golden digest
// so behavioural drift in the recovery path is caught, not just contract
// violations.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/vsync.hpp"

namespace spindle {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

core::SubgroupLayout one_subgroup(bool persistent) {
  return [persistent](const core::View& v) {
    core::SubgroupConfig sc;
    sc.name = "recovery";
    sc.members = v.members;
    sc.senders = v.members;
    sc.opts = core::ProtocolOptions::spindle();
    sc.opts.max_msg_size = 64;
    sc.opts.window_size = 8;
    sc.opts.persistent = persistent;
    return std::vector<core::SubgroupConfig>{sc};
  };
}

/// A loaded group driven into total failure: `nodes` members, `msgs`
/// messages per sender submitted up front, every node crashed at a
/// staggered fixed time. crash_all() runs the group to the halt.
struct TotalFailureRun {
  core::ManagedGroup group;
  fault::VsyncChecker checker;
  std::size_t nodes;
  std::uint64_t msgs = 30;

  TotalFailureRun(std::size_t n, std::uint64_t seed, bool persistent)
      : group(
            [&] {
              core::ManagedGroup::Config cfg;
              cfg.nodes = n;
              cfg.seed = seed;
              return cfg;
            }(),
            one_subgroup(persistent)),
        nodes(n) {
    group.start();
    checker.attach(group);
    // Spread each sender's submissions so the crash (150-201us) lands
    // mid-load: part of the traffic is durable, part in flight, part not
    // yet submitted (those queue up through the outage and resume after
    // recovery).
    for (net::NodeId s = 0; s < nodes; ++s) {
      for (std::uint64_t i = 0; i < msgs; ++i) {
        const std::uint64_t idx = checker.note_send(s, 0);
        group.engine().schedule_fn(
            static_cast<sim::Nanos>(i) * sim::micros(20), [this, s, idx] {
              group.send(s, 0,
                         fault::VsyncChecker::make_payload(s, idx, 64));
            });
      }
    }
  }

  /// Crash every node at kOnset + 17us * node, then run to the halt.
  /// Returns false if the group failed to halt (test should abort).
  bool crash_all() {
    static constexpr sim::Nanos kOnset = sim::micros(150);
    for (net::NodeId n = 0; n < nodes; ++n) {
      group.engine().schedule_fn(kOnset + sim::micros(17) * n,
                                 [this, n] { group.crash(n); });
    }
    return group.engine().run_until([&] { return group.halted(); },
                                    sim::millis(50));
  }

  /// Restart the given nodes at staggered times, wait for the recovery
  /// view, then run until the resumed traffic completes (the checker's
  /// completeness invariant is the completion signal) or the deadline.
  bool restart_and_finish(const std::vector<net::NodeId>& who) {
    const sim::Nanos base = group.engine().now();
    for (std::size_t i = 0; i < who.size(); ++i) {
      const net::NodeId n = who[i];
      group.engine().schedule_fn(base + sim::micros(100 + 80 * i),
                                 [this, n] { group.restart(n); });
    }
    if (!group.engine().run_until([&] { return group.recoveries() >= 1; },
                                  base + sim::millis(50))) {
      return false;
    }
    return group.engine().run_until(
        [&] {
          return !group.view_change_in_progress() &&
                 checker.check(group).empty();
        },
        group.engine().now() + sim::millis(200));
  }

  void expect_clean() {
    for (const std::string& v : checker.check(group)) {
      ADD_FAILURE() << "VIOLATION: " << v;
    }
  }

  std::uint64_t digest() {
    std::uint64_t h = kFnvOffset;
    fnv(h, static_cast<std::uint64_t>(group.engine().now()));
    fnv(h, group.epoch());
    fnv(h, group.recoveries());
    for (net::NodeId n = 0; n < nodes; ++n) {
      fnv(h, checker.delivered_total(n, 0));
      for (net::NodeId s = 0; s < nodes; ++s) {
        fnv(h, checker.delivered_from(n, 0, s));
      }
      fnv(h, group.persistent_log(n, 0).size());
    }
    return h;
  }
};

// Golden digest for AllMembersRestartAndResume, captured when the
// recovery path landed. A change means the recovery protocol's observable
// behaviour moved — re-derive deliberately, never rubber-stamp.
// Re-derived for the parallel engine's worker-invariant event key
// (sim/sched.hpp): cross-scheduler same-instant ties now break by the
// deterministic key hash instead of global insertion order, which
// reordered one tie in this workload's crash window.
constexpr std::uint64_t kGoldenTotalRecovery = 0x68bdc866bc676178ULL;

TEST(TotalFailureRecovery, AllMembersRestartAndResume) {
  TotalFailureRun r(4, /*seed=*/2026, /*persistent=*/true);
  const std::uint32_t pre_epoch = r.group.epoch();
  ASSERT_TRUE(r.crash_all()) << r.group.engine().diagnostics();
  ASSERT_TRUE(r.group.halted());

  // The crash cut durable state mid-load: some but not all of the traffic
  // reached the logs (otherwise the recovery below is vacuous).
  std::size_t durable_min = SIZE_MAX, durable_max = 0;
  for (net::NodeId n = 0; n < 4; ++n) {
    const auto* st = r.group.durable_store(n, 0);
    ASSERT_NE(st, nullptr);
    durable_min = std::min(durable_min, st->committed_size());
    durable_max = std::max(durable_max, st->committed_size());
  }
  EXPECT_GT(durable_max, 0u) << "crash landed before anything persisted";
  EXPECT_LT(durable_max, 4u * r.msgs) << "crash landed after quiescence";

  ASSERT_TRUE(r.restart_and_finish({0, 1, 2, 3}))
      << r.group.engine().diagnostics();
  EXPECT_EQ(r.group.recoveries(), 1u);
  EXPECT_EQ(r.checker.episodes(), 1u);
  EXPECT_GT(r.group.epoch(), pre_epoch);
  EXPECT_FALSE(r.group.halted());
  EXPECT_EQ(r.group.view().members, (std::vector<net::NodeId>{0, 1, 2, 3}));
  for (net::NodeId n = 0; n < 4; ++n) EXPECT_TRUE(r.group.is_alive(n));
  // Delivery resumed past the replayed prefix: everything each sender
  // submitted is eventually re-observed or freshly delivered.
  for (net::NodeId n = 0; n < 4; ++n) {
    EXPECT_GE(r.checker.delivered_total(n, 0), durable_min);
  }
  r.expect_clean();
  EXPECT_EQ(r.digest(), kGoldenTotalRecovery)
      << "recovery behaviour drifted; re-derive the golden deliberately "
         "(digest=0x"
      << std::hex << r.digest() << ")";
}

TEST(TotalFailureRecovery, DeadSenderContributesOnlyItsDurablePrefix) {
  // Node 3 never restarts: the recovery view is {0,1,2} and node 3's
  // messages survive exactly as far as the common durable prefix (the
  // checker's episode invariant 8 enforces the [0..durable) shape).
  TotalFailureRun r(4, /*seed=*/2027, /*persistent=*/true);
  ASSERT_TRUE(r.crash_all()) << r.group.engine().diagnostics();
  ASSERT_TRUE(r.restart_and_finish({0, 1, 2}))
      << r.group.engine().diagnostics();
  EXPECT_EQ(r.group.view().members, (std::vector<net::NodeId>{0, 1, 2}));
  EXPECT_FALSE(r.group.is_alive(3));
  EXPECT_EQ(r.group.view().departed, (std::vector<net::NodeId>{3}));
  // The dead sender's tail is lost for good: survivors deliver fewer of
  // node 3's messages than it submitted.
  for (net::NodeId m : r.group.view().members) {
    EXPECT_LT(r.checker.delivered_from(m, 0, 3), r.msgs);
  }
  r.expect_clean();
}

TEST(TotalFailureRecovery, VolatileGroupRecoversOntoEmptyPrefix) {
  // No persistence: the common durable prefix is empty, so recovery is a
  // cold start that replays nothing — but the failure-atomic send queues
  // still resume every message the senders had not yet self-delivered.
  TotalFailureRun r(4, /*seed=*/2028, /*persistent=*/false);
  ASSERT_TRUE(r.crash_all()) << r.group.engine().diagnostics();
  ASSERT_TRUE(r.restart_and_finish({0, 1, 2, 3}))
      << r.group.engine().diagnostics();
  EXPECT_EQ(r.group.recoveries(), 1u);
  EXPECT_EQ(r.checker.episodes(), 1u);
  for (net::NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(r.group.durable_store(n, 0), nullptr);
    EXPECT_TRUE(r.group.persistent_log(n, 0).empty());
  }
  r.expect_clean();
}

TEST(TotalFailureRecovery, RestartRefusedAfterShutdownAndWhilePending) {
  TotalFailureRun r(4, /*seed=*/2029, /*persistent=*/true);
  ASSERT_TRUE(r.crash_all()) << r.group.engine().diagnostics();
  // A node already in the restart set cannot be restarted twice.
  EXPECT_TRUE(r.group.restart(1));
  EXPECT_TRUE(r.group.recovery_pending());
  EXPECT_FALSE(r.group.restart(1));
  // After shutdown the group is terminated for good.
  r.group.shutdown();
  // A halted group drains too: its pump actors and the recovery scheduler
  // exit instead of leaking their coroutine frames.
  EXPECT_EQ(r.group.engine().pending_events(), 0u);
  EXPECT_FALSE(r.group.restart(2));
  EXPECT_FALSE(r.group.recovery_pending());
}

TEST(TotalFailureRecovery, SameSeedRecoversBitIdentically) {
  auto run = [] {
    TotalFailureRun r(4, /*seed=*/2030, /*persistent=*/true);
    EXPECT_TRUE(r.crash_all());
    EXPECT_TRUE(r.restart_and_finish({0, 1, 2, 3}));
    return r.digest();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace spindle
