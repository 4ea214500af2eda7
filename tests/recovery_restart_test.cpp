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
  /// view, then run until the resumed traffic completes or the deadline.
  bool restart_and_finish(const std::vector<net::NodeId>& who) {
    const sim::Nanos base = group.engine().now();
    const std::uint32_t recovered = group.recoveries();
    for (std::size_t i = 0; i < who.size(); ++i) {
      const net::NodeId n = who[i];
      group.engine().schedule_fn(base + sim::micros(100 + 80 * i),
                                 [this, n] { group.restart(n); });
    }
    if (!group.engine().run_until(
            [&] { return group.recoveries() > recovered; },
            base + sim::millis(50))) {
      return false;
    }
    return run_to_completion();
  }

  /// Run until membership has settled and every member of the view
  /// delivered what the checker expects of every sender in this segment
  /// (its replayed durable prefix plus its resumed tail), or 200 ms pass;
  /// true iff the run got there and the whole contract then holds.
  /// Counting deliveries keeps a run that never completes cheap; the
  /// contract is checked once, at the end (expect_clean prints what it
  /// violates).
  bool run_to_completion() {
    std::vector<std::uint64_t> expected(nodes);
    for (net::NodeId s = 0; s < nodes; ++s) {
      expected[s] = checker.expected_current_from(0, s, msgs);
    }
    return group.engine().run_until(
        [&] {
          if (group.view_change_in_progress()) return false;
          for (net::NodeId m : group.view().members) {
            for (net::NodeId s = 0; s < nodes; ++s) {
              if (checker.delivered_from(m, 0, s) < expected[s]) return false;
            }
          }
          return true;
        },
        group.engine().now() + sim::millis(200)) &&
        checker.check(group).empty();
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
// Re-derived when the central install barrier went: the group now halts at
// the last crash (201us) instead of at the barrier's next 20us tick, so
// the restarts, which count from the halt, start earlier; and with the
// barrier's wake-ups gone, some same-instant ties break the other way.
// Re-derived when a send queue's pump stopped idling on a 20us timer: a
// message queued while the pump slept waited for its next tick, and now
// the pump starts at the send, so more of the traffic before the crash is
// durable.
// Re-derived when a service that receives and delivers began to push both
// counters as one write per peer: the halt (201us) leaves the same
// durable logs (28/32/32/32 committed records), but the senders' queues
// stood elsewhere at the crash, so each member delivers 116 messages in
// the recovered segment instead of 117, done at 1414.99us instead of
// 1421.14us, when the write-behind logs hold 104 records each (116-117).
// Waiting on delivered counts instead of the whole checker left the
// digest as it was.
// Re-derived when a sender waiting for a ring slot began to park until a
// counter lands instead of polling every 300ns, and claims and mid-round
// rings began to cut the polling thread's backoff short: the halt (201us)
// leaves 26/30/30/30 committed records instead of 28/32/32/32, and the
// recovered segment is done at 1423.59us instead of 1414.99us, when the
// write-behind logs hold 115 records each instead of 104 (116 delivered
// either way).
// Re-derived when the receive and deliver stages stopped charging reads of
// the node's own trailer row and received_num column: the halt (201us)
// leaves 28/30/32/32 committed records instead of 26/30/30/30, and each
// member delivers 117 messages in the recovered segment instead of 116,
// done at 1413.95us instead of 1423.59us, when the write-behind logs hold
// 111-112 records instead of 115.
constexpr std::uint64_t kGoldenTotalRecovery = 0x15dddce876d5bc50ULL;

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

TEST(TotalFailureRecovery, RecoveryViewDropsPreFailureSuspicions) {
  // Node 3 leaves (an announced suspicion of itself, which the others
  // adopt and push), the group installs {0,1,2}, then every member
  // crashes. All four restart: the recovery view re-admits node 3, so the
  // masks pushed before the failure must not survive in any member's copy
  // of a peer's row, or the members adopt them, wedge, and remove node 3
  // again.
  TotalFailureRun r(4, /*seed=*/2031, /*persistent=*/true);
  r.group.engine().schedule_fn(sim::micros(40), [&r] { r.group.leave(3); });
  ASSERT_TRUE(r.group.engine().run_until(
      [&] {
        return r.group.epoch() == 1 && !r.group.view_change_in_progress();
      },
      sim::micros(140)))
      << r.group.engine().diagnostics();
  ASSERT_EQ(r.group.view().members, (std::vector<net::NodeId>{0, 1, 2}));
  ASSERT_TRUE(r.crash_all()) << r.group.engine().diagnostics();
  const std::uint32_t recovery_epoch = r.group.epoch() + 1;

  ASSERT_TRUE(r.restart_and_finish({0, 1, 2, 3}))
      << r.group.engine().diagnostics();
  // Several failure timeouts later the group is still in the recovery view.
  r.group.engine().run_to(r.group.engine().now() + sim::millis(2));
  EXPECT_EQ(r.group.recoveries(), 1u);
  EXPECT_EQ(r.group.epoch(), recovery_epoch);
  EXPECT_FALSE(r.group.view_change_in_progress());
  EXPECT_EQ(r.group.view().members, (std::vector<net::NodeId>{0, 1, 2, 3}));
  r.expect_clean();
}

TEST(TotalFailureRecovery, LossyRecoveryThenIdleFailureRecoversAgain) {
  // The first total failure strikes mid-load and loses a delivered message
  // that was not yet durable, so after the recovery a sender's durable
  // indices have a gap. The second strikes the idle recovered group 2 ms
  // later: its recovery replays those gapped indices, and the checker's
  // loss rule must expect exactly them, then nothing to resume.
  TotalFailureRun r(4, /*seed=*/2032, /*persistent=*/true);
  sim::Engine& eng = r.group.engine();
  ASSERT_TRUE(r.crash_all()) << eng.diagnostics();
  ASSERT_TRUE(r.restart_and_finish({0, 1, 2, 3})) << eng.diagnostics();
  ASSERT_EQ(r.group.recoveries(), 1u);
  bool lost_one = false;
  for (net::NodeId s = 0; s < 4; ++s) {
    lost_one |= r.checker.delivered_from(0, 0, s) < r.msgs;
  }
  EXPECT_TRUE(lost_one) << "the first episode lost nothing; the second "
                           "recovery would not see a gap";

  const sim::Nanos onset = eng.now() + sim::millis(2);
  for (net::NodeId n = 0; n < 4; ++n) {
    eng.schedule_fn(onset + sim::micros(17) * n,
                    [&r, n] { r.group.crash(n); });
  }
  ASSERT_TRUE(eng.run_until([&] { return r.group.halted(); },
                            onset + sim::millis(50)))
      << eng.diagnostics();
  ASSERT_TRUE(r.restart_and_finish({0, 1, 2, 3})) << eng.diagnostics();
  EXPECT_EQ(r.group.recoveries(), 2u);
  EXPECT_EQ(r.checker.episodes(), 2u);
  EXPECT_EQ(r.group.view().members, (std::vector<net::NodeId>{0, 1, 2, 3}));
  r.expect_clean();
}

// The group's settle window after the last restart (kRestartSettle in
// core/view.cpp).
constexpr sim::Nanos kSettle = sim::micros(800);

TEST(TotalFailureRecovery, RecoversExactlyOneSettleAfterTheLastRestart) {
  // Restarts off any polling grid: the recovery runs at the last restart
  // plus the settle window, to the nanosecond, and each later restart
  // pushes it back.
  TotalFailureRun r(4, /*seed=*/2033, /*persistent=*/true);
  sim::Engine& eng = r.group.engine();
  std::vector<sim::Nanos> recovered_at;
  r.group.add_recovery_observer(
      [&](const core::ManagedGroup::RecoveryInfo&) {
        recovered_at.push_back(eng.now());
      });
  ASSERT_TRUE(r.crash_all()) << eng.diagnostics();
  const sim::Nanos halt = eng.now();
  const sim::Nanos offsets[] = {7'001, 31'013, 53'029, 97'043};
  for (net::NodeId n = 0; n < 4; ++n) {
    eng.schedule_fn(halt + offsets[n], [&r, n] { r.group.restart(n); });
  }
  ASSERT_TRUE(eng.run_until([&] { return r.group.recoveries() == 1; },
                            halt + sim::millis(5)))
      << eng.diagnostics();
  ASSERT_EQ(recovered_at.size(), 1u);
  EXPECT_EQ(recovered_at[0], halt + offsets[3] + kSettle);
  ASSERT_TRUE(r.run_to_completion()) << eng.diagnostics();
  r.expect_clean();
}

TEST(TotalFailureRecovery, RestartBeforeTheHaltRecoversAtTheHalt) {
  // Node 0 crashes and restarts while nodes 1-3 still run; they remove it
  // and carry on. Once the settle window has passed, the recovery waits
  // for the halt, and runs at the halt's instant: at max(halt, last
  // restart + settle).
  TotalFailureRun r(4, /*seed=*/2034, /*persistent=*/true);
  sim::Engine& eng = r.group.engine();
  std::vector<sim::Nanos> recovered_at;
  r.group.add_recovery_observer(
      [&](const core::ManagedGroup::RecoveryInfo&) {
        recovered_at.push_back(eng.now());
      });
  const sim::Nanos restart_at = sim::micros(110) + 3;
  eng.schedule_fn(sim::micros(100), [&r] { r.group.crash(0); });
  eng.schedule_fn(restart_at, [&r] { r.group.restart(0); });
  const sim::Nanos halt = restart_at + kSettle + sim::micros(600) + 7;
  for (net::NodeId n = 1; n < 4; ++n) {
    eng.schedule_fn(halt - sim::micros(20) * (3 - n),
                    [&r, n] { r.group.crash(n); });
  }
  ASSERT_TRUE(eng.run_until([&] { return r.group.recoveries() == 1; },
                            halt + sim::millis(5)))
      << eng.diagnostics();
  ASSERT_EQ(recovered_at.size(), 1u);
  EXPECT_EQ(recovered_at[0], halt);
  EXPECT_EQ(r.group.view().members, (std::vector<net::NodeId>{0}));
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
