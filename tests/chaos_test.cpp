// Chaos sweep: hundreds of seeded random fault schedules (crashes,
// cascading crashes, NIC stalls, link degradation, slow hosts, SSD
// latency spikes, dropped post-plan lanes, phantom doorbells, and
// total-failure episodes with staggered restarts) executed
// deterministically against a busy group, each verified with the full
// virtual-synchrony contract (fault::VsyncChecker) — including the
// episode-aware recovery invariants when the whole group goes down and
// comes back from its durable logs.
//
// Every run is a pure function of its seed. On failure the test prints the
// seed, the complete fault schedule and the engine diagnostics, and writes
// the same dump to chaos_seed_<seed>.replay.txt in the working directory.
// Replay one schedule bit-identically with:
//
//   SPINDLE_CHAOS_RUNS=1 SPINDLE_CHAOS_SEED=<seed> ./tests/chaos_test
//
// The sweep size defaults to 500 schedules and scales with the
// SPINDLE_CHAOS_RUNS environment variable (nightly runs use thousands).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "chaos_harness.hpp"
#include "fault/injector.hpp"
#include "fault/vsync.hpp"

namespace spindle {
namespace {

using chaos::ChaosOutcome;
using chaos::kBaseSeed;
using chaos::run_chaos;

std::vector<std::uint64_t> chaos_seeds() {
  if (const char* s = std::getenv("SPINDLE_CHAOS_SEED")) {
    return {std::strtoull(s, nullptr, 0)};
  }
  std::size_t runs = 500;
  if (const char* r = std::getenv("SPINDLE_CHAOS_RUNS")) {
    runs = std::strtoull(r, nullptr, 10);
  }
  std::vector<std::uint64_t> seeds(runs);
  for (std::size_t i = 0; i < runs; ++i) seeds[i] = kBaseSeed + i;
  return seeds;
}

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Replay ergonomics: a failing seed leaves a self-contained artifact next
// to the test binary — the shape, the full schedule, the replay command,
// and whatever went wrong — so the failure survives scrolled-away CI logs.
std::string write_replay_artifact(std::uint64_t seed,
                                  const ChaosOutcome& out) {
  std::ostringstream name;
  name << "chaos_seed_" << seed << ".replay.txt";
  std::ofstream f(name.str());
  f << out.dump;
  if (!out.done) f << "RUN DID NOT QUIESCE\n" << out.diagnostics;
  for (const std::string& v : out.violations) f << "VIOLATION: " << v << "\n";
  return name.str();
}

TEST_P(ChaosSweep, VirtualSynchronyHoldsUnderRandomFaults) {
  const ChaosOutcome out = run_chaos(GetParam());
  if (!out.done || !out.violations.empty()) {
    const std::string artifact = write_replay_artifact(GetParam(), out);
    ASSERT_TRUE(out.done)
        << "group did not quiesce after the fault schedule (artifact: "
        << artifact << ")\n"
        << out.dump << out.diagnostics;
    EXPECT_TRUE(out.violations.empty()) << [&] {
      std::ostringstream os;
      os << out.dump << "(artifact: " << artifact << ")\n";
      for (const std::string& v : out.violations) {
        os << "VIOLATION: " << v << "\n";
      }
      return os.str();
    }();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::ValuesIn(chaos_seeds()),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           std::ostringstream os;
                           os << "seed" << std::hex << i.param;
                           return os.str();
                         });

// The sweep must not silently become vacuous: over the first 100 fixed
// seeds, a healthy generator produces runs with crashes, completed view
// changes, persistent subgroups, and at least the *possibility* of halts.
// (Deterministic: the seed population is fixed, so these counts are too.)
TEST(ChaosCoverage, SeedPopulationExercisesTheProtocol) {
  std::size_t with_crashes = 0, with_epochs = 0, persistent = 0, halted = 0;
  std::size_t with_parks = 0, with_recoveries = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const ChaosOutcome out = run_chaos(kBaseSeed + i);
    ASSERT_TRUE(out.done) << out.dump << out.diagnostics;
    if (out.crashes_scheduled > 0) ++with_crashes;
    if (out.epochs > 0) ++with_epochs;
    if (out.persistent) ++persistent;
    if (out.halted) ++halted;
    if (out.parked) ++with_parks;
    if (out.recoveries > 0) {
      ++with_recoveries;
      EXPECT_EQ(out.episodes, out.recoveries)
          << "checker missed a recovery episode, seed " << kBaseSeed + i;
    }
  }
  EXPECT_GE(with_crashes, 30u);
  EXPECT_GE(with_epochs, 30u);
  EXPECT_GE(persistent, 15u);
  // Parking under fault pressure: a data subgroup that went quiet long
  // enough, drained, to park in the epoch the run ended in.
  EXPECT_GE(with_parks, 30u);
  // About a third of the seeds draw a total-failure episode and every
  // episode forces at least one restart, so completed recoveries must be
  // well represented.
  EXPECT_GE(with_recoveries, 15u);
  // Terminal halts (total failure without recovery) are rare but legal; no
  // lower bound asserted.
  RecordProperty("halted_runs", static_cast<int>(halted));
  RecordProperty("parked_runs", static_cast<int>(with_parks));
  RecordProperty("recovered_runs", static_cast<int>(with_recoveries));
}

// Determinism contract behind the replay command: the same seed reproduces
// the same run bit-for-bit — same quiescence time, same per-node delivery
// counts, same verdicts.
TEST(ChaosReplay, SameSeedIsBitIdentical) {
  for (std::uint64_t seed : {kBaseSeed + 3, kBaseSeed + 17, kBaseSeed + 91}) {
    const ChaosOutcome a = run_chaos(seed);
    const ChaosOutcome b = run_chaos(seed);
    ASSERT_EQ(a.done, b.done) << "seed " << seed;
    EXPECT_EQ(a.trace, b.trace) << "replay diverged for seed " << seed;
    EXPECT_EQ(a.violations, b.violations) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Named regressions: fault shapes the sweep surfaced, pinned explicitly.

// Three schedules beyond the CI sweep (seeds 3459085055827372, ...7641 and
// ...8686) whose total-failure recovery view re-admits nodes that a peer's
// pre-failure suspicion row still named. Members that adopted those stale
// bits wedged again and disagreed on the leader, so the install barrier
// waited for a proposal that never came. A recovery view starts with no
// suspicion in any row.
TEST(ChaosNamed, RecoveryViewStartsWithoutStaleSuspicions) {
  for (std::uint64_t seed :
       {kBaseSeed + 7596, kBaseSeed + 7865, kBaseSeed + 8910}) {
    const ChaosOutcome out = run_chaos(seed);
    ASSERT_TRUE(out.done) << out.dump << out.diagnostics;
    EXPECT_TRUE(out.violations.empty()) << out.dump;
    EXPECT_EQ(out.recoveries, 1u) << out.dump;
  }
}

// Two members outlive this schedule's crashes of nodes 2 and 0. Node 3,
// suspected while its NIC was stalled, adopts node 1's suspicion of it,
// then times out node 1, which a slow-CPU window has descheduled: node 3's
// own mask covers its whole view. No leader can emerge from that, and the
// group halts in epoch 0 instead of installing a view of node 1 alone once
// node 1 runs again.
TEST(ChaosNamed, EveryMemberSuspectedHaltsTheGroup) {
  const ChaosOutcome out = run_chaos(kBaseSeed + 2403);
  ASSERT_TRUE(out.done) << out.dump << out.diagnostics;
  EXPECT_TRUE(out.violations.empty()) << out.dump;
  EXPECT_TRUE(out.halted) << out.dump;
  EXPECT_EQ(out.epochs, 0u) << out.dump;
}

core::SubgroupLayout simple_layout(bool persistent) {
  return [persistent](const core::View& v) {
    core::SubgroupConfig sc;
    sc.name = "chaos";
    sc.members = v.members;
    sc.senders = v.members;
    sc.opts = core::ProtocolOptions::spindle();
    sc.opts.max_msg_size = 64;
    sc.opts.window_size = 8;
    sc.opts.persistent = persistent;
    return std::vector<core::SubgroupConfig>{sc};
  };
}

struct NamedRun {
  core::ManagedGroup group;
  fault::VsyncChecker checker;
  std::uint64_t msgs = 30;

  NamedRun(std::size_t nodes, std::uint64_t seed, bool persistent)
      : group(
            [&] {
              core::ManagedGroup::Config cfg;
              cfg.nodes = nodes;
              cfg.seed = seed;
              return cfg;
            }(),
            simple_layout(persistent)) {
    group.start();
    checker.attach(group);
    for (net::NodeId n = 0; n < nodes; ++n) {
      for (std::uint64_t i = 0; i < msgs; ++i) {
        group.send(n, 0,
                   fault::VsyncChecker::make_payload(
                       n, checker.note_send(n, 0), 64));
      }
    }
  }

  bool run_to_quiescence() {
    return group.engine().run_until(
        [&] {
          if (group.halted()) return true;
          if (group.view_change_in_progress()) return false;
          for (net::NodeId m : group.view().members) {
            for (net::NodeId s : group.view().members) {
              if (checker.delivered_from(m, 0, s) < msgs) return false;
            }
          }
          return true;
        },
        sim::millis(400));
  }

  void expect_clean() {
    for (const std::string& v : checker.check(group)) {
      ADD_FAILURE() << "VIOLATION: " << v;
    }
  }

  /// Run to the first member's wedge (the event that starts the view
  /// change) and crash `node` right there: mid-change, whatever the
  /// membership plane's pace, and before the first install.
  ::testing::AssertionResult crash_on_first_wedge(net::NodeId node) {
    const std::uint32_t epoch = group.epoch();
    if (!group.engine().run_until(
            [&] { return group.view_change_in_progress(); },
            sim::millis(400))) {
      return ::testing::AssertionFailure() << "no view change started";
    }
    if (group.epoch() != epoch) {
      return ::testing::AssertionFailure() << "the install came first";
    }
    group.crash(node);
    return ::testing::AssertionSuccess();
  }
};

TEST(ChaosNamed, TwoSimultaneousCrashes) {
  NamedRun r(5, 77, /*persistent=*/false);
  r.group.engine().schedule_fn(sim::micros(60), [&] {
    r.group.crash(1);
    r.group.crash(3);
  });
  ASSERT_TRUE(r.run_to_quiescence()) << r.group.engine().diagnostics();
  EXPECT_EQ(r.group.view().members, (std::vector<net::NodeId>{0, 2, 4}));
  r.expect_clean();
}

TEST(ChaosNamed, LeaderCrashDuringRaggedTrim) {
  // Crash node 2, then crash the leader (node 0) mid-view-change: at the
  // first wedge, before the trim is proposed and the install completes.
  NamedRun r(5, 78, /*persistent=*/false);
  r.group.engine().schedule_fn(sim::micros(60), [&] { r.group.crash(2); });
  ASSERT_TRUE(r.crash_on_first_wedge(0)) << r.group.engine().diagnostics();
  ASSERT_TRUE(r.run_to_quiescence()) << r.group.engine().diagnostics();
  EXPECT_FALSE(r.group.is_alive(0));
  EXPECT_FALSE(r.group.is_alive(2));
  // The leader died mid-change, so one install removes both.
  EXPECT_EQ(r.group.epoch(), 1u);
  EXPECT_EQ(r.group.view().members, (std::vector<net::NodeId>{1, 3, 4}));
  r.expect_clean();
}

TEST(ChaosNamed, CascadeCrashWhileWedged) {
  // Second crash lands while the survivors are wedging for the first — the
  // leader must propose (or re-propose) with the larger failure set
  // instead of deadlocking on a dead node's install ack.
  NamedRun r(5, 79, /*persistent=*/false);
  r.group.engine().schedule_fn(sim::micros(100), [&] { r.group.crash(4); });
  ASSERT_TRUE(r.crash_on_first_wedge(3)) << r.group.engine().diagnostics();
  ASSERT_TRUE(r.run_to_quiescence()) << r.group.engine().diagnostics();
  // One install removes both nodes.
  EXPECT_EQ(r.group.epoch(), 1u);
  EXPECT_EQ(r.group.view().members, (std::vector<net::NodeId>{0, 1, 2}));
  r.expect_clean();
}

TEST(ChaosNamed, PersistentMemberCrash) {
  // A member of a persistent subgroup crashes mid-run: every pair of
  // durable logs (including the victim's) must agree as prefixes, and the
  // survivors' logs must cover everything delivered.
  NamedRun r(4, 80, /*persistent=*/true);
  r.group.engine().schedule_fn(sim::micros(120), [&] { r.group.crash(1); });
  ASSERT_TRUE(r.run_to_quiescence()) << r.group.engine().diagnostics();
  r.expect_clean();
  // Survivor logs contain every non-null delivered message of the final
  // sequence (flushed inside the install barrier, then at quiescence the
  // remaining tail persists asynchronously — poll for it).
  ASSERT_TRUE(r.group.engine().run_until(
      [&] {
        for (net::NodeId n : r.group.view().members) {
          if (r.group.persistent_log(n, 0).size() <
              r.checker.delivered_total(r.group.view().members[0], 0)) {
            return false;
          }
        }
        return true;
      },
      sim::millis(500)))
      << r.group.engine().diagnostics();
  r.expect_clean();
}

TEST(ChaosNamed, FalseSuspicionOfSlowNode) {
  // Stall a live node's threads well past the failure timeout: the group
  // must remove it (suspicions are never retracted) without violating the
  // delivery contract, and the stalled node's observations stay a prefix.
  NamedRun r(4, 81, /*persistent=*/false);
  r.group.engine().schedule_fn(sim::micros(80), [&] {
    r.group.faults(2).slow_cpu(r.group.engine().now() +
                               3 * r.group.config().failure_timeout);
  });
  ASSERT_TRUE(r.run_to_quiescence()) << r.group.engine().diagnostics();
  EXPECT_EQ(r.group.view().members, (std::vector<net::NodeId>{0, 1, 3}));
  r.expect_clean();
}

TEST(ChaosNamed, PredicateDelayOnScanLane) {
  // Per-predicate fault injection (named for the deficit scheduler and
  // scan lane it was written against): every fire of the deliver trigger pays +15µs of
  // compute for a 1ms window (a slow trigger — lock contention,
  // cache-hostile scan). Delivery lags but the virtual-synchrony contract
  // must hold, and since membership heartbeats live on each member's own
  // membership registry, no false suspicion may result.
  NamedRun r(4, 83, /*persistent=*/false);
  r.group.engine().schedule_fn(sim::micros(80), [&] {
    r.group.faults(1).predicate_delay(
        "deliver", r.group.engine().now() + sim::millis(1), sim::micros(15));
  });
  ASSERT_TRUE(r.run_to_quiescence()) << r.group.engine().diagnostics();
  EXPECT_EQ(r.group.epoch(), 0u) << "a slow deliver trigger must not "
                                    "provoke a view change";
  EXPECT_EQ(r.group.view().members.size(), 4u);
  r.expect_clean();
}

TEST(ChaosNamed, HeartbeatDelayProvokesSuspicion) {
  // A delay on a membership predicate holds that node's whole membership
  // round: each heartbeat fire charges 3 failure timeouts before its push
  // posts, so the peers see node 2's heartbeat stop and remove it, as
  // they remove a slow host.
  NamedRun r(4, 83, /*persistent=*/false);
  const sim::Nanos timeout = r.group.config().failure_timeout;
  r.group.engine().schedule_fn(sim::micros(80), [&] {
    r.group.faults(2).predicate_delay(
        "heartbeat", r.group.engine().now() + 5 * timeout, 3 * timeout);
  });
  r.group.engine().run_to(sim::millis(4));
  ASSERT_TRUE(r.run_to_quiescence()) << r.group.engine().diagnostics();
  EXPECT_EQ(r.group.view().members, (std::vector<net::NodeId>{0, 1, 3}));
  r.expect_clean();
}

TEST(ChaosNamed, HeartbeatDelaySurvivesTotalFailureRecovery) {
  // A delay window set on a crashed node still acts after the group
  // recovers from a total failure: the recovery rebuilds node 2's
  // membership scheduler with the open window, so the recovered group
  // removes node 2 once its heartbeats stall.
  NamedRun r(4, 89, /*persistent=*/true);
  core::ManagedGroup& group = r.group;
  const sim::Nanos timeout = group.config().failure_timeout;
  for (net::NodeId n = 0; n < 4; ++n) {
    group.engine().schedule_fn(sim::micros(150) + sim::micros(10) * n,
                               [&group, n] { group.crash(n); });
    group.engine().schedule_fn(sim::micros(1200) + sim::micros(80) * n,
                               [&group, n] { group.restart(n); });
  }
  group.engine().schedule_fn(sim::micros(400), [&] {
    group.faults(2).predicate_delay(
        "heartbeat", group.engine().now() + sim::millis(20), 3 * timeout);
  });
  ASSERT_TRUE(group.engine().run_until(
      [&] { return group.recoveries() >= 1; }, sim::millis(100)))
      << group.engine().diagnostics();
  EXPECT_EQ(group.view().members, (std::vector<net::NodeId>{0, 1, 2, 3}));
  group.engine().run_to(group.engine().now() + sim::millis(4));
  ASSERT_TRUE(r.run_to_quiescence()) << group.engine().diagnostics();
  EXPECT_EQ(group.view().members, (std::vector<net::NodeId>{0, 1, 3}));
  r.expect_clean();
}

TEST(ChaosNamed, CrashOnScanLane) {
  // The baseline crash regression on a second shape (named for the
  // deficit scheduler and scan lane it was written against): a view change
  // (wedge, trim, ack, install) with parking epoch clusters on both
  // sides of the install barrier.
  NamedRun r(5, 84, /*persistent=*/false);
  r.group.engine().schedule_fn(sim::micros(60), [&] { r.group.crash(1); });
  ASSERT_TRUE(r.run_to_quiescence()) << r.group.engine().diagnostics();
  EXPECT_EQ(r.group.view().members, (std::vector<net::NodeId>{0, 2, 3, 4}));
  r.expect_clean();
}

TEST(ChaosNamed, NicStallHealsWithoutSuspicion) {
  // An egress pause shorter than the failure timeout must heal invisibly:
  // no view change, nothing lost.
  NamedRun r(4, 82, /*persistent=*/false);
  r.group.engine().schedule_fn(sim::micros(100), [&] {
    r.group.fabric().pause_egress(1);
  });
  r.group.engine().schedule_fn(sim::micros(100) + sim::micros(150), [&] {
    r.group.fabric().resume_egress(1);
  });
  ASSERT_TRUE(r.run_to_quiescence()) << r.group.engine().diagnostics();
  EXPECT_EQ(r.group.epoch(), 0u);
  EXPECT_EQ(r.group.view().members.size(), 4u);
  r.expect_clean();
}

TEST(ChaosNamed, PostplanSendLaneDropHealsInvisibly) {
  // Hold back every post on one node's data-plane send lane for a window
  // well below the failure timeout: the quarantined actions are released
  // in their original order when the window expires, and nothing upstream
  // may notice — no suspicion, no view change, no contract violation.
  NamedRun r(4, 85, /*persistent=*/false);
  r.group.engine().schedule_fn(sim::micros(80), [&] {
    r.group.faults(1).postplan_drop(/*lane=*/0,
                                    r.group.engine().now() + sim::micros(150));
  });
  ASSERT_TRUE(r.run_to_quiescence()) << r.group.engine().diagnostics();
  EXPECT_EQ(r.group.epoch(), 0u);
  EXPECT_EQ(r.group.view().members.size(), 4u);
  r.expect_clean();
}

TEST(ChaosNamed, PostplanAckLaneDropOutlastsTimeoutWithoutSuspicion) {
  // One node's ack lane stalls for several failure timeouts. Acks gate
  // stability, so delivery backs up behind the window — but membership
  // heartbeats live on each member's own membership registry, so the stall
  // must NOT be mistaken for a crash. When the lane heals, the held acks post in
  // order and delivery drains.
  NamedRun r(4, 86, /*persistent=*/false);
  r.group.engine().schedule_fn(sim::micros(80), [&] {
    r.group.faults(2).postplan_drop(
        /*lane=*/1,
        r.group.engine().now() + 3 * r.group.config().failure_timeout);
  });
  ASSERT_TRUE(r.run_to_quiescence()) << r.group.engine().diagnostics();
  EXPECT_EQ(r.group.epoch(), 0u)
      << "a stalled data-plane lane must not provoke a view change";
  EXPECT_EQ(r.group.view().members.size(), 4u);
  r.expect_clean();
}

TEST(ChaosNamed, SpuriousEvalsBurnCpuWithoutBreakingContract) {
  // Phantom doorbells: one node's scheduler sees progress every round for
  // a 1ms window, charging extra evaluation time and suppressing idle
  // backoff. Throughput dips; correctness and membership must not.
  NamedRun r(4, 87, /*persistent=*/false);
  r.group.engine().schedule_fn(sim::micros(80), [&] {
    r.group.faults(1).spurious_eval(r.group.engine().now() + sim::millis(1),
                                    sim::micros(5));
  });
  ASSERT_TRUE(r.run_to_quiescence()) << r.group.engine().diagnostics();
  EXPECT_EQ(r.group.epoch(), 0u);
  EXPECT_EQ(r.group.view().members.size(), 4u);
  r.expect_clean();
}

TEST(ChaosNamed, TotalFailureEpisodeThroughInjector) {
  // A hand-written total-failure episode driven through the injector —
  // the same machinery the random sweep uses: all four nodes crash inside
  // 30µs, three restart, one stays dead. The group must recover onto the
  // longest common durable prefix and the episode-aware contract must
  // hold, with the dead sender contributing only its durable prefix.
  core::ManagedGroup::Config cfg;
  cfg.nodes = 4;
  cfg.seed = 88;
  core::ManagedGroup group(cfg, simple_layout(/*persistent=*/true));
  group.start();

  fault::VsyncChecker checker;
  checker.attach(group);

  fault::FaultPlan plan;
  plan.seed = 88;
  for (net::NodeId n = 0; n < 4; ++n) {
    fault::FaultEvent e;
    e.kind = fault::FaultKind::total_failure;
    e.node = n;
    e.at = sim::micros(150) + sim::micros(10) * n;
    plan.events.push_back(e);
  }
  for (net::NodeId n = 0; n < 3; ++n) {  // node 3 never comes back
    fault::FaultEvent e;
    e.kind = fault::FaultKind::restart;
    e.node = n;
    e.at = sim::micros(1200) + sim::micros(80) * n;
    plan.events.push_back(e);
  }
  fault::FaultInjector injector(group, plan);
  injector.arm();

  // Spread submissions so the crash catches traffic in flight and the
  // durable logs stop at genuinely ragged frontiers.
  const std::uint64_t msgs = 30;
  for (net::NodeId n = 0; n < 4; ++n) {
    for (std::uint64_t i = 0; i < msgs; ++i) {
      const std::uint64_t idx = checker.note_send(n, 0);
      group.engine().schedule_fn(
          static_cast<sim::Nanos>(i) * sim::micros(20), [&group, n, idx] {
            group.send(n, 0, fault::VsyncChecker::make_payload(n, idx, 64));
          });
    }
  }

  ASSERT_TRUE(group.engine().run_until(
      [&] { return group.recoveries() >= 1; }, sim::millis(100)))
      << group.engine().diagnostics();
  EXPECT_EQ(group.view().members, (std::vector<net::NodeId>{0, 1, 2}));
  EXPECT_EQ(checker.episodes(), 1u);
  ASSERT_TRUE(group.engine().run_until(
      [&] {
        return !group.view_change_in_progress() &&
               checker.check(group).empty();
      },
      group.engine().now() + sim::millis(200)))
      << group.engine().diagnostics();
  // The dead node's messages survive exactly up to the common durable
  // prefix — strictly fewer than it submitted.
  EXPECT_LT(checker.delivered_from(0, 0, 3), msgs);
}

TEST(ChaosNamed, SlowCpuWindowOpenAtTotalFailureRecoveryStallsTheNewEpoch) {
  // A slow-CPU window still open when a new epoch's data plane is built
  // stalls it: node 2 restarts after a total failure and is throttled for
  // less than the failure timeout, across the recovery install. No fresh
  // delivery (sent_at >= 0) may land until the window ends. The recovery
  // barrier runs on its own scheduler, so the install is not delayed.
  std::vector<sim::Nanos> fresh;  // when fresh deliveries landed
  sim::Nanos installed_at = -1;
  core::ManagedGroup::Config cfg;
  cfg.nodes = 4;
  cfg.seed = 89;
  core::ManagedGroup group(cfg, simple_layout(/*persistent=*/true));
  for (net::NodeId n = 0; n < 4; ++n) {
    group.set_delivery_handler(n, 0, [&](const core::Delivery& d) {
      if (d.sent_at >= 0) fresh.push_back(group.engine().now());
    });
  }
  group.add_recovery_observer([&](const core::ManagedGroup::RecoveryInfo&) {
    installed_at = group.engine().now();
  });
  group.start();
  for (net::NodeId n = 0; n < 4; ++n) {
    group.engine().schedule_fn(sim::micros(150) + sim::micros(10) * n,
                               [&group, n] { group.crash(n); });
    group.engine().schedule_fn(sim::micros(1200) + sim::micros(80) * n,
                               [&group, n] { group.restart(n); });
    // Queued while the group is down; sent in the recovery view.
    group.engine().schedule_fn(sim::micros(1600), [&group, n] {
      for (int i = 0; i < 10; ++i) {
        group.send(n, 0, std::vector<std::byte>(64));
      }
    });
  }
  // The last restart is at 1440 us; the recovery settles 800 us later.
  const sim::Nanos throttled_at = sim::micros(2100);
  const sim::Nanos window_end = throttled_at + sim::micros(350);
  ASSERT_LT(window_end - throttled_at, cfg.failure_timeout);
  group.engine().schedule_fn(throttled_at, [&] {
    group.faults(2).slow_cpu(window_end);
  });
  ASSERT_TRUE(group.engine().run_until(
      [&] {
        return group.recoveries() >= 1 && !fresh.empty() &&
               fresh.back() >= window_end;
      },
      sim::millis(20)))
      << group.engine().diagnostics();
  ASSERT_GT(installed_at, throttled_at);
  ASSERT_LT(installed_at, window_end) << "the window must span the install";
  for (const sim::Nanos t : fresh) {
    EXPECT_FALSE(t >= installed_at && t < window_end)
        << "fresh delivery at " << t << " ns inside the stalled epoch's "
        << "window [" << installed_at << ", " << window_end << ")";
  }
  EXPECT_EQ(group.view().members, (std::vector<net::NodeId>{0, 1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Host-fault table (net::HostFaults): a window of every kind set before
// start() acts, on a standalone Cluster and on a ManagedGroup alike.

constexpr net::NodeId kVictim = 1;             // also its sender rank
constexpr sim::Nanos kShortWindow = sim::micros(60);
constexpr sim::Nanos kSsdExtra = sim::micros(200);
constexpr sim::Nanos kDeliverExtra = sim::micros(5);

/// One window of a host-fault kind (none: the fault-free run).
using HostKind = std::optional<fault::FaultKind>;

void open_window(net::HostFaults& f, HostKind kind) {
  if (!kind) return;
  switch (*kind) {
    case fault::FaultKind::slow_cpu:
      f.slow_cpu(kShortWindow);
      break;
    case fault::FaultKind::ssd_fault:
      f.ssd_fault(sim::millis(1), kSsdExtra);
      break;
    case fault::FaultKind::predicate_delay:
      f.predicate_delay("deliver", sim::millis(1), kDeliverExtra);
      break;
    case fault::FaultKind::postplan_drop:
      f.postplan_drop(/*lane=*/0, kShortWindow);  // the send lane
      break;
    case fault::FaultKind::spurious_eval:
      f.spurious_eval(sim::millis(1), 200);
      break;
    default:
      FAIL() << "not a host fault: " << fault::to_string(*kind);
  }
}

/// What a 3-node persistent group, every member sending 4 messages at
/// t = 0, showed of the victim by 400 us.
struct HostObservation {
  sim::Nanos victim_delivered = -1;  // first delivery of a victim message
  sim::Nanos persisted = -1;         // first persistence-frontier advance
  sim::Nanos deliver_cpu = 0;        // the victim's deliver-predicate CPU
  int parked = 0;  // of 20 samples from 200 us: the victim's idle data
                   // plane waiting on its doorbell
};

/// Every member's delivery handler: notes the first victim message.
core::DeliveryHandler watch_deliveries(sim::Engine& eng, HostObservation& o) {
  return [&eng, &o](const core::Delivery& d) {
    if (d.sender == kVictim && o.victim_delivered < 0) {
      o.victim_delivered = eng.now();
    }
  };
}

void watch_persistence(core::Node& victim, core::SubgroupId sg,
                       sim::Engine& eng, HostObservation& o) {
  victim.set_persistence_handler(sg, [&eng, &o](std::int64_t) {
    if (o.persisted < 0) o.persisted = eng.now();
  });
}

void sample_parked(sim::Engine& eng, const sim::Signal& data_doorbell,
                   HostObservation& o) {
  for (int i = 0; i < 20; ++i) {
    eng.schedule_fn(sim::micros(200 + 10 * i), [&data_doorbell, &o] {
      if (data_doorbell.waiters() > 0) ++o.parked;
    });
  }
}

void read_deliver_cpu(const core::Node& victim, HostObservation& o) {
  victim.predicates()->visit([&o](const sst::Predicates::GroupOptions&,
                                  const sst::PredicateStats& p) {
    if (p.name == "deliver") o.deliver_cpu += p.cpu;
  });
}

HostObservation run_cluster_with(HostKind kind) {
  HostObservation o;  // outlives the cluster's handlers
  core::ClusterConfig cc;
  cc.nodes = 3;
  core::Cluster cluster(cc);
  core::ProtocolOptions opts = core::ProtocolOptions::spindle();
  opts.persistent = true;
  opts.max_msg_size = 64;
  const core::SubgroupId sg =
      cluster.create_subgroup({"faults", {0, 1, 2}, {0, 1, 2}, opts});
  open_window(cluster.fabric().host(kVictim), kind);
  cluster.start();
  watch_persistence(cluster.node(kVictim), sg, cluster.engine(), o);
  for (net::NodeId n = 0; n < 3; ++n) {
    cluster.node(n).set_delivery_handler(sg,
                                         watch_deliveries(cluster.engine(), o));
    cluster.engine().spawn([](core::Cluster* c, net::NodeId id,
                              core::SubgroupId g) -> sim::Co<> {
      for (int i = 0; i < 4; ++i) {
        co_await c->node(id).send(g, 64, [](std::span<std::byte>) {});
      }
    }(&cluster, n, sg));
  }
  sample_parked(cluster.engine(), cluster.fabric().doorbell(kVictim), o);
  cluster.run_to(sim::micros(400));
  read_deliver_cpu(cluster.node(kVictim), o);
  return o;
}

HostObservation run_group_with(HostKind kind) {
  HostObservation o;  // outlives the group's handlers
  core::ManagedGroup::Config cfg;
  cfg.nodes = 3;
  cfg.seed = 5;
  core::ManagedGroup group(cfg, simple_layout(/*persistent=*/true));
  open_window(group.faults(kVictim), kind);
  for (net::NodeId n = 0; n < 3; ++n) {
    group.set_delivery_handler(n, 0, watch_deliveries(group.engine(), o));
  }
  group.start();
  watch_persistence(group.cluster().node(kVictim), /*sg=*/0, group.engine(),
                    o);
  for (net::NodeId n = 0; n < 3; ++n) {
    for (int i = 0; i < 4; ++i) group.send(n, 0, std::vector<std::byte>(64));
  }
  sample_parked(group.engine(), group.fabric().doorbell(kVictim), o);
  group.engine().run_to(sim::micros(400));
  EXPECT_EQ(group.epoch(), 0u) << "no window here outlasts the timeout";
  read_deliver_cpu(group.cluster().node(kVictim), o);
  return o;
}

/// Each kind against the fault-free run of the same group.
void expect_pre_start_windows_act(HostObservation (*run)(HostKind)) {
  const HostObservation base = run(std::nullopt);
  ASSERT_GE(base.victim_delivered, 0);
  ASSERT_LT(base.victim_delivered, kShortWindow);
  ASSERT_GE(base.persisted, 0);
  ASSERT_LT(base.persisted, kSsdExtra);
  ASSERT_GE(base.parked, 10) << "the idle data plane backs off";

  // Slow CPU: the victim neither sends nor acknowledges in the window.
  EXPECT_GE(run(fault::FaultKind::slow_cpu).victim_delivered, kShortWindow);
  // Lane drop: the victim's send lane posts nothing in the window.
  EXPECT_GE(run(fault::FaultKind::postplan_drop).victim_delivered, kShortWindow);
  // SSD: the victim's first flush pays the extra latency.
  EXPECT_GE(run(fault::FaultKind::ssd_fault).persisted, kSsdExtra);
  // Predicate delay: each deliver fire pays the extra compute.
  EXPECT_GE(run(fault::FaultKind::predicate_delay).deliver_cpu,
            base.deliver_cpu + kDeliverExtra);
  // Spurious evals: the idle victim never backs off onto its doorbell.
  EXPECT_EQ(run(fault::FaultKind::spurious_eval).parked, 0);
}

TEST(HostFaults, PreStartWindowsActOnAStandaloneCluster) {
  expect_pre_start_windows_act(run_cluster_with);
}

TEST(HostFaults, PreStartWindowsActOnAManagedGroup) {
  expect_pre_start_windows_act(run_group_with);
}

TEST(HostFaults, WatchdogDumpShowsOpenWindows) {
  // The watchdog dump (engine().diagnostics(), which a stalled chaos seed
  // writes into its replay file) lists each node's open fault windows.
  core::ManagedGroup::Config cfg;
  cfg.nodes = 3;
  core::ManagedGroup group(cfg, simple_layout(/*persistent=*/false));
  net::HostFaults& f = group.faults(1);
  f.slow_cpu(sim::micros(100));
  f.ssd_fault(sim::millis(1), 5000);
  f.predicate_delay("heartbeat", sim::millis(1), 1000);
  f.postplan_drop(/*lane=*/1, sim::millis(1));
  f.spurious_eval(sim::millis(1), 300);
  group.start();
  group.engine().run_to(sim::micros(50));
  const std::string open = group.engine().diagnostics();
  EXPECT_NE(open.find("node1: "), std::string::npos) << open;
  EXPECT_NE(open.find("faults{slow_cpu until=100000ns; "
                      "ssd_fault until=1000000ns extra=5000ns; "
                      "predicate_delay pred=heartbeat until=1000000ns "
                      "extra=1000ns; "
                      "postplan_drop lane=1 until=1000000ns; "
                      "spurious_eval until=1000000ns extra=300ns}"),
            std::string::npos)
      << open;
  EXPECT_EQ(open.find("slow_cpu", open.find("node2: ")), std::string::npos)
      << "only node 1 has open windows:\n"
      << open;

  // Expired windows drop out of the dump.
  group.engine().run_to(sim::millis(2));
  const std::string closed = group.engine().diagnostics();
  EXPECT_EQ(closed.find("slow_cpu"), std::string::npos) << closed;
  EXPECT_EQ(closed.find("predicate_delay"), std::string::npos) << closed;
  EXPECT_NE(closed.find("faults{}"), std::string::npos) << closed;
}

}  // namespace
}  // namespace spindle
