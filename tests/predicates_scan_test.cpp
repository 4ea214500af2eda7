// Scan-lane tests (ctest -L scan_lane): the reactive scheduler's starvation
// bound (a demoted cold group is still probed within its scan_interval),
// the quiet rule (a group that keeps becoming ready never demotes), the
// promotion paths (doorbell wake from quiescence, rearm at a view
// install), the reactive idle-backoff rearm fix, the per-predicate
// fault-injection hook, and the cluster-level wiring
// (ClusterConfig::scan_interval -> per-subgroup sched counters in stats()).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/mutex.hpp"
#include "sst/predicates.hpp"
#include "workload/experiment.hpp"

namespace spindle::sst {
namespace {

/// One reactive scheduler with a doorbell, so the promotion and
/// backoff-kick paths are exercisable, reading its own host-fault table.
struct Harness {
  sim::Engine engine;
  sim::Signal doorbell{engine};
  net::HostFaults faults;
  Predicates preds{engine};
  bool stop = false;

  explicit Harness(sim::Nanos pause = 100) {
    Predicates::SchedulerConfig cfg;
    cfg.stopped = [this] { return stop; };
    cfg.faults = &faults;
    cfg.iteration_pause = [pause] { return pause; };
    cfg.doorbell = &doorbell;
    cfg.idle_backoff_min = 1000;
    cfg.idle_backoff_max = sim::millis(1);
    preds.configure(std::move(cfg));
  }
  void run_for(sim::Nanos t) {
    engine.spawn(preds.run());
    engine.run_to(t);
    stop = true;
    engine.run();
  }
};

Predicates::GroupOptions lane(const char* name, sim::Nanos scan_interval) {
  Predicates::GroupOptions g;
  g.name = name;
  g.scan_interval = scan_interval;
  return g;
}

TEST(PredicatesScan, ColdGroupServicedWithinScanIntervalBound) {
  // A saturating hot group and a never-firing cold group: the cold group
  // must demote onto the scan lane (it stops paying a slot every round)
  // yet still be probed within scan_interval + one round.
  constexpr sim::Nanos kScan = sim::micros(20);
  Harness h;
  const auto hot = h.preds.add_group(lane("hot", 0));
  const auto cold = h.preds.add_group(lane("cold", kScan));
  h.preds.add(hot, {"saturate", PredicateClass::recurrent, nullptr,
                    [](TriggerContext& ctx) {
                      ctx.work += 2000;
                      return true;
                    }});
  std::vector<sim::Nanos> cold_evals;
  h.preds.add(cold, {"cold_guard", PredicateClass::recurrent,
                     [&] {
                       cold_evals.push_back(h.engine.now());
                       return false;
                     },
                     [](TriggerContext&) { return true; }});
  h.run_for(sim::millis(5));

  ASSERT_GE(h.preds.group_sched(cold).demotions, 1u)
      << "a never-firing group must land on the scan lane";
  ASSERT_GE(cold_evals.size(), 3u);
  // Max round length: hot fire (2000ns) + pause; be generous.
  constexpr sim::Nanos kSlack = sim::micros(10);
  sim::Nanos max_gap = 0;
  for (std::size_t i = 1; i < cold_evals.size(); ++i) {
    max_gap = std::max(max_gap, cold_evals[i] - cold_evals[i - 1]);
  }
  EXPECT_LE(max_gap, kScan + kSlack) << "starvation bound violated";
  // Demotion must actually thin the probes: the widest gap observed should
  // be on the order of the scan interval, not the per-round cadence.
  EXPECT_GE(max_gap, kScan / 2) << "cold group was never demoted from the "
                                   "per-round sweep";
  // And the hot group gets the overwhelming share of services.
  EXPECT_GT(h.preds.group_sched(hot).serviced,
            4 * h.preds.group_sched(cold).serviced);
}

TEST(PredicatesScan, PeriodicGroupNeverDemotesWhileTicking) {
  // A busy peer plus a group that becomes ready every 100us on a 500us
  // lane. Each tick goes quiet for far more than 8 fast rounds, but never
  // for a whole scan_interval, so the quiet rule must keep the group in
  // the rotation: every tick fires within one round of becoming ready. A
  // demoted group would sit out up to 500us and miss ticks.
  constexpr sim::Nanos kPause = 100;
  constexpr sim::Nanos kPeerWork = 200;
  constexpr sim::Nanos kRound = kPeerWork + kPause;
  constexpr sim::Nanos kTick = sim::micros(100);
  constexpr int kTicks = 40;
  Harness h(kPause);
  const auto peer = h.preds.add_group(lane("peer", sim::micros(500)));
  const auto periodic = h.preds.add_group(lane("periodic", sim::micros(500)));
  h.preds.add(peer, {"busy", PredicateClass::recurrent, nullptr,
                     [](TriggerContext& ctx) {
                       ctx.work += kPeerWork;
                       return true;
                     }});
  sim::Nanos ready_at = -1;  // pending tick's readiness time, -1 if none
  std::vector<sim::Nanos> lag;
  h.preds.add(periodic, {"tick", PredicateClass::recurrent,
                         [&] { return ready_at >= 0; },
                         [&](TriggerContext&) {
                           lag.push_back(h.engine.now() - ready_at);
                           ready_at = -1;
                           return true;
                         }});
  for (int i = 1; i <= kTicks; ++i) {
    h.engine.schedule_fn(i * kTick, [&] { ready_at = h.engine.now(); });
  }
  std::uint64_t demotions_while_ticking = 1;
  h.engine.schedule_fn(kTicks * kTick + kRound, [&] {
    demotions_while_ticking = h.preds.group_sched(periodic).demotions;
  });
  h.run_for(sim::millis(5));

  EXPECT_EQ(demotions_while_ticking, 0u)
      << "a group idle for less than its scan_interval must not demote";
  ASSERT_EQ(lag.size(), static_cast<std::size_t>(kTicks))
      << "ticks were missed";
  for (sim::Nanos l : lag) EXPECT_LE(l, kRound);
}

TEST(PredicatesScan, DoorbellWakePromotesDemotedGroupFromQuiescence) {
  // All-quiet scheduler: the only group demotes onto a very slow scan lane
  // (50ms) once it has been fire-free that long, and the scheduler falls
  // into doorbell backoff. A doorbell ring at T, past the demotion, must
  // promote the group and service it promptly — not after the residual
  // backoff or the next 50ms probe.
  Harness h;
  const auto g = h.preds.add_group(lane("lazy", sim::millis(50)));
  bool ready = false;
  sim::Nanos fired_at = -1;
  h.preds.add(g, {"wake", PredicateClass::recurrent, [&] { return ready; },
                  [&](TriggerContext& ctx) {
                    if (fired_at < 0) fired_at = h.engine.now();
                    ctx.work += 100;
                    return true;
                  }});
  const sim::Nanos kT = sim::millis(55);
  bool demoted_at_ring = false;
  h.engine.schedule_fn(kT, [&] {
    demoted_at_ring = h.preds.group_sched(g).demoted;
    ready = true;
    h.doorbell.signal();
  });
  h.run_for(sim::millis(57));

  ASSERT_TRUE(demoted_at_ring);
  ASSERT_GE(fired_at, kT);
  EXPECT_LE(fired_at, kT + sim::micros(5))
      << "doorbell ring from quiescence must promote and service promptly";
}

TEST(PredicatesScan, RearmPromotesDemotedOneTime) {
  // A one_time predicate fires once and its group goes quiet and, after a
  // 50ms lane's worth of quiet, demoted. rearm() alone (no doorbell
  // traffic, no scan-lane deadline for a long while) must promote the
  // group and re-fire it.
  Harness h;
  const auto g = h.preds.add_group(lane("epoch", sim::millis(50)));
  std::vector<sim::Nanos> fires;
  const auto p = h.preds.add(g, {"install", PredicateClass::one_time,
                                 [] { return true; },
                                 [&](TriggerContext& ctx) {
                                   fires.push_back(h.engine.now());
                                   ctx.work += 100;
                                   return true;
                                 }});
  const sim::Nanos kT = sim::millis(55);
  bool demoted_at_rearm = false;
  h.engine.schedule_fn(kT, [&] {
    demoted_at_rearm = h.preds.group_sched(g).demoted;
    h.preds.rearm(p);
  });
  h.run_for(sim::millis(57));

  ASSERT_TRUE(demoted_at_rearm);
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_LE(fires[1], kT + sim::micros(5))
      << "rearm must cut the backoff and promote the demoted group";
}

TEST(PredicatesReactive, RearmAllCutsIdleBackoffShort) {
  // Regression: a one_time predicate re-armed at a view install used to
  // wait out the scheduler's remaining idle backoff (up to
  // idle_backoff_max). The rearm kick — doorbell signal + idle-streak
  // reset — must get it evaluated promptly.
  Harness h;
  const auto g = h.preds.add_group({});
  std::vector<sim::Nanos> fires;
  h.preds.add(g, {"barrier", PredicateClass::one_time,
                  [] { return true; },
                  [&](TriggerContext&) {
                    fires.push_back(h.engine.now());
                    return true;
                  }});
  // By 2.5ms the scheduler idles in 1ms doorbell waits; rearm mid-wait.
  const sim::Nanos kT = sim::millis(2) + sim::micros(500);
  h.engine.schedule_fn(kT, [&] { h.preds.rearm_all(); });
  h.run_for(sim::millis(5));

  ASSERT_EQ(fires.size(), 2u);
  EXPECT_LE(fires[1], kT + sim::micros(50))
      << "re-armed predicate waited out the idle backoff";
}

TEST(PredicatesFault, InjectedDelayChargesExtraComputeOnFires) {
  Harness h;
  const auto g = h.preds.add_group({});
  int budget = 3;
  const auto slow = h.preds.add(g, {"victim", PredicateClass::recurrent,
                                    [&] { return budget > 0; },
                                    [&](TriggerContext& ctx) {
                                      --budget;
                                      ctx.work += 10;
                                      return true;
                                    }});
  int other_budget = 2;
  const auto fast = h.preds.add(g, {"bystander", PredicateClass::recurrent,
                                    [&] { return other_budget > 0; },
                                    [&](TriggerContext& ctx) {
                                      --other_budget;
                                      ctx.work += 10;
                                      return true;
                                    }});
  h.faults.predicate_delay("victim", sim::millis(1), 500);
  h.run_for(sim::millis(5));
  // Every fire inside the window pays the extra; quiet evals and other
  // predicates do not.
  EXPECT_EQ(h.preds.stats(slow).cpu, 3 * (10 + 500));
  EXPECT_EQ(h.preds.stats(fast).cpu, 2 * 10);
}

TEST(PredicatesFault, ExpiredDelayWindowIsInert) {
  Harness h;
  const auto g = h.preds.add_group({});
  bool armed = false;
  const auto p = h.preds.add(g, {"late", PredicateClass::recurrent,
                                 [&] { return armed; },
                                 [&](TriggerContext& ctx) {
                                   armed = false;
                                   ctx.work += 10;
                                   return true;
                                 }});
  h.faults.predicate_delay("late", sim::micros(10), 5000);
  // Fire only after the window has closed.
  h.engine.schedule_fn(sim::micros(50), [&] {
    armed = true;
    h.doorbell.signal();
  });
  h.run_for(sim::millis(1));
  EXPECT_EQ(h.preds.stats(p).fires, 1u);
  EXPECT_EQ(h.preds.stats(p).cpu, 10);
}

TEST(PredicatesFault, LaneDropOpenedDuringComputeHoldsThatRoundsPosts) {
  // A lane-drop window is judged at the instant the group's service
  // began: one opened while the round sleeps its compute holds that
  // round's posts, even one that closes again before the post phase. The
  // held action issues at the next round's release.
  for (const sim::Nanos until : {sim::Nanos{700}, sim::Nanos{5000}}) {
    Harness h;
    const auto g = h.preds.add_group({});
    bool armed = true;
    sim::Nanos issued_at = -1;
    h.preds.add(g, {"post", PredicateClass::recurrent, [&] { return armed; },
                    [&](TriggerContext& ctx) {
                      armed = false;
                      ctx.work += 1000;
                      ctx.plan.add(2, [&] {
                        issued_at = h.engine.now();
                        return sim::Nanos{0};
                      });
                      return true;
                    }});
    h.engine.schedule_fn(500, [&] { h.faults.postplan_drop(2, until); });
    h.run_for(sim::millis(1));
    EXPECT_GT(issued_at, 1000) << "window until " << until;
    EXPECT_GE(issued_at, until);
  }
}

TEST(PredicatesScan, ClusterDeliversIdenticallyAndExportsSchedCounters) {
  // End-to-end wiring: the same workload on the full lap and on the
  // cluster's default scan lane must deliver the same messages; on the
  // lane the stats() drill-down must expose the per-subgroup scheduler
  // counters (hot subgroup serviced, cold subgroups demoted).
  workload::ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.subgroups = 5;
  cfg.active_subgroups = 1;
  cfg.messages_per_sender = 40;
  cfg.message_size = 256;
  cfg.opts.max_msg_size = 256;
  cfg.opts.window_size = 8;
  cfg.seed = 7;

  cfg.scan_interval = 0;
  const auto lap = workload::run_experiment(cfg);
  cfg.scan_interval = core::ClusterConfig{}.scan_interval;
  const auto scan = workload::run_experiment(cfg);

  ASSERT_TRUE(lap.completed);
  ASSERT_TRUE(scan.completed);
  EXPECT_EQ(lap.stats.total.messages_delivered,
            scan.stats.total.messages_delivered);
  EXPECT_GT(scan.stats.total.messages_delivered, 0u);

  const auto* hot = scan.stats.subgroup(0);
  ASSERT_NE(hot, nullptr);
  EXPECT_GT(hot->sched_serviced, 0u);
  EXPECT_EQ(hot->sched_demotions, 0u);
  std::uint64_t cold_demotions = 0;
  for (const auto& s : scan.stats.subgroups) {
    if (s.id != 0) cold_demotions += s.sched_demotions;
  }
  EXPECT_GT(cold_demotions, 0u)
      << "idle subgroups should land on the scan lane";
  // The full lap never demotes.
  for (const auto& s : lap.stats.subgroups) {
    EXPECT_GT(s.sched_serviced, 0u);
    EXPECT_EQ(s.sched_demotions, 0u);
  }
}

}  // namespace
}  // namespace spindle::sst
