// DRR-discipline tests (ctest -L drr): the deficit-weighted scheduler's
// fairness contract (CPU shares converge to the weight ratio), its
// starvation bound (a demoted cold group is still probed within its
// scan_interval), the promotion paths (doorbell wake from quiescence,
// rearm at a view install), the reactive idle-backoff rearm fix, the
// per-predicate fault-injection hook, and the cluster-level wiring
// (ClusterConfig::discipline -> per-subgroup sched counters in stats()).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/engine.hpp"
#include "sim/mutex.hpp"
#include "sst/predicates.hpp"
#include "workload/experiment.hpp"

namespace spindle::sst {
namespace {

/// One scheduler under the chosen discipline, with a doorbell so the
/// promotion and backoff-kick paths are exercisable.
struct Harness {
  sim::Engine engine;
  sim::Signal doorbell{engine};
  Predicates preds{engine};
  bool stop = false;

  explicit Harness(Discipline d, sim::Nanos pause = 100) {
    Predicates::SchedulerConfig cfg;
    cfg.stopped = [this] { return stop; };
    cfg.discipline = d;
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

Predicates::GroupOptions weighted(const char* name, std::uint32_t weight,
                                  sim::Nanos scan_interval) {
  Predicates::GroupOptions g;
  g.name = name;
  g.weight = weight;
  g.scan_interval = scan_interval;
  return g;
}

TEST(PredicatesDrr, CpuShareConvergesToWeightRatio) {
  // Two always-busy groups, weights 3:1, identical per-fire cost. Over a
  // contended interval the scheduler must hand group A three times group
  // B's CPU — the property strict-RR cannot provide (it converges to 1:1).
  Harness h(Discipline::drr);
  const auto ga = h.preds.add_group(weighted("a", 3, 0));
  const auto gb = h.preds.add_group(weighted("b", 1, 0));
  const auto pa = h.preds.add(ga, {"busy_a", PredicateClass::recurrent,
                                   nullptr, [](TriggerContext& ctx) {
                                     ctx.work += 5000;
                                     return true;
                                   }});
  const auto pb = h.preds.add(gb, {"busy_b", PredicateClass::recurrent,
                                   nullptr, [](TriggerContext& ctx) {
                                     ctx.work += 5000;
                                     return true;
                                   }});
  h.run_for(sim::millis(20));
  const double cpu_a = static_cast<double>(h.preds.stats(pa).cpu);
  const double cpu_b = static_cast<double>(h.preds.stats(pb).cpu);
  ASSERT_GT(cpu_b, 0);
  EXPECT_NEAR(cpu_a / cpu_b, 3.0, 0.75)
      << "cpu_a=" << cpu_a << " cpu_b=" << cpu_b;
}

TEST(PredicatesDrr, PredicateWeightScalesCpuShareWithinEqualGroups) {
  // Two equal-weight groups, one always-busy predicate each, identical
  // per-fire cost — but group A's predicate carries per-predicate weight 4,
  // so its compute debits the group's deficit at a quarter of its real
  // cost. Charges converge 1:1 under contention, hence real CPU converges
  // to the predicate-weight ratio. The cross-shard sequencer's grant
  // predicate runs at weight 4 (core/domain.cpp).
  Harness h(Discipline::drr);
  const auto ga = h.preds.add_group(weighted("a", 1, 0));
  const auto gb = h.preds.add_group(weighted("b", 1, 0));
  const auto pa = h.preds.add(ga, {"hot_grant", PredicateClass::recurrent,
                                   nullptr,
                                   [](TriggerContext& ctx) {
                                     ctx.work += 5000;
                                     return true;
                                   },
                                   4});
  const auto pb = h.preds.add(gb, {"peer", PredicateClass::recurrent, nullptr,
                                   [](TriggerContext& ctx) {
                                     ctx.work += 5000;
                                     return true;
                                   }});
  h.run_for(sim::millis(20));
  const double cpu_a = static_cast<double>(h.preds.stats(pa).cpu);
  const double cpu_b = static_cast<double>(h.preds.stats(pb).cpu);
  ASSERT_GT(cpu_b, 0);
  EXPECT_NEAR(cpu_a / cpu_b, 4.0, 1.0)
      << "cpu_a=" << cpu_a << " cpu_b=" << cpu_b;
}

TEST(PredicatesDrr, ColdGroupServicedWithinScanIntervalBound) {
  // A saturating hot group and a never-firing minimum-weight cold group:
  // the cold group must demote onto the scan lane (it stops paying a slot
  // every round) yet still be probed within scan_interval + one round.
  constexpr sim::Nanos kScan = sim::micros(20);
  Harness h(Discipline::drr);
  const auto hot = h.preds.add_group(weighted("hot", 4, 0));
  const auto cold = h.preds.add_group(weighted("cold", 1, kScan));
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

TEST(PredicatesDrr, DoorbellWakePromotesDemotedGroupFromQuiescence) {
  // All-quiet scheduler: the only group demotes onto a very slow scan lane
  // (50ms), the scheduler falls into doorbell backoff. A doorbell ring at
  // T must promote the group and service it promptly — not after the
  // residual backoff or the next 50ms probe.
  Harness h(Discipline::drr);
  const auto g = h.preds.add_group(weighted("lazy", 1, sim::millis(50)));
  bool ready = false;
  sim::Nanos fired_at = -1;
  h.preds.add(g, {"wake", PredicateClass::recurrent, [&] { return ready; },
                  [&](TriggerContext& ctx) {
                    if (fired_at < 0) fired_at = h.engine.now();
                    ctx.work += 100;
                    return true;
                  }});
  const sim::Nanos kT = sim::millis(2);
  h.engine.schedule_fn(kT, [&] {
    ready = true;
    h.doorbell.signal();
  });
  h.run_for(sim::millis(4));

  ASSERT_GE(h.preds.group_sched(g).demotions, 1u);
  ASSERT_GE(fired_at, kT);
  EXPECT_LE(fired_at, kT + sim::micros(5))
      << "doorbell ring from quiescence must promote and service promptly";
}

TEST(PredicatesDrr, RearmPromotesDemotedOneTime) {
  // DRR + one_time: after the predicate fires once and the group goes
  // quiet/demoted, rearm() alone (no doorbell traffic, no scan-lane
  // deadline for a long while) must promote the group and re-fire it.
  Harness h(Discipline::drr);
  const auto g = h.preds.add_group(weighted("epoch", 1, sim::millis(50)));
  std::vector<sim::Nanos> fires;
  const auto p = h.preds.add(g, {"install", PredicateClass::one_time,
                                 [] { return true; },
                                 [&](TriggerContext& ctx) {
                                   fires.push_back(h.engine.now());
                                   ctx.work += 100;
                                   return true;
                                 }});
  const sim::Nanos kT = sim::millis(2);
  h.engine.schedule_fn(kT, [&] { h.preds.rearm(p); });
  h.run_for(sim::millis(4));

  ASSERT_EQ(fires.size(), 2u);
  EXPECT_LE(fires[1], kT + sim::micros(5))
      << "rearm must cut the backoff and promote the demoted group";
}

TEST(PredicatesReactive, RearmAllCutsIdleBackoffShort) {
  // Regression (strict-RR): a one_time predicate re-armed at a view
  // install used to wait out the scheduler's remaining idle backoff (up to
  // idle_backoff_max). The rearm kick — doorbell signal + idle-streak
  // reset — must get it evaluated promptly.
  Harness h(Discipline::strict_rr);
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
  Harness h(Discipline::strict_rr);
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
  h.preds.inject_delay("victim", sim::millis(1), 500);
  h.run_for(sim::millis(5));
  // Every fire inside the window pays the extra; quiet evals and other
  // predicates do not.
  EXPECT_EQ(h.preds.stats(slow).cpu, 3 * (10 + 500));
  EXPECT_EQ(h.preds.stats(fast).cpu, 2 * 10);
}

TEST(PredicatesFault, ExpiredDelayWindowIsInert) {
  Harness h(Discipline::strict_rr);
  const auto g = h.preds.add_group({});
  bool armed = false;
  const auto p = h.preds.add(g, {"late", PredicateClass::recurrent,
                                 [&] { return armed; },
                                 [&](TriggerContext& ctx) {
                                   armed = false;
                                   ctx.work += 10;
                                   return true;
                                 }});
  h.preds.inject_delay("late", sim::micros(10), 5000);
  // Fire only after the window has closed.
  h.engine.schedule_fn(sim::micros(50), [&] {
    armed = true;
    h.doorbell.signal();
  });
  h.run_for(sim::millis(1));
  EXPECT_EQ(h.preds.stats(p).fires, 1u);
  EXPECT_EQ(h.preds.stats(p).cpu, 10);
}

TEST(PredicatesDrr, ClusterDeliversIdenticallyAndExportsSchedCounters) {
  // End-to-end wiring: same workload under both disciplines must deliver
  // the same messages; under drr the stats() drill-down must expose the
  // per-subgroup scheduler counters (hot subgroup serviced, cold subgroups
  // demoted).
  workload::ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.subgroups = 5;
  cfg.active_subgroups = 1;
  cfg.messages_per_sender = 40;
  cfg.message_size = 256;
  cfg.opts.max_msg_size = 256;
  cfg.opts.window_size = 8;
  cfg.seed = 7;

  cfg.discipline = Discipline::strict_rr;
  const auto rr = workload::run_experiment(cfg);
  cfg.discipline = Discipline::drr;
  const auto drr = workload::run_experiment(cfg);

  ASSERT_TRUE(rr.completed);
  ASSERT_TRUE(drr.completed);
  EXPECT_EQ(rr.stats.total.messages_delivered,
            drr.stats.total.messages_delivered);
  EXPECT_GT(drr.stats.total.messages_delivered, 0u);

  const auto* hot = drr.stats.subgroup(0);
  ASSERT_NE(hot, nullptr);
  EXPECT_GT(hot->sched_serviced, 0u);
  std::uint64_t cold_demotions = 0;
  for (const auto& s : drr.stats.subgroups) {
    if (s.id != 0) cold_demotions += s.sched_demotions;
  }
  EXPECT_GT(cold_demotions, 0u)
      << "idle subgroups should land on the scan lane";
  // Strict-RR never demotes and never counts DRR services.
  for (const auto& s : rr.stats.subgroups) {
    EXPECT_EQ(s.sched_demotions, 0u);
    EXPECT_EQ(s.sched_serviced, 0u);
  }
}

}  // namespace
}  // namespace spindle::sst
