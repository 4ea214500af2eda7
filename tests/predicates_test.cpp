// Unit tests for the sst::Predicates framework (ctest -L predicate): the
// PostPlan lane contract, predicate firing, per-predicate accounting, and
// the scheduler loop. The
// protocol-level behaviour lock (the ported data plane and view layer must
// be bit-identical to the monolith) lives in determinism_lock_test.cpp.

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/mutex.hpp"
#include "sst/predicates.hpp"

namespace spindle::sst {
namespace {

TEST(PostPlan, IssuesInLaneThenInsertionOrder) {
  PostPlan plan;
  std::vector<int> order;
  plan.add(2, [&] { order.push_back(20); return sim::Nanos{5}; });
  plan.add(0, [&] { order.push_back(1); return sim::Nanos{10}; });
  plan.add(1, [&] { order.push_back(10); return sim::Nanos{20}; });
  plan.add(0, [&] { order.push_back(2); return sim::Nanos{40}; });
  EXPECT_EQ(plan.actions(), 4u);
  const sim::Nanos post = plan.issue();
  EXPECT_EQ(post, 75);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 20}));
  EXPECT_TRUE(plan.empty());  // issue() consumes the plan
}

TEST(PostPlan, ClearResetsArg) {
  PostPlan plan;
  plan.set_arg(42);
  plan.add(0, [] { return sim::Nanos{1}; });
  plan.clear();
  EXPECT_EQ(plan.arg(), 0u);
  EXPECT_TRUE(plan.empty());
}

/// Harness: one reactive scheduler, no lock, fixed per-round pause so the
/// round cadence is easy to reason about in virtual time.
struct Harness {
  sim::Engine engine;
  Predicates preds{engine};
  bool stop = false;

  explicit Harness(sim::Nanos pause = 100) {
    Predicates::SchedulerConfig cfg;
    cfg.stopped = [this] { return stop; };
    cfg.iteration_pause = [pause] { return pause; };
    cfg.idle_backoff_min = 1000;
    cfg.idle_backoff_max = 8000;
    preds.configure(std::move(cfg));
  }
  void run_for(sim::Nanos t) {
    engine.spawn(preds.run());
    engine.run_to(t);
    stop = true;
    engine.run();
  }
};

TEST(Predicates, RecurrentFiresWheneverConditionHolds) {
  Harness h;
  const auto g = h.preds.add_group({});
  int budget = 3;
  const auto p = h.preds.add(
      g, {"drain", [&] { return budget > 0; },
          [&](TriggerContext& ctx) {
            --budget;
            ctx.work += 7;
            return true;
          }});
  h.run_for(sim::micros(100));
  EXPECT_EQ(budget, 0);
  EXPECT_EQ(h.preds.stats(p).fires, 3u);
  EXPECT_EQ(h.preds.stats(p).cpu, 21);
  EXPECT_GT(h.preds.stats(p).evals, h.preds.stats(p).fires);
}

TEST(Predicates, DisabledGroupContributesNothing) {
  Harness h;
  bool enabled = false;
  Predicates::GroupOptions g;
  g.enabled = [&] { return enabled; };
  const auto gid = h.preds.add_group(std::move(g));
  const auto p = h.preds.add(gid, {"gated",
                                   nullptr, [&](TriggerContext& ctx) {
                                     ctx.work += 5;
                                     return true;
                                   }});
  h.engine.spawn(h.preds.run());
  h.engine.run_to(sim::micros(5));
  EXPECT_EQ(h.preds.stats(p).evals, 0u);
  EXPECT_EQ(h.preds.stats(p).cpu, 0);
  enabled = true;
  h.engine.run_to(sim::micros(10));
  EXPECT_GT(h.preds.stats(p).fires, 0u);
  h.stop = true;
  h.engine.run();
}

TEST(Predicates, ReactiveRoundSleepsComputeThenPost) {
  // One firing round: the trigger charges 30ns compute and plans a 50ns
  // post. The scheduler must sleep the compute cost before issuing the plan
  // and the post cost after, so the post lands at round_start + 30.
  Harness h(/*pause=*/0);
  const auto g = h.preds.add_group({});
  bool once = false;
  sim::Nanos posted_at = -1;
  h.preds.add(g, {"timed", [&] { return !once; },
                  [&](TriggerContext& ctx) {
                    once = true;
                    ctx.work += 30;
                    ctx.plan.add(0, [&] {
                      posted_at = h.engine.now();
                      return sim::Nanos{50};
                    });
                    return true;
                  }});
  h.engine.spawn(h.preds.run());
  h.engine.run_to(sim::micros(1));
  EXPECT_EQ(posted_at, 30);
  h.stop = true;
  h.engine.run();
}

TEST(Predicates, ReactiveEarlyReleaseUnlocksBeforePost) {
  sim::Engine engine;
  sim::Mutex mutex(engine);
  Predicates preds(engine);
  bool stop = false;
  Predicates::SchedulerConfig cfg;
  cfg.stopped = [&] { return stop; };
  cfg.iteration_pause = [] { return sim::Nanos{10}; };
  preds.configure(std::move(cfg));

  Predicates::GroupOptions g;
  g.lock = &mutex;
  g.early_release = true;
  const auto gid = preds.add_group(std::move(g));
  bool once = false;
  bool locked_during_post = true;
  preds.add(gid, {"early", [&] { return !once; },
                  [&](TriggerContext& ctx) {
                    once = true;
                    ctx.work += 5;
                    ctx.plan.add(0, [&] {
                      locked_during_post = mutex.locked();
                      return sim::Nanos{5};
                    });
                    return true;
                  }});
  engine.spawn(preds.run());
  engine.run_to(sim::micros(1));
  EXPECT_FALSE(locked_during_post) << "§3.4: post must run after unlock";
  stop = true;
  engine.run();
}

TEST(Predicates, DeadlineSetsTheCadence) {
  // A predicate that holds only when due, 1100 ns after its last fire: the
  // quiescent wait ends at the deadline, not at the (longer) backoff.
  sim::Engine engine;
  Predicates preds(engine);
  bool stop = false;
  sim::Nanos due = 0;
  std::vector<sim::Nanos> rounds;
  Predicates::SchedulerConfig cfg;
  cfg.stopped = [&] { return stop; };
  cfg.deadline = [&] { return due; };
  cfg.idle_backoff_min = sim::millis(1);
  cfg.idle_backoff_max = sim::millis(1);
  preds.configure(std::move(cfg));
  const auto g = preds.add_group({});
  preds.add(g, {"tick",
                [&] { return engine.now() >= due; },
                [&](TriggerContext& ctx) {
                  rounds.push_back(engine.now());
                  due = engine.now() + 1100;
                  ctx.plan.add(0, [] { return sim::Nanos{100}; });
                  return true;
                }});
  engine.spawn(preds.run());
  engine.run_to(3500);
  stop = true;
  engine.run();
  // Rounds at 0, 1100, 2200, 3300: each sleeps post(100), then waits out
  // the rest of the 1100 ns to its deadline.
  EXPECT_EQ(rounds, (std::vector<sim::Nanos>{0, 1100, 2200, 3300}));
}

/// Harness: one scheduler with a doorbell, whose predicate holds when due
/// (the scheduler's deadline) or when a ring delivered new input. Every
/// fire charges `work` compute, plans a `post`-ns push, and falls due again
/// 1000 ns after its post.
struct DeadlineHarness {
  sim::Engine engine;
  sim::Signal doorbell{engine};
  Predicates preds{engine};
  bool stop = false;
  bool input = false;  // new input since the last fire
  sim::Nanos due = 0;
  std::vector<sim::Nanos> rounds;  // instants the trigger fired
  Predicates::PredId tick = 0;

  explicit DeadlineHarness(sim::Nanos post, sim::Nanos work = 0) {
    Predicates::SchedulerConfig cfg;
    cfg.stopped = [this] { return stop; };
    cfg.doorbell = &doorbell;
    cfg.deadline = [this] { return due; };
    cfg.idle_backoff_min = sim::millis(1);
    cfg.idle_backoff_max = sim::millis(1);
    preds.configure(std::move(cfg));
    const auto g = preds.add_group({});
    tick = preds.add(g, {"tick",
                         [this] { return input || engine.now() >= due; },
                         [this, post, work](TriggerContext& ctx) {
                           rounds.push_back(engine.now());
                           input = false;
                           due = engine.now() + work + post + 1000;
                           ctx.work += work;
                           ctx.plan.add(0, [post] { return post; });
                           return true;
                         }});
    engine.spawn(preds.run());
  }
  /// New input lands at `t` and rings the doorbell.
  void ring_at(sim::Nanos t) {
    engine.schedule_fn(t, [this] {
      input = true;
      doorbell.signal();
    });
  }
  void finish(sim::Nanos t) {
    engine.run_to(t);
    stop = true;
    engine.run();
  }
};

TEST(Predicates, DoorbellCutsTheDeadlineWaitShort) {
  // Rounds at 0 and 1100 on the deadline alone; a ring at 500 (mid-wait)
  // starts a round right there, and the next deadline counts from it.
  DeadlineHarness h(/*post=*/100);
  h.ring_at(500);
  h.finish(2000);
  EXPECT_EQ(h.rounds, (std::vector<sim::Nanos>{0, 500, 1600}));
}

TEST(Predicates, RingDuringABusyRoundIsNotLost) {
  // The round at 0 charges 30 ns compute and 100 ns post. Rings during
  // the compute sleep (10) and the post sleep (80) are not lost, and the
  // round still charges its compute and post CPU in full: the next round
  // starts at 130, not at 10 or 80, nor at the deadline.
  DeadlineHarness h(/*post=*/100, /*work=*/30);
  h.ring_at(10);
  h.ring_at(80);
  h.finish(1500);
  EXPECT_EQ(h.rounds, (std::vector<sim::Nanos>{0, 130, 130 + 130 + 1000}));
}

TEST(Predicates, ZeroCostRoundsAddNoEvent) {
  // A trigger that charges no compute and posts nothing: its rounds, and
  // the quiet rounds after them, run without sleeping, so each fire costs
  // only the wake that started it. It holds once per new input, the way a
  // membership predicate holds once per event it has not yet acted on, and
  // a doorbell ring delivers the second input.
  sim::Engine engine;
  sim::Signal doorbell(engine);
  Predicates preds(engine);
  bool stop = false;
  int inputs = 1;
  int fired = 0;
  Predicates::SchedulerConfig cfg;
  cfg.stopped = [&] { return stop; };
  cfg.doorbell = &doorbell;
  cfg.idle_backoff_min = sim::millis(1);
  cfg.idle_backoff_max = sim::millis(1);
  preds.configure(std::move(cfg));
  const auto g = preds.add_group({});
  preds.add(g, {"once", [&] { return fired < inputs; },
                [&](TriggerContext&) {
                  ++fired;
                  return true;
                }});
  engine.spawn(preds.run());
  engine.schedule_fn(500, [&] {
    ++inputs;
    doorbell.signal();
  });
  engine.run_to(900);
  EXPECT_EQ(fired, 2);
  // The spawn, the ring event and the doorbell wake it schedules.
  EXPECT_EQ(engine.steps(), 3u);
  stop = true;
  doorbell.signal();
  engine.run();
}

TEST(Predicates, VisitExposesGroupTagAndStats) {
  Harness h;
  Predicates::GroupOptions g;
  g.name = "sg0";
  g.tag = 7;
  const auto gid = h.preds.add_group(std::move(g));
  h.preds.add(gid, {"stage", [] { return false; },
                    [](TriggerContext&) { return true; }});
  h.run_for(sim::micros(10));
  std::size_t visited = 0;
  h.preds.visit([&](const Predicates::GroupOptions& go,
                    const PredicateStats& ps) {
    ++visited;
    EXPECT_EQ(go.tag, 7u);
    EXPECT_EQ(ps.name, "stage");
    EXPECT_GT(ps.evals, 0u);
    EXPECT_EQ(ps.fires, 0u);
  });
  EXPECT_EQ(visited, 1u);
}

}  // namespace
}  // namespace spindle::sst
