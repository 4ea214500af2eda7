#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/mutex.hpp"
#include "sim/rng.hpp"

namespace spindle::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.steps(), 0u);
}

TEST(Engine, CallbacksRunInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_fn(30, [&] { order.push_back(3); });
  e.schedule_fn(10, [&] { order.push_back(1); });
  e.schedule_fn(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, SameTimestampRunsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_fn(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, SleepAdvancesVirtualTime) {
  Engine e;
  Nanos woke = -1;
  e.spawn([](Engine& eng, Nanos& w) -> Co<> {
    co_await eng.sleep(1234);
    w = eng.now();
  }(e, woke));
  e.run();
  EXPECT_EQ(woke, 1234);
}

TEST(Engine, NestedCoroutinesPropagateValues) {
  Engine e;
  int result = 0;
  auto inner = [](Engine& eng) -> Co<int> {
    co_await eng.sleep(10);
    co_return 41;
  };
  e.spawn([](Engine& eng, auto inner_fn, int& out) -> Co<> {
    const int v = co_await inner_fn(eng);
    out = v + 1;
  }(e, inner, result));
  e.run();
  EXPECT_EQ(result, 42);
}

TEST(Engine, RunUntilStopsOnCondition) {
  Engine e;
  int counter = 0;
  for (int i = 0; i < 100; ++i) {
    e.schedule_fn(i * 10, [&] { ++counter; });
  }
  const bool met = e.run_until([&] { return counter >= 5; });
  EXPECT_TRUE(met);
  EXPECT_EQ(counter, 5);
  e.run();
  EXPECT_EQ(counter, 100);
}

TEST(Engine, RunUntilWatchdogTrips) {
  Engine e;
  // Self-perpetuating actor that never satisfies the condition.
  e.spawn([](Engine& eng) -> Co<> {
    for (int i = 0; i < 1000; ++i) co_await eng.sleep(1000);
  }(e));
  const bool met = e.run_until([] { return false; }, /*max_virtual=*/50000);
  EXPECT_FALSE(met);
  EXPECT_GT(e.now(), 50000);
  EXPECT_LT(e.now(), 100000);
  // Let the abandoned actor finish: a suspended coroutine still queued at
  // engine destruction would leak its frame (the engine does not own
  // frames; actors are expected to run to completion).
  e.run();
}

TEST(Engine, RunToAdvancesClockEvenWithoutEvents) {
  Engine e;
  e.run_to(999);
  EXPECT_EQ(e.now(), 999);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto trace = [] {
    Engine e;
    Rng rng(7);
    std::vector<Nanos> t;
    for (int i = 0; i < 50; ++i) {
      e.schedule_fn(static_cast<Nanos>(rng.below(1000)),
                    [&t, &e] { t.push_back(e.now()); });
    }
    e.run();
    return t;
  };
  EXPECT_EQ(trace(), trace());
}

TEST(Mutex, ProvidesMutualExclusionAndFifo) {
  Engine e;
  Mutex m(e);
  std::vector<int> order;
  auto actor = [](Engine& eng, Mutex& mu, std::vector<int>& ord,
                  int id) -> Co<> {
    co_await mu.lock();
    ord.push_back(id);
    co_await eng.sleep(100);  // hold across a suspension
    ord.push_back(id);
    mu.unlock();
  };
  for (int i = 0; i < 4; ++i) e.spawn(actor(e, m, order, i));
  e.run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(2 * i)], i);
    EXPECT_EQ(order[static_cast<size_t>(2 * i + 1)], i);
  }
  EXPECT_FALSE(m.locked());
  EXPECT_EQ(m.acquisitions(), 4u);
  EXPECT_EQ(m.contended_acquisitions(), 3u);
  EXPECT_EQ(m.total_wait(), 100 + 200 + 300);
}

TEST(Mutex, UncontendedLockIsImmediate) {
  Engine e;
  Mutex m(e);
  bool ran = false;
  e.spawn([](Engine& eng, Mutex& mu, bool& r) -> Co<> {
    co_await mu.lock();
    mu.unlock();
    r = true;
    co_return;
    (void)eng;
  }(e, m, ran));
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(m.total_wait(), 0);
}

TEST(Signal, WakesWaiterBeforeTimeout) {
  Engine e;
  Signal s(e);
  bool result = false;
  Nanos woke = 0;
  e.spawn([](Engine& eng, Signal& sig, bool& res, Nanos& w) -> Co<> {
    res = co_await sig.wait_for(10000);
    w = eng.now();
  }(e, s, result, woke));
  e.schedule_fn(300, [&] { s.signal(); });
  e.run();
  EXPECT_TRUE(result);
  EXPECT_EQ(woke, 300);
}

TEST(Signal, TimesOutWithoutSignal) {
  Engine e;
  Signal s(e);
  bool result = true;
  Nanos woke = 0;
  e.spawn([](Engine& eng, Signal& sig, bool& res, Nanos& w) -> Co<> {
    res = co_await sig.wait_for(500);
    w = eng.now();
  }(e, s, result, woke));
  e.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(woke, 500);
}

TEST(Signal, SignalAfterTimeoutDoesNotResumeTwice) {
  Engine e;
  Signal s(e);
  int resumes = 0;
  e.spawn([](Signal& sig, int& r) -> Co<> {
    co_await sig.wait_for(100);
    ++r;
  }(s, resumes));
  e.schedule_fn(200, [&] { s.signal(); });
  e.run();
  EXPECT_EQ(resumes, 1);
}

TEST(Signal, WakesAllWaiters) {
  Engine e;
  Signal s(e);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    e.spawn([](Signal& sig, int& w) -> Co<> {
      if (co_await sig.wait_for(100000)) ++w;
    }(s, woken));
  }
  e.schedule_fn(10, [&] { s.signal(); });
  e.run();
  EXPECT_EQ(woken, 5);
}

TEST(Co, ExceptionsPropagateToAwaiter) {
  Engine e;
  bool caught = false;
  auto thrower = [](Engine& eng) -> Co<int> {
    co_await eng.sleep(5);
    throw std::runtime_error("boom");
  };
  e.spawn([](Engine& eng, auto fn, bool& c) -> Co<> {
    try {
      (void)co_await fn(eng);
    } catch (const std::runtime_error& ex) {
      c = std::string(ex.what()) == "boom";
    }
  }(e, thrower, caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Co, MoveTransfersOwnership) {
  Engine e;
  int result = 0;
  auto make = [](Engine& eng) -> Co<int> {
    co_await eng.sleep(1);
    co_return 7;
  };
  e.spawn([](Engine& eng, auto fn, int& out) -> Co<> {
    Co<int> a = fn(eng);
    Co<int> b = std::move(a);
    EXPECT_FALSE(a.valid());
    EXPECT_TRUE(b.valid());
    out = co_await std::move(b);
  }(e, make, result));
  e.run();
  EXPECT_EQ(result, 7);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  bool all_equal = true, any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    all_equal = all_equal && (va == b.next_u64());
    any_diff = any_diff || (va != c.next_u64());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, UniformCoversRangeInclusive) {
  Rng r(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Engine, CancelStopsScheduledCallback) {
  Engine engine;
  int ran = 0;
  auto id = engine.schedule_fn(50, [&ran] { ++ran; });
  engine.schedule_fn(60, [&ran] { ++ran; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // already cancelled
  engine.run();
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(engine.cancel(id));  // long gone
}

TEST(Signal, ReWaitAfterUnrelatedSignalKeepsRegistration) {
  // The dds doorbell pattern: a waiter woken by a signal whose condition is
  // not yet satisfied immediately re-waits. The re-registration belongs to
  // the *next* signal and must survive signal()'s pass over the waiter
  // list — the waiter is woken by the second signal, not left to time out.
  Engine e;
  Signal s(e);
  bool condition = false;
  std::vector<Nanos> wakes;
  bool timed_out = false;
  e.spawn([](Engine& eng, Signal& sig, bool& cond, std::vector<Nanos>& w,
             bool& to) -> Co<> {
    while (!cond) {
      const bool ok = co_await sig.wait_for(seconds(1));
      to = to || !ok;
      w.push_back(eng.now());
    }
  }(e, s, condition, wakes, timed_out));
  e.schedule_fn(100, [&] { s.signal(); });  // doorbell for unrelated delivery
  e.schedule_fn(200, [&] {
    condition = true;
    s.signal();
  });
  e.run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0], 100);
  EXPECT_EQ(wakes[1], 200) << "re-registered waiter lost the second signal";
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Signal, UntimedWaitParksWithoutAnEventUntilSignalled) {
  // wait() schedules nothing: a parked waiter leaves the queue empty, no
  // matter how far virtual time runs, and resumes only at a signal(). It
  // shares the wake order with timed waiters: registration order.
  Engine e;
  Signal s(e);
  std::vector<std::pair<int, Nanos>> wakes;
  e.spawn([](Engine& eng, Signal& sig,
             std::vector<std::pair<int, Nanos>>& w) -> Co<> {
    for (int i = 0; i < 2; ++i) {
      co_await sig.wait();
      w.emplace_back(0, eng.now());
    }
  }(e, s, wakes));
  e.spawn([](Engine& eng, Signal& sig,
             std::vector<std::pair<int, Nanos>>& w) -> Co<> {
    if (co_await sig.wait_for(seconds(10))) w.emplace_back(1, eng.now());
  }(e, s, wakes));
  e.run_to(seconds(1));
  EXPECT_TRUE(wakes.empty());
  EXPECT_EQ(s.waiters(), 2u);
  EXPECT_EQ(e.pending_events(), 1u);  // the timed waiter's timeout only
  e.schedule_fn(seconds(3), [&] { s.signal(); });
  e.run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0], std::make_pair(0, seconds(3)));
  EXPECT_EQ(wakes[1], std::make_pair(1, seconds(3)));
  // Parked again, untimed: nothing is queued and time does not move.
  EXPECT_EQ(s.waiters(), 1u);
  EXPECT_EQ(e.pending_events(), 0u);
  const std::uint64_t steps = e.steps();
  e.run_to(seconds(100));
  EXPECT_EQ(e.steps(), steps);
  EXPECT_EQ(wakes.size(), 2u);
  s.signal();
  e.run();
  ASSERT_EQ(wakes.size(), 3u);
  EXPECT_EQ(wakes[2], std::make_pair(0, seconds(100)));
  EXPECT_EQ(s.waiters(), 0u);
}

TEST(Signal, SignalledWaitCancelsItsTimeoutEvent) {
  // A signalled wait_for must cancel its timeout instead of leaving it in
  // the queue as a lazy no-op: after 1000 signalled waits with 100 s
  // timeouts, the queue drains at the virtual time of the last signal —
  // not 100 s later — and no pending events remain.
  Engine engine;
  Mutex mutex(engine);  // unrelated; ensures coexistence with waiter pools
  Signal signal(engine);
  int wakes = 0;
  engine.spawn([](Engine& e, Signal& s, int& wakes) -> Co<> {
    for (int i = 0; i < 1000; ++i) {
      const bool ok = co_await s.wait_for(seconds(100));
      if (ok) ++wakes;
    }
    (void)e;
  }(engine, signal, wakes));
  engine.spawn([](Engine& e, Signal& s) -> Co<> {
    for (int i = 0; i < 1000; ++i) {
      co_await e.sleep(10);
      s.signal();
    }
  }(engine, signal));
  engine.run();
  EXPECT_EQ(wakes, 1000);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_LT(engine.now(), seconds(1));  // no lazy timeout expiry tail
}

}  // namespace
}  // namespace spindle::sim
