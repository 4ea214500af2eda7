// Perf-smoke gate (ctest -L perf-smoke): a coarse throughput floor on the
// scheduler hot path, so an accidental O(log n)/allocating regression in
// the event loop fails CI rather than silently doubling every bench and
// chaos-sweep runtime. The floor is deliberately ~10x below measured
// throughput — it exists to catch order-of-magnitude regressions, not to
// flake on machine noise — and is relaxed further under sanitizers.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "workload/experiment.hpp"

namespace {

using namespace spindle;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

TEST(PerfSmoke, SchedulerThroughputFloor) {
  // The micro_engine regime at reduced scale: standing far timers under a
  // churn of schedule -> dispatch -> cancel-deadline operations.
  constexpr std::size_t kStanding = 10'000;
  constexpr std::uint64_t kOps = 300'000;
  constexpr sim::Nanos kDeltas[] = {50, 300, 700, 2500};

  sim::Engine engine;
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < kStanding; ++i) {
    engine.schedule_fn(sim::millis(1) + static_cast<sim::Nanos>(i) * 137000,
                       [&fired] { ++fired; });
  }

  std::uint64_t done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (done < kOps) {
    const std::uint64_t target = done + 1;
    const auto deadline = engine.schedule_fn(
        engine.now() + sim::micros(400), [&fired] { ++fired; });
    engine.schedule_fn(engine.now() + kDeltas[done & 3], [&done] { ++done; });
    while (done < target) ASSERT_TRUE(engine.step());
    engine.cancel(deadline);
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const double ops_per_sec = static_cast<double>(kOps) / secs;
  std::printf("scheduler smoke: %.0f ops/s (%.3fs, sanitized=%d)\n",
              ops_per_sec, secs, kSanitized ? 1 : 0);

  const double floor = kSanitized ? 100'000.0 : 1'500'000.0;
  EXPECT_GE(ops_per_sec, floor)
      << "scheduler hot path regressed by >10x vs the recorded baseline "
         "(see BENCH_micro_engine.json / EXPERIMENTS.md)";
}

TEST(PerfSmoke, ScheduleFnDoesNotAllocateOnHotPath) {
  // Every callable in the hot path fits the node's inline payload window;
  // a capture that silently grows past it would reintroduce per-event heap
  // boxing. Compile-time guard on representative capture shapes.
  struct TwoPointers {
    void* a;
    void* b;
  };
  struct HandleAndContext {
    void* h;
    std::uint64_t ctx[6];
  };
  static_assert(sizeof(TwoPointers) <= sim::EventNode::kInlineBytes);
  static_assert(sizeof(HandleAndContext) <= sim::EventNode::kInlineBytes);

  // Steady-state churn must reuse pooled nodes: the live count returns to
  // zero and repeated cycles do not grow the pool's footprint observably
  // via pending_events.
  sim::Engine engine;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_fn(engine.now() + i, [] {});
    }
    engine.run();
    EXPECT_EQ(engine.pending_events(), 0u);
  }
}

TEST(PerfSmoke, BulkRunBoxesNoEvents) {
  // The static_asserts above cover representative shapes only; this counts
  // the callables a real protocol run schedules that outgrow the 64-byte
  // inline storage — every one is a heap allocation per event.
  workload::ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.messages_per_sender = 20;
  cfg.message_size = 10240;
  cfg.sim_threads = 1;
  const workload::ExperimentResult res = workload::run_experiment(cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(res.engine_steps, 0u);
  EXPECT_EQ(res.engine_boxed, 0u);
}

TEST(PerfSmoke, RingMemoryIsLinearInNodes) {
  // The modelled footprint is the paper's nodes × senders × window × slot,
  // ~4.2 GB here, but a node allocates only its own slots (with their
  // 8-byte send-time words) and every sender's trailers: ~72 MB in all.
  workload::ExperimentConfig cfg;
  cfg.nodes = 64;
  cfg.messages_per_sender = 2;
  cfg.message_size = 10240;
  cfg.sim_threads = 1;
  const workload::ExperimentResult res = workload::run_experiment(cfg);
  ASSERT_TRUE(res.completed);
  const std::uint64_t n = 64, w = 100, slot = 10240, trailer = 16,
                      sent_at = 8;
  EXPECT_EQ(res.stats.total.ring_bytes_registered,
            n * n * w * (slot + trailer));
  EXPECT_LE(res.stats.total.ring_bytes_allocated,
            n * (w * (slot + sent_at) + n * w * trailer));
}

}  // namespace
