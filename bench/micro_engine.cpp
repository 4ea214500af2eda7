// Microbenchmarks of the simulation substrate itself (google-benchmark):
// event loop throughput, coroutine round trips, SST/SMC push costs (real
// CPU time, not simulated time), histogram insertion, RNG. These bound how
// large a simulated experiment is affordable.
//
// After the google-benchmark suite, main() runs a head-to-head comparison
// of the timer-wheel scheduler against the engine's previous design (a
// std::priority_queue of std::function events) and writes the result to
// BENCH_micro_engine.json — the ≥5x scheduler-speedup gate tracked by CI.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "metrics/metrics.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/mutex.hpp"
#include "sim/rng.hpp"
#include "smc/ring.hpp"
#include "sst/sst.hpp"

namespace {

using namespace spindle;

void BM_engine_schedule_fn(benchmark::State& state) {
  sim::Engine engine;
  int sink = 0;
  for (auto _ : state) {
    engine.schedule_fn(engine.now() + 10, [&sink] { ++sink; });
    engine.step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_engine_schedule_fn);

void BM_engine_schedule_cancel(benchmark::State& state) {
  sim::Engine engine;
  int sink = 0;
  for (auto _ : state) {
    // The watchdog pattern: arm a far-future timer, cancel before it fires.
    auto id = engine.schedule_fn(engine.now() + sim::seconds(100),
                                 [&sink] { ++sink; });
    engine.cancel(id);
    engine.schedule_fn(engine.now() + 10, [&sink] { ++sink; });
    engine.step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_engine_schedule_cancel);

void BM_engine_coroutine_sleep(benchmark::State& state) {
  sim::Engine engine;
  std::uint64_t wakes = 0;
  bool done = false;
  engine.spawn([](sim::Engine& e, std::uint64_t& w,
                  const bool& stop) -> sim::Co<> {
    while (!stop) {
      co_await e.sleep(5);
      ++w;
    }
  }(engine, wakes, done));
  for (auto _ : state) {
    engine.step();
  }
  // Let the coroutine return so its frame is freed.
  done = true;
  engine.run();
  benchmark::DoNotOptimize(wakes);
}
BENCHMARK(BM_engine_coroutine_sleep);

void BM_mutex_uncontended(benchmark::State& state) {
  sim::Engine engine;
  sim::Mutex mutex(engine);
  std::uint64_t count = 0;
  bool done = false;
  engine.spawn([](sim::Engine& e, sim::Mutex& m, std::uint64_t& c,
                  const bool& stop) -> sim::Co<> {
    while (!stop) {
      co_await m.lock();
      ++c;
      m.unlock();
      co_await e.sleep(1);
    }
  }(engine, mutex, count, done));
  for (auto _ : state) {
    engine.step();
  }
  // Let the coroutine return so its frame is freed.
  done = true;
  engine.run();
  benchmark::DoNotOptimize(count);
}
BENCHMARK(BM_mutex_uncontended);

void BM_fabric_post_write(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  sim::Engine engine;
  net::Fabric fabric(engine, net::TimingModel{}, 2);
  std::vector<std::byte> src(size, std::byte{1});
  std::vector<std::byte> dst(size);
  auto src_region = fabric.register_region(0, src);
  auto region = fabric.register_region(1, dst);
  for (auto _ : state) {
    fabric.post_write(src_region, 0, size, region, 0);
    engine.run();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_fabric_post_write)->Arg(8)->Arg(10240)->Arg(1 << 20);

void BM_sst_push_field(benchmark::State& state) {
  sim::Engine engine;
  net::Fabric fabric(engine, net::TimingModel{}, 4);
  sst::Layout layout;
  auto field = layout.add_i64("x");
  std::vector<net::NodeId> members{0, 1, 2, 3};
  std::vector<std::unique_ptr<sst::Sst>> tables;
  std::vector<sst::Sst*> ptrs;
  for (auto id : members) {
    tables.push_back(std::make_unique<sst::Sst>(fabric, id, members, layout));
    ptrs.push_back(tables.back().get());
  }
  sst::Sst::connect(ptrs);
  std::vector<std::size_t> targets{0, 1, 2, 3};
  std::int64_t v = 0;
  for (auto _ : state) {
    tables[0]->write_local_i64(field, ++v);
    tables[0]->push_field(field, targets);
    engine.run();
  }
}
BENCHMARK(BM_sst_push_field);

void BM_ring_push_batch(benchmark::State& state) {
  const auto batch = static_cast<std::int64_t>(state.range(0));
  sim::Engine engine;
  net::Fabric fabric(engine, net::TimingModel{}, 2);
  std::vector<net::NodeId> members{0, 1};
  smc::RingGroup a(fabric, 0, members, 0, 1, 256, 10240);
  smc::RingGroup b(fabric, 1, members, SIZE_MAX, 1, 256, 10240);
  smc::RingGroup* rings[] = {&a, &b};
  smc::RingGroup::connect(rings);
  std::vector<std::size_t> target{1};
  std::int64_t next = 0;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < batch; ++i) a.mark_ready(next + i, 100, 0);
    a.push_data(next, next + batch, target);
    a.push_trailers(next, next + batch, target);
    next += batch;
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          batch);
}
BENCHMARK(BM_ring_push_batch)->Arg(1)->Arg(16)->Arg(128);

void BM_histogram_add(benchmark::State& state) {
  metrics::Histogram h;
  sim::Rng rng(1);
  for (auto _ : state) {
    h.add(rng.below(1 << 20));
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_histogram_add);

void BM_rng_next(benchmark::State& state) {
  sim::Rng rng(7);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= rng.next_u64();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_rng_next);

// ---------------------------------------------------------------------------
// Scheduler head-to-head: timer wheel vs the previous engine core.
//
// ReferenceScheduler reproduces the engine's pre-wheel design exactly: a
// std::priority_queue<Event> ordered by (at, seq) where every event carries
// a std::function<void()> payload. The workload models a real cluster run:
// a standing population of far-future timers (watchdogs) that almost never
// fire, under a churn of operations, each of which (a) arms a
// failure-detection deadline that is cancelled on completion and (b)
// schedules + dispatches a near-term wake. The heap pays O(log n) moves of
// 48-byte events per push/pop against the standing population, and — since
// the old engine had no cancel() — pushes *and* lazily expires every dead
// deadline. The wheel pays O(1) bucket pushes, cancels deadlines in place,
// and reclaims them in bulk when the cursor passes their bucket.

class ReferenceScheduler {
 public:
  void schedule(sim::Nanos at, std::function<void()> fn) {
    queue_.push(Event{at, seq_++, std::move(fn)});
  }

  bool step() {
    if (queue_.empty()) return false;
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.at;
    ev.fn();
    return true;
  }

  sim::Nanos now() const { return now_; }

 private:
  struct Event {
    sim::Nanos at = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::uint64_t seq_ = 0;
  sim::Nanos now_ = 0;
};

struct ChurnResult {
  double wall_seconds = 0;
  double events_per_sec = 0;
};

// Near-event deltas: a mix of same-slot, near-bucket, and cross-bucket
// arrivals (wheel slot width is 512ns).
constexpr sim::Nanos kDeltas[] = {50, 300, 700, 2500};

// Per-operation deadline, matching the protocol's failure-detection
// timeout: every op arms one and cancels it on completion. The reference
// engine (like the old Signal::wait_for) has no cancel — dead deadlines
// stay queued and are popped as no-ops when they lazily expire.
constexpr sim::Nanos kDeadline = sim::micros(400);

void run_scheduler_comparison() {
  // Standing timers model per-node watchdogs: spread across [1ms, 7s] so
  // the reference heap is deep, like a long chaos run's timer set.
  const auto standing =
      static_cast<std::size_t>(bench::scaled(50000));
  const auto churn = static_cast<std::uint64_t>(bench::scaled(2000000));
  std::uint64_t fired = 0;
  std::uint64_t expired = 0;

  ReferenceScheduler ref;
  for (std::size_t i = 0; i < standing; ++i) {
    ref.schedule(sim::millis(1) + static_cast<sim::Nanos>(i) * 137000,
                 [&fired] { ++fired; });
  }
  ChurnResult heap;
  {
    std::uint64_t done = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (done < churn) {
      const std::uint64_t target = done + 1;
      ref.schedule(ref.now() + kDeadline, [&expired] { ++expired; });
      ref.schedule(ref.now() + kDeltas[done & 3], [&done] { ++done; });
      // Expired deadlines and standing timers due before the wake pop first.
      while (done < target) ref.step();
    }
    const auto t1 = std::chrono::steady_clock::now();
    heap.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  }

  sim::Engine engine;
  for (std::size_t i = 0; i < standing; ++i) {
    engine.schedule_fn(sim::millis(1) + static_cast<sim::Nanos>(i) * 137000,
                       [&fired] { ++fired; });
  }
  ChurnResult wheel;
  {
    std::uint64_t done = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (done < churn) {
      const std::uint64_t target = done + 1;
      const auto deadline = engine.schedule_fn(engine.now() + kDeadline,
                                               [&expired] { ++expired; });
      engine.schedule_fn(engine.now() + kDeltas[done & 3],
                         [&done] { ++done; });
      while (done < target) engine.step();
      engine.cancel(deadline);
    }
    const auto t1 = std::chrono::steady_clock::now();
    wheel.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  }
  benchmark::DoNotOptimize(fired);
  benchmark::DoNotOptimize(expired);

  heap.events_per_sec = heap.wall_seconds > 0
                            ? static_cast<double>(churn) / heap.wall_seconds
                            : 0;
  wheel.events_per_sec =
      wheel.wall_seconds > 0 ? static_cast<double>(churn) / wheel.wall_seconds
                             : 0;

  const double speedup = heap.events_per_sec > 0
                             ? wheel.events_per_sec / heap.events_per_sec
                             : 0;
  std::printf(
      "\nscheduler comparison (%zu standing timers, %llu churn events):\n"
      "  priority_queue+std::function: %12.0f events/s  (%.3fs)\n"
      "  timer wheel (engine):         %12.0f events/s  (%.3fs)\n"
      "  speedup: %.2fx\n",
      standing, static_cast<unsigned long long>(churn), heap.events_per_sec,
      heap.wall_seconds, wheel.events_per_sec, wheel.wall_seconds, speedup);

  bench::BenchReport report("micro_engine");
  report.set_provenance(/*seed=*/1, /*messages_per_sender=*/churn);
  report.add_metric("standing_timers", static_cast<double>(standing));
  report.add_metric("churn_events", static_cast<double>(churn));
  report.add_metric("heap_events_per_sec", heap.events_per_sec);
  report.add_metric("heap_wall_seconds", heap.wall_seconds);
  report.add_metric("wheel_events_per_sec", wheel.events_per_sec);
  report.add_metric("wheel_wall_seconds", wheel.wall_seconds);
  report.add_metric("scheduler_speedup_vs_priority_queue", speedup);
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_scheduler_comparison();
  return 0;
}
