#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace spindle::sim {

/// Sense-reversing barrier for the parallel engine's window loop. The last
/// thread to arrive runs a completion callback (window negotiation, stop
/// checks) while the others are parked, then releases everyone by bumping
/// the generation. Waiters spin briefly and then fall back to futex-style
/// blocking (std::atomic::wait), so oversubscribed runs — more workers than
/// hardware threads, the common case in CI — make progress instead of
/// burning the core another worker needs.
class WindowBarrier {
 public:
  explicit WindowBarrier(std::size_t parties, int spin_iters)
      : parties_(static_cast<std::uint32_t>(parties)), spin_(spin_iters) {}

  template <typename Completion>
  void arrive_and_wait(Completion&& completion) {
    const std::uint32_t gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      completion();
      arrived_.store(0, std::memory_order_relaxed);
      gen_.store(gen + 1, std::memory_order_release);
      gen_.notify_all();
      return;
    }
    for (int i = 0; i < spin_; ++i) {
      if (gen_.load(std::memory_order_acquire) != gen) return;
    }
    while (gen_.load(std::memory_order_acquire) == gen) {
      gen_.wait(gen, std::memory_order_acquire);
    }
  }

 private:
  const std::uint32_t parties_;
  const int spin_;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint32_t> gen_{0};
};

/// Conservative-lookahead parallel discrete-event engine.
///
/// Owns W serial `Engine`s (one timer wheel per worker thread); nodes are
/// statically partitioned across them by the owner (core::Cluster). Workers
/// advance in barrier-synchronous lookahead windows:
///
///   1. every worker publishes its earliest pending event time (the "null
///      time-bound" of conservative DES — here exchanged through the shared
///      `next_at_` table rather than per-link null messages);
///   2. the barrier leader takes T = min over workers and opens the window
///      [T, T + L), where L is the fabric's minimum cross-node delay
///      (`net::TimingModel::min_remote_delay()`, ~1.7 us);
///   3. each worker runs its wheel up to the window edge, staging every
///      inter-node send into per-(src,dst)-partition channels instead of
///      scheduling it directly;
///   4. at the barrier each worker merges the arrivals destined to it
///      (`merge_hook_`), sorted by the senders' birth keys so the wheel
///      receives them in exactly the serial engine's global post order.
///
/// Soundness: an event executing at t >= T can only post work at or after
/// t + L >= T + L (fabric egress/ingress serialization and latency adders
/// only push deliveries later), i.e. never inside the current window of any
/// worker — so merging at the barrier can never deliver into the past.
/// Determinism: within a worker the serial wheel order applies unchanged;
/// across workers the worker-count-invariant event key (at, b0, b1, d, pu,
/// s) of sim/sched.hpp plus the fabric's merge sort reproduce the serial
/// tie-break exactly, making parallel runs byte-identical to serial ones
/// (pinned by parallel_engine_test against the determinism-lock goldens).
class ParallelEngine {
 public:
  /// `lookahead` must be a lower bound on the delay between posting a
  /// cross-worker interaction and its earliest effect (> 0).
  ParallelEngine(std::size_t workers, Nanos lookahead);
  ~ParallelEngine();
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  std::size_t workers() const noexcept { return engines_.size(); }
  Engine& worker(std::size_t i) { return *engines_[i]; }
  Nanos lookahead() const noexcept { return lookahead_; }

  /// Install the barrier-time ingress merge. Called once per worker per
  /// window, on that worker's thread, after all workers have stopped at the
  /// window edge (the fabric applies staged cross-partition arrivals here).
  void set_merge_hook(std::function<void(std::size_t)> hook) {
    merge_hook_ = std::move(hook);
  }

  /// Run until every wheel drains.
  void run();

  /// Run until `stop_condition()` holds or all wheels drain. The condition
  /// is evaluated by the barrier leader between windows (workers parked),
  /// so it may read state across partitions; it is therefore checked at
  /// window granularity, not between events — met-makespans match serial
  /// runs only up to one lookahead window. `max_virtual` (> 0) aborts runs
  /// whose next event lies beyond that virtual time.
  bool run_until(const std::function<bool()>& stop_condition,
                 Nanos max_virtual = 0);

  /// Run every event at or before `t` and advance all workers' now to `t`.
  void run_to(Nanos t);

  /// Latest virtual time reached by any worker.
  Nanos now() const;
  /// Events dispatched across all workers.
  std::uint64_t steps() const;
  /// Heap-boxed callables across all workers (Engine::boxed).
  std::uint64_t boxed() const;
  /// Lookahead windows executed (null-message rounds).
  std::uint64_t windows() const noexcept { return windows_; }

 private:
  enum class Mode { drain, until, to };

  bool drive(Mode mode, const std::function<bool()>* cond, Nanos max_virtual,
             Nanos horizon);
  /// Window negotiation; runs on the barrier leader (or the caller, for the
  /// first window). Publishes cmd_run_/window_end_.
  void decide(Mode mode, const std::function<bool()>* cond, Nanos max_virtual,
              Nanos horizon);
  void worker_loop(std::size_t w, Mode mode, const std::function<bool()>* cond,
                   Nanos max_virtual, Nanos horizon);

  std::vector<std::unique_ptr<Engine>> engines_;
  /// Shared root-identity counter for all workers (drawn only from the main
  /// thread while workers are idle — no synchronization needed).
  std::uint64_t root_seq_ = 0;
  const Nanos lookahead_;
  std::function<void(std::size_t)> merge_hook_;
  WindowBarrier barrier_;

  // Window-loop shared state. Written by the barrier leader inside the
  // completion callback (all other workers parked); reads are ordered by
  // the barrier's generation release/acquire.
  std::vector<Nanos> next_at_;
  std::vector<char> has_next_;
  Nanos window_end_ = 0;
  bool cmd_run_ = false;
  bool met_ = false;
  std::uint64_t windows_ = 0;
};

}  // namespace spindle::sim
