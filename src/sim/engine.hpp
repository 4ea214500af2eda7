#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/sched.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace spindle::sim {

/// Deterministic discrete-event simulation engine.
///
/// A single real thread processes events in the worker-count-invariant key
/// order of sim/sched.hpp (virtual time, then birth chain, then scheduler
/// identity), so runs are bit-reproducible — serially AND partitioned
/// across parallel worker wheels. Simulated node threads are coroutines;
/// "spending CPU" or "waiting" is expressed as `co_await engine.sleep(d)`.
/// Two events at the same timestamp scheduled by the same event (or both
/// from setup code) run in scheduling order — the stable-FIFO guarantee
/// the simulated mutex and the NIC FIFO rely on; ties across *different*
/// schedulers break by a deterministic identity hash instead of global
/// insertion order.
///
/// The event queue is a hierarchical timer wheel with an overflow tier
/// (sim/sched.hpp); scheduling is O(1) in the common cases and never
/// heap-allocates: events are pooled nodes and callables small enough for
/// the node's inline storage (64 bytes — every callable in the repo) are
/// stored in place instead of behind a std::function.
class Engine {
 public:
  /// Handle to a scheduled event, usable with cancel(). Validated by
  /// sequence number, so a stale id (event already fired, cancelled, or
  /// node recycled) is safely rejected.
  struct TimerId {
    EventNode* node = nullptr;
    std::uint64_t seq = EventNode::kFreeSeq;
    bool valid() const noexcept { return node != nullptr; }
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Nanos now() const noexcept { return now_; }
  std::uint64_t steps() const noexcept { return steps_; }
  /// Callables too large for the event node's inline storage, each boxed
  /// in its own heap allocation (see install_fn). Zero on the hot path.
  std::uint64_t boxed() const noexcept { return boxed_; }

  /// Schedule a raw coroutine resume at absolute virtual time `at`.
  TimerId schedule_handle(Nanos at, std::coroutine_handle<> h) {
    assert(at >= now_ && "cannot schedule into the past");
    EventNode* n = wheel_.acquire();
    ::new (static_cast<void*>(n->storage)) std::coroutine_handle<>(h);
    n->invoke = [](EventNode* e) {
      (*std::launder(reinterpret_cast<std::coroutine_handle<>*>(e->storage)))
          .resume();
    };
    n->drop = nullptr;  // coroutine frames are not owned by the engine
    stamp(n, at);
    wheel_.insert(at, n);
    return TimerId{n, n->seq};
  }

  /// Schedule any callable at absolute virtual time `at`. Callables up to
  /// EventNode::kInlineBytes are stored inline (no allocation); larger ones
  /// are boxed on the heap.
  template <typename F>
  TimerId schedule_fn(Nanos at, F&& fn) {
    assert(at >= now_ && "cannot schedule into the past");
    EventNode* n = install_fn(std::forward<F>(fn));
    stamp(n, at);
    wheel_.insert(at, n);
    return TimerId{n, n->seq};
  }

  /// Schedule a callable with an explicit ordering key. Parallel-mode only:
  /// the fabric merge uses it to re-stamp a cross-partition arrival with
  /// exactly the (b0, b1, d, pu, s) the posting event would have given it
  /// in a serial run, so the destination wheel breaks same-timestamp ties
  /// identically.
  template <typename F>
  TimerId schedule_fn_keyed(Nanos at, Nanos b0, Nanos b1, std::uint32_t d,
                            std::uint64_t pu, std::uint64_t s, F&& fn) {
    assert(at >= now_ && "cannot schedule into the past");
    EventNode* n = install_fn(std::forward<F>(fn));
    n->b0 = b0;
    n->b1 = b1;
    n->d = d;
    n->pu = pu;
    n->s = s;
    wheel_.insert(at, n);
    return TimerId{n, n->seq};
  }

  /// The full ordering key of the current scheduling context: the
  /// dispatching event's own key, or a synthetic at-now root key when
  /// called from outside any event (setup, fault injection between runs —
  /// s = 0 marks it, no real event carries s == 0). Parallel-mode fabric
  /// staging sorts cross-partition arrivals by this to replay the serial
  /// engine's post order.
  struct ContextKey {
    Nanos b0, b1;
    std::uint32_t d;
    std::uint64_t pu, s;
  };
  ContextKey context_key() const noexcept {
    if (in_event_) return {cur_b0_, cur_b1_, cur_d_, cur_pu_, cur_s_};
    return {now_, 0, 0, 0, 0};
  }

  /// Draw the (pu, s) pair the next schedule_* call from the current
  /// context would stamp, consuming the child index. Parallel-mode fabric
  /// staging draws the delivery event's identity at post time on the source
  /// worker — the same draw the serial engine's schedule_fn would make — so
  /// the merged arrival reproduces it bit for bit at the barrier.
  std::pair<std::uint64_t, std::uint64_t> draw_child_key() {
    if (in_event_) return {cur_uid_, ++cur_child_};
    return {0, ++*root_counter_};
  }

  /// Redirect root-event identity draws (schedules made outside any event:
  /// cluster setup, test harness spawns) to a counter shared by an engine
  /// group. The parallel engine points every worker at one counter so a
  /// setup sequence draws the same identities regardless of which worker's
  /// wheel each event lands on — the root of the worker-count-invariant
  /// ordering key. Draws are main-thread-only (workers idle), so the shared
  /// counter needs no synchronization.
  void set_root_counter(std::uint64_t* counter) noexcept {
    root_counter_ = counter;
  }
  /// Cancel a scheduled event. Returns true iff the event was still
  /// pending (not fired, not already cancelled); its payload is destroyed
  /// without running. Safe to call with a stale or default id.
  bool cancel(TimerId id) noexcept { return wheel_.cancel(id.node, id.seq); }

  /// Awaitable: suspend the calling coroutine for `d` virtual nanoseconds.
  /// sleep(0) resumes through the at-now FIFO fast path, after events
  /// already queued for the current instant.
  auto sleep(Nanos d) {
    struct Awaiter {
      Engine& engine;
      Nanos delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        engine.schedule_handle(engine.now_ + delay, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d < 0 ? 0 : d};
  }

  /// Launch a detached actor. The coroutine starts at the current virtual
  /// time and runs until completion; its frame is owned by the engine root.
  void spawn(Co<> actor);

  /// Process a single event. Returns false if the queue is empty.
  bool step() { return dispatch(wheel_.pop()); }

  /// Process a single event only if it is scheduled at or before `t`.
  /// Returns false when the earliest live event is beyond `t` (it stays
  /// queued, order untouched) or the queue is empty. Cancelled timers
  /// earlier than `t` are reclaimed, never dispatched, and never cause a
  /// live event beyond `t` to run — run_to()'s horizon guarantee.
  bool step_until(Nanos t) { return dispatch(wheel_.pop_until(t)); }

  /// Run until the event queue drains.
  void run();

  /// Run until `stop_condition()` holds (checked between events) or the
  /// queue drains. Returns true if the condition was met. `max_virtual`
  /// (if > 0) aborts runs that exceed that virtual time — a watchdog for
  /// protocol stalls in tests.
  bool run_until(const std::function<bool()>& stop_condition,
                 Nanos max_virtual = 0);

  /// Run until virtual time reaches `t` (events at exactly `t` included).
  void run_to(Nanos t);

  /// Install a callback that renders domain-level state (per-node protocol
  /// frontiers, doorbells, ...) for the timeout dump below. One provider;
  /// the owner of the engine (e.g. core::ManagedGroup) installs it.
  void set_diagnostics_provider(std::function<std::string()> provider) {
    diagnostics_provider_ = std::move(provider);
  }

  /// Human-readable snapshot of the engine (pending event count, virtual
  /// time, next event, scheduler-tier occupancy) plus whatever the
  /// diagnostics provider reports. run_until() dumps this to stderr when
  /// its watchdog trips, so a hung run is debuggable instead of a bare
  /// failed assertion. Read-only: no tier is copied or disturbed.
  std::string diagnostics() const;

  std::size_t pending_events() const noexcept { return wheel_.live(); }

  /// Earliest pending timestamp, for the parallel engine's window
  /// negotiation. May report a cancelled-but-unreclaimed node's time (the
  /// resulting window just executes nothing and reclaims it — conservative,
  /// never early). Returns false when the wheel is empty.
  bool peek_next(Nanos* out) const { return wheel_.peek_at(out); }

  /// Run every event strictly before `end` (the parallel engine's lookahead
  /// window [T, end)). Unlike run_to, virtual now is left at the last
  /// dispatched event, not advanced to the window edge.
  void run_window(Nanos end) {
    while (step_until(end - 1)) {
    }
  }

 private:
  /// Unique event id: hash-chain the (pu, s) identity pair. splitmix64
  /// finalizer — worker-count-invariant because pu/s are.
  static std::uint64_t mix_uid(std::uint64_t pu, std::uint64_t s) noexcept {
    std::uint64_t x = pu + 0x9e3779b97f4a7c15ULL * (s + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  /// Stamp a freshly acquired node with the scheduling context's ordering
  /// key (see EventNode): birth chain from the current event, at-now chain
  /// depth, and the (pu, s) identity drawn from the current event's uid (or
  /// the root counter when scheduling from outside any event).
  void stamp(EventNode* n, Nanos at) {
    n->b0 = now_;
    if (in_event_) {
      n->b1 = cur_b0_;
      n->d = (at == now_) ? cur_d_ + 1 : 0;
      n->pu = cur_uid_;
      n->s = ++cur_child_;
    } else {
      n->b1 = 0;
      n->d = (at == now_) ? 1 : 0;
      n->pu = 0;
      n->s = ++*root_counter_;
    }
  }

  /// Install a callable payload on a fresh node (inline when it fits, one
  /// heap box otherwise). The caller stamps the birth key and inserts.
  template <typename F>
  EventNode* install_fn(F&& fn) {
    using Fn = std::decay_t<F>;
    EventNode* n = wheel_.acquire();
    if constexpr (sizeof(Fn) <= EventNode::kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(n->storage)) Fn(std::forward<F>(fn));
      n->invoke = [](EventNode* e) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(e->storage));
        struct Destroy {
          Fn* f;
          ~Destroy() { f->~Fn(); }
        } d{f};
        (*f)();
      };
      n->drop = [](EventNode* e) {
        std::launder(reinterpret_cast<Fn*>(e->storage))->~Fn();
      };
    } else {
      ++boxed_;
      ::new (static_cast<void*>(n->storage)) Fn*(new Fn(std::forward<F>(fn)));
      n->invoke = [](EventNode* e) {
        Fn* f = *std::launder(reinterpret_cast<Fn**>(e->storage));
        struct Destroy {
          Fn* f;
          ~Destroy() { delete f; }
        } d{f};
        (*f)();
      };
      n->drop = [](EventNode* e) {
        delete *std::launder(reinterpret_cast<Fn**>(e->storage));
      };
    }
    return n;
  }

  bool dispatch(EventNode* n) {
    if (n == nullptr) return false;
    now_ = n->at;
    cur_b0_ = n->b0;
    cur_b1_ = n->b1;
    cur_d_ = n->d;
    cur_pu_ = n->pu;
    cur_s_ = n->s;
    cur_uid_ = mix_uid(n->pu, n->s);
    cur_child_ = 0;
    in_event_ = true;
    ++steps_;
    struct Release {
      Engine& eng;
      EventNode* n;
      ~Release() {
        eng.in_event_ = false;
        eng.wheel_.release(n);
      }
    } r{*this, n};
    n->invoke(n);
    return true;
  }

  Nanos now_ = 0;
  Nanos cur_b0_ = 0;
  Nanos cur_b1_ = 0;
  std::uint32_t cur_d_ = 0;
  std::uint64_t cur_pu_ = 0;
  std::uint64_t cur_s_ = 0;
  std::uint64_t cur_uid_ = 0;
  std::uint64_t cur_child_ = 0;
  bool in_event_ = false;
  std::uint64_t root_seq_ = 0;
  std::uint64_t* root_counter_ = &root_seq_;
  std::uint64_t steps_ = 0;
  std::uint64_t boxed_ = 0;
  TimerWheel wheel_;
  std::function<std::string()> diagnostics_provider_;
};

}  // namespace spindle::sim
