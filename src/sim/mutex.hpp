#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace spindle::sim {

/// Simulated mutex with FIFO handoff. Contention statistics are recorded so
/// experiments can report lock wait time (the quantity §3.4 of the paper
/// optimizes). Ownership transfers directly to the longest waiter; the
/// waiter resumes through the event queue at the release timestamp.
///
/// The waiter list is a compacting vector ring: steady-state contention is
/// allocation-free (the vector grows once to the high-water mark and the
/// consumed prefix is recycled amortized O(1)).
class Mutex {
 public:
  explicit Mutex(Engine& engine) : engine_(engine) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  auto lock() {
    struct Awaiter {
      Mutex& m;
      bool await_ready() noexcept {
        if (!m.locked_) {
          m.locked_ = true;
          ++m.acquisitions_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ++m.contended_acquisitions_;
        m.push_waiter(h);
      }
      void await_resume() noexcept {}
    };
    return Awaiter{*this};
  }

  void unlock();

  bool locked() const noexcept { return locked_; }
  std::uint64_t acquisitions() const noexcept { return acquisitions_; }
  std::uint64_t contended_acquisitions() const noexcept {
    return contended_acquisitions_;
  }
  Nanos total_wait() const noexcept { return total_wait_; }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    Nanos since;
  };

  void push_waiter(std::coroutine_handle<> h);

  Engine& engine_;
  bool locked_ = false;
  std::vector<Waiter> waiters_;  // ring: [head_, size) are live
  std::size_t head_ = 0;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_acquisitions_ = 0;
  Nanos total_wait_ = 0;
};

/// One-shot waitable event: the doorbell primitive. wait() parks until the
/// next signal(); wait_for() also gives up after a timeout. Multiple
/// waiters, timed or not, are all released by one signal(), in the order
/// they started waiting.
///
/// Wait state is pooled inside the Signal (a poll loop that waits and times
/// out repeatedly allocates nothing after the first lap), and the timeout
/// event is cancelled the moment the signal fires, so an active doorbell
/// leaves no dead timers behind in the scheduler.
class Signal {
 public:
  explicit Signal(Engine& engine) : engine_(engine) {}
  ~Signal();
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  /// Awaitable: park until the next signal(). Schedules no event; a
  /// waiter never signalled stays parked, its coroutine frame never freed.
  auto wait() {
    struct Awaiter {
      Signal& sig;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sig.waiters_.push_back(sig.acquire_state());
        sig.waiters_.back()->handle = h;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Awaitable<bool>: true = signalled, false = timed out.
  Co<bool> wait_for(Nanos timeout);

  /// Wake all current waiters at the present virtual time.
  void signal();

  std::uint64_t signals() const noexcept { return signals_; }
  std::size_t waiters() const noexcept { return waiters_.size(); }

 private:
  struct WaitState {
    bool fired = false;
    bool timed_out = false;
    std::coroutine_handle<> handle;
    Engine::TimerId timeout;  // invalid for an untimed wait()
    WaitState* next_free = nullptr;
  };

  WaitState* acquire_state();
  void release_state(WaitState* s) noexcept;

  Engine& engine_;
  std::uint64_t signals_ = 0;
  std::vector<WaitState*> waiters_;
  std::vector<WaitState*> spare_;  // detached-list buffer recycled by signal()
  std::deque<WaitState> pool_;  // stable addresses; nodes recycled via free_
  WaitState* free_ = nullptr;
};

}  // namespace spindle::sim
