#include "sim/mutex.hpp"

#include <algorithm>
#include <cassert>

namespace spindle::sim {

void Mutex::push_waiter(std::coroutine_handle<> h) {
  if (head_ == waiters_.size()) {
    // Ring empty: recycle the whole buffer (keeps capacity).
    waiters_.clear();
    head_ = 0;
  } else if (head_ > 64 && head_ > waiters_.size() / 2) {
    // Mostly-consumed prefix: compact so the buffer stays bounded by the
    // live high-water mark (amortized O(1) per waiter).
    waiters_.erase(waiters_.begin(),
                   waiters_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  waiters_.push_back(Waiter{h, engine_.now()});
}

void Mutex::unlock() {
  assert(locked_ && "unlock of an unlocked mutex");
  if (head_ == waiters_.size()) {
    locked_ = false;
    return;
  }
  Waiter next = waiters_[head_++];
  total_wait_ += engine_.now() - next.since;
  ++acquisitions_;
  // Ownership transfers to `next`; the mutex stays locked. Resume through
  // the event queue so stacks never nest.
  engine_.schedule_handle(engine_.now(), next.handle);
}

Signal::~Signal() {
  // Waiters still registered hold timeout events whose callbacks point at
  // our pooled state; cancel them so nothing dangles after we are gone.
  for (WaitState* s : waiters_) engine_.cancel(s->timeout);
}

Signal::WaitState* Signal::acquire_state() {
  if (free_ != nullptr) {
    WaitState* s = free_;
    free_ = s->next_free;
    s->next_free = nullptr;
    return s;
  }
  pool_.emplace_back();
  return &pool_.back();
}

void Signal::release_state(WaitState* s) noexcept {
  s->fired = false;
  s->timed_out = false;
  s->handle = nullptr;
  s->timeout = {};
  s->next_free = free_;
  free_ = s;
}

Co<bool> Signal::wait_for(Nanos timeout) {
  WaitState* state = acquire_state();
  waiters_.push_back(state);

  struct Suspend {
    Engine& engine;
    WaitState* state;
    Nanos timeout;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      state->handle = h;
      // The timeout event checks whether the signal already fired; if so it
      // is a no-op (the waiter was resumed by signal()). signal() cancels
      // it outright, so the common signalled path leaves no dead timer.
      state->timeout =
          engine.schedule_fn(engine.now() + timeout, [s = state] {
            if (!s->fired && s->handle) {
              s->timed_out = true;
              auto waiter = s->handle;
              s->handle = nullptr;
              waiter.resume();
            }
          });
    }
    void await_resume() const noexcept {}
  };

  // NOTE: the awaiter must be a named local, not a temporary. GCC 12
  // destroys subobjects of a temporary awaiter in `co_await Suspend{...}`
  // prematurely (observed as a use-after-free under ASan).
  Suspend suspend{engine_, state, timeout};
  co_await suspend;

  const bool ok = !state->timed_out;
  if (state->timed_out) {
    // Drop our stale registration so an idle poller that only ever times
    // out does not grow the waiter list unboundedly.
    std::erase(waiters_, state);
  }
  release_state(state);
  co_return ok;
}

void Signal::signal() {
  ++signals_;
  // Detach the registration list before waking anyone: a woken waiter that
  // re-waits (the doorbell poll loops in dds) push_backs into waiters_,
  // which must neither invalidate this iteration nor be wiped when it ends
  // — the re-registration belongs to the *next* signal. `spare_` recycles
  // the detached buffer's capacity so steady state stays allocation-free.
  std::vector<WaitState*> pending = std::exchange(waiters_, std::move(spare_));
  for (WaitState* s : pending) {
    if (!s->timed_out && !s->fired) {
      s->fired = true;
      engine_.cancel(s->timeout);
      if (s->handle) {
        auto h = s->handle;
        s->handle = nullptr;
        engine_.schedule_handle(engine_.now(), h);
      }
      // A timed waiter releases its own state once it resumes; an untimed
      // one has nothing left to read from it.
      if (!s->timeout.valid()) release_state(s);
    }
  }
  pending.clear();
  spare_ = std::move(pending);
}

}  // namespace spindle::sim
