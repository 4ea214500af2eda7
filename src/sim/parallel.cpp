#include "sim/parallel.hpp"

#include <cassert>
#include <cstdio>
#include <thread>

namespace spindle::sim {

namespace {
/// Spin budget before a barrier waiter blocks: worth paying only when every
/// worker can actually run at once; on oversubscribed hosts spinning just
/// steals the core from the thread we are waiting for.
int spin_budget(std::size_t workers) {
  const unsigned hw = std::thread::hardware_concurrency();
  return (hw != 0 && hw >= workers) ? 4096 : 0;
}
}  // namespace

ParallelEngine::ParallelEngine(std::size_t workers, Nanos lookahead)
    : lookahead_(lookahead),
      barrier_(workers == 0 ? 1 : workers, spin_budget(workers)),
      next_at_(workers == 0 ? 1 : workers, 0),
      has_next_(workers == 0 ? 1 : workers, 0) {
  assert(lookahead > 0 && "conservative lookahead must be positive");
  if (workers == 0) workers = 1;
  engines_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    engines_.push_back(std::make_unique<Engine>());
    // All workers draw root-event identities from one counter, so a setup
    // sequence stamps the same worker-count-invariant keys it would stamp
    // on a single serial wheel (see Engine::set_root_counter).
    engines_.back()->set_root_counter(&root_seq_);
  }
}

ParallelEngine::~ParallelEngine() = default;

Nanos ParallelEngine::now() const {
  Nanos t = 0;
  for (const auto& e : engines_) t = t > e->now() ? t : e->now();
  return t;
}

std::uint64_t ParallelEngine::steps() const {
  std::uint64_t s = 0;
  for (const auto& e : engines_) s += e->steps();
  return s;
}

std::uint64_t ParallelEngine::boxed() const {
  std::uint64_t b = 0;
  for (const auto& e : engines_) b += e->boxed();
  return b;
}

void ParallelEngine::decide(Mode mode, const std::function<bool()>* cond,
                            Nanos max_virtual, Nanos horizon) {
  Nanos min_at = 0;
  bool any = false;
  for (std::size_t w = 0; w < engines_.size(); ++w) {
    if (!has_next_[w]) continue;
    if (!any || next_at_[w] < min_at) min_at = next_at_[w];
    any = true;
  }
  cmd_run_ = false;
  switch (mode) {
    case Mode::drain:
      if (!any) return;
      break;
    case Mode::until:
      if ((*cond)()) {
        met_ = true;
        return;
      }
      if (!any) return;  // drained without meeting the condition
      if (max_virtual > 0 && min_at > max_virtual) {
        std::fprintf(stderr,
                     "sim::ParallelEngine::run_until: watchdog tripped — next "
                     "event at %lld ns exceeds max_virtual %lld ns after %llu "
                     "windows\n",
                     static_cast<long long>(min_at),
                     static_cast<long long>(max_virtual),
                     static_cast<unsigned long long>(windows_));
        return;
      }
      break;
    case Mode::to:
      if (!any || min_at > horizon) return;
      break;
  }
  // Jump straight to the earliest pending event: idle gaps (heartbeat
  // periods, etc.) cost one window, not gap/lookahead windows.
  window_end_ = min_at + lookahead_;
  if (mode == Mode::to && window_end_ > horizon + 1) window_end_ = horizon + 1;
  cmd_run_ = true;
  ++windows_;
}

void ParallelEngine::worker_loop(std::size_t w, Mode mode,
                                 const std::function<bool()>* cond,
                                 Nanos max_virtual, Nanos horizon) {
  Engine& eng = *engines_[w];
  while (cmd_run_) {
    eng.run_window(window_end_);
    // Barrier 1: every worker has stopped at the window edge, so all staged
    // cross-partition sends for this window are published.
    barrier_.arrive_and_wait([] {});
    if (merge_hook_) merge_hook_(w);
    has_next_[w] = eng.peek_next(&next_at_[w]) ? 1 : 0;
    // Barrier 2: the last worker to arrive negotiates the next window (or
    // decides to stop) while the rest are parked.
    barrier_.arrive_and_wait(
        [&] { decide(mode, cond, max_virtual, horizon); });
  }
}

bool ParallelEngine::drive(Mode mode, const std::function<bool()>* cond,
                           Nanos max_virtual, Nanos horizon) {
  met_ = false;
  for (std::size_t w = 0; w < engines_.size(); ++w) {
    has_next_[w] = engines_[w]->peek_next(&next_at_[w]) ? 1 : 0;
  }
  decide(mode, cond, max_virtual, horizon);
  if (cmd_run_) {
    std::vector<std::thread> threads;
    threads.reserve(engines_.size());
    for (std::size_t w = 0; w < engines_.size(); ++w) {
      threads.emplace_back(
          [this, w, mode, cond, max_virtual, horizon] {
            worker_loop(w, mode, cond, max_virtual, horizon);
          });
    }
    for (auto& t : threads) t.join();
  }
  return met_;
}

void ParallelEngine::run() { drive(Mode::drain, nullptr, 0, 0); }

bool ParallelEngine::run_until(const std::function<bool()>& stop_condition,
                               Nanos max_virtual) {
  return drive(Mode::until, &stop_condition, max_virtual, 0);
}

void ParallelEngine::run_to(Nanos t) {
  drive(Mode::to, nullptr, 0, t);
  for (auto& e : engines_) e->run_to(t);  // no events <= t remain: sync now
}

}  // namespace spindle::sim
