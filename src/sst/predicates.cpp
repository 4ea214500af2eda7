#include "sst/predicates.hpp"

#include <algorithm>
#include <cassert>

#include "net/fabric.hpp"

namespace spindle::sst {

namespace {
// Idle backoff: after this many empty rounds the scheduler waits on the
// doorbell, doubling the wait from idle_backoff_min per further empty
// round, at most 2^kIdleBackoffMaxShift times (and idle_backoff_max).
constexpr int kIdleStreakThreshold = 3;
constexpr int kIdleBackoffMaxShift = 8;

// Scan lane: consecutive quiet services before a group is demoted (only
// groups with a non-zero scan_interval demote).
constexpr int kDemoteAfter = 8;
// Scan lane: a group must also have been fire-free for at least this long,
// and for at least its scan_interval, before it is demoted. A hot group
// drains its window and sits out a handful of *fast* rounds between
// bursts, and those must not count against it; and since a demotion can
// delay a group by up to one scan_interval, only a group already idle that
// long should risk it.
constexpr sim::Nanos kDemoteQuiet = sim::micros(25);
// Scan lane: courtesy probes per doorbell wake from quiescence (rotating
// over the lane). Bounds the probe cost a wake can charge to a node with a
// long scan lane; the lane's own schedule still carries the scan_interval
// starvation bound.
constexpr std::size_t kKickBudget = 4;
}  // namespace

const char* to_string(PredicateClass c) {
  switch (c) {
    case PredicateClass::one_time:
      return "one_time";
    case PredicateClass::recurrent:
      return "recurrent";
    case PredicateClass::transition:
      return "transition";
  }
  return "?";
}

sim::Nanos PostPlan::issue() {
  // (lane, insertion) order: entries_ is already in insertion order, so a
  // stable sort on the lane alone realizes the full ordering contract.
  std::stable_sort(
      entries_.begin(), entries_.end(),
      [](const Entry& a, const Entry& b) { return a.lane < b.lane; });
  sim::Nanos post = 0;
  for (Entry& e : entries_) post += e.fn();
  entries_.clear();
  return post;
}

void PostPlan::extract_if(const std::function<bool(int)>& pred,
                          PostPlan& out) {
  std::vector<Entry> keep;
  keep.reserve(entries_.size());
  for (Entry& e : entries_) {
    if (pred(e.lane)) {
      out.entries_.push_back(std::move(e));
    } else {
      keep.push_back(std::move(e));
    }
  }
  entries_ = std::move(keep);
}

void PostPlan::splice_front(PostPlan& from) {
  if (from.entries_.empty()) return;
  from.entries_.insert(from.entries_.end(),
                       std::make_move_iterator(entries_.begin()),
                       std::make_move_iterator(entries_.end()));
  entries_ = std::move(from.entries_);
  from.entries_.clear();
}

Predicates::GroupId Predicates::add_group(GroupOptions opts) {
  groups_.push_back(Group{std::move(opts), {}, {}});
  return groups_.size() - 1;
}

Predicates::PredId Predicates::add(GroupId g, PredicateOptions opts) {
  assert(g < groups_.size());
  assert(opts.fire && "a predicate needs a trigger body");
  assert((opts.cls != PredicateClass::transition || opts.when) &&
         "a transition predicate needs a condition to edge-detect");
  Predicate p;
  p.cls = opts.cls;
  p.when = std::move(opts.when);
  p.fire = std::move(opts.fire);
  p.stats.name = std::move(opts.name);
  p.stats.cls = p.cls;
  preds_.push_back(std::move(p));
  const PredId id = preds_.size() - 1;
  groups_[g].preds.push_back(id);
  return id;
}

void Predicates::rearm(PredId p) {
  assert(p < preds_.size());
  preds_[p].done = false;
  preds_[p].edge = false;
  kick();
}

void Predicates::rearm_all() {
  for (Predicate& p : preds_) {
    p.done = false;
    p.edge = false;
  }
  kick();
}

/// A rearm made dormant predicates live again: cut an in-flight idle-backoff
/// wait short (the scheduler waits on the doorbell) and bump the rearm
/// generation so the next round resets its idle streak and promotes demoted
/// groups instead of waiting out the remaining backoff.
void Predicates::kick() {
  ++rearm_generation_;
  if (cfg_.doorbell != nullptr) cfg_.doorbell->signal();
}

void Predicates::release_held(sim::Nanos at) {
  if (held_.empty()) return;
  PostPlan release;
  held_.extract_if([&](int lane) { return !cfg_.faults->lane_held(lane, at); },
                   release);
  plan_.splice_front(release);
}

sim::Nanos Predicates::issue_plan(sim::Nanos at) {
  if (cfg_.faults != nullptr && cfg_.faults->lanes_held(at)) {
    plan_.extract_if([&](int lane) { return cfg_.faults->lane_held(lane, at); },
                     held_);
  }
  return plan_.issue();
}

void Predicates::visit(const std::function<void(const GroupOptions&,
                                                const PredicateStats&)>& fn)
    const {
  for (const Group& g : groups_) {
    for (PredId id : g.preds) fn(g.opts, preds_[id].stats);
  }
}

void Predicates::visit_groups(
    const std::function<void(const GroupOptions&, const GroupSched&)>& fn)
    const {
  for (const Group& g : groups_) fn(g.opts, g.sched);
}

/// One evaluation round over a group's predicates. Runs under the group's
/// lock (the scheduler holds it); pure compute — simulated CPU accumulates
/// in `work`, deferred RDMA in `plan`. Returns true iff any trigger acted.
bool Predicates::eval_group(Group& g, sim::Nanos& work, PostPlan& plan) {
  if (g.opts.enabled && !g.opts.enabled()) return false;
  bool any = false;
  for (PredId id : g.preds) {
    Predicate& p = preds_[id];
    if (p.done) continue;  // one_time already fired this arming
    ++p.stats.evals;
    if (p.when) {
      const bool holds = p.when();
      if (p.cls == PredicateClass::transition) {
        const bool rising = holds && !p.edge;
        p.edge = holds;
        if (!rising) continue;
      } else if (!holds) {
        continue;
      }
    }
    // Mark one_time done *before* the trigger runs, so a trigger that calls
    // rearm() on itself (epoch-scoped predicates re-arming at install) is
    // not immediately clobbered afterwards.
    if (p.cls == PredicateClass::one_time) p.done = true;
    const sim::Nanos before = work;
    TriggerContext ctx{work, plan};
    const bool acted = p.fire(ctx);
    // Per-predicate fault injection: a delayed predicate's fires charge
    // extra compute, pushing its post phase (and everything downstream)
    // later in virtual time.
    if (acted && cfg_.faults != nullptr) {
      work += cfg_.faults->predicate_extra(p.stats.name, engine_.now());
    }
    p.stats.cpu += work - before;  // guard costs accrue even on quiet rounds
    if (acted) {
      ++p.stats.fires;
      any = true;
      if (cfg_.on_predicate_fire) {
        cfg_.on_predicate_fire(g.opts, p.stats, id, before, work);
      }
    } else if (p.cls == PredicateClass::one_time && p.done) {
      p.done = false;  // guard held but the trigger declined: stay armed
    }
  }
  return any;
}

/// The scheduler loop: the dedicated polling thread of §2.4, with §3.4's
/// lock staging, the scan lane, and the doorbell-backed quiescent backoff
/// capped by the configured deadline. A ring that lands during a busy
/// round's compute or post sleep is not lost: a busy round is always
/// followed by another at once. One that lands during a quiet round's
/// pause is (`sim::Signal` wakes only current waiters); a registry whose
/// quiet rounds charge nothing, like the membership service's, has no
/// such pause.
sim::Co<> Predicates::run() {
  assert(cfg_.stopped && "configure() the scheduler before run()");
  int idle_streak = 0;
  std::uint64_t rearm_seen = rearm_generation_;
  while (!cfg_.stopped()) {
    if (cfg_.faults != nullptr) {
      const sim::Nanos until = cfg_.faults->cpu_until();
      if (until > engine_.now()) {
        // Slow host (fault injection): the polling thread is descheduled.
        co_await engine_.sleep(until - engine_.now());
        continue;
      }
    }
    if (rearm_generation_ != rearm_seen) {
      // A rearm landed (view install): the doorbell kick already cut any
      // in-flight backoff short; also drop the streak and promote demoted
      // groups so the re-armed predicates get full-rate rounds again.
      rearm_seen = rearm_generation_;
      promote_all();
      idle_streak = 0;
    }

    const Round round = plan_round();
    bool progress = false;
    sim::Nanos carry = 0;  // eval cost of quiet groups, slept once per round
    for (std::size_t k = 0; k < order_.size(); ++k) {
      if (cfg_.stopped()) break;
      if (k >= round.courtesy && progress) break;  // courtesy probes: idle only
      Group& g = groups_[order_[k]];
      const bool probe = k >= round.ready;
      if (g.opts.lock) co_await g.opts.lock->lock();
      plan_.clear();
      const sim::Nanos at = engine_.now();
      release_held(at);
      sim::Nanos work = 0;
      const bool acted = eval_group(g, work, plan_);
      if (g.opts.on_work) g.opts.on_work(work);
      if (!acted && plan_.empty()) {
        carry += work;
        settle(g, probe, false, at);
        if (g.opts.lock) g.opts.lock->unlock();
        continue;
      }
      progress = true;
      if (g.opts.on_fire) g.opts.on_fire(work);
      if (work + carry > 0) co_await engine_.sleep(work + carry);
      carry = 0;
      if (g.opts.lock && g.opts.early_release) g.opts.lock->unlock();
      const std::uint64_t arg = plan_.arg();
      const sim::Nanos post = issue_plan(at);
      if (post > 0) {
        if (g.opts.on_post) g.opts.on_post(post, arg);
        co_await engine_.sleep(post);
      }
      if (g.opts.lock && !g.opts.early_release) g.opts.lock->unlock();
      settle(g, probe, true, at);
    }
    if (cfg_.stopped()) break;

    sim::Nanos over = carry;
    if (cfg_.iteration_pause) {
      over += cfg_.iteration_pause();
      // Phantom doorbells (fault injection) hit the polling thread: the
      // round burns wasted evaluations and never backs off.
      if (cfg_.faults != nullptr) {
        const sim::Nanos burn = cfg_.faults->spurious_burn(engine_.now());
        if (burn > 0) progress = true;
        over += burn;
      }
    }
    if (over > 0) co_await engine_.sleep(over);

    if (progress) {
      idle_streak = 0;
    } else if (++idle_streak >= kIdleStreakThreshold) {
      // Quiescent backoff; the doorbell cuts the wait short when a remote
      // write lands (§2.4's doorbell wake-up).
      const int shift =
          std::min(idle_streak - kIdleStreakThreshold, kIdleBackoffMaxShift);
      sim::Nanos backoff =
          std::min(cfg_.idle_backoff_min << shift, cfg_.idle_backoff_max);
      // The scan lane and the deadline bound the backoff: neither a
      // demoted group's probe nor a predicate falling due may be pushed
      // past its time.
      const sim::Nanos now = engine_.now();
      const auto cap = [&](sim::Nanos due) {
        backoff = std::min(backoff, due > now ? due - now : 1);
      };
      for (const Group& g : groups_) {
        if (g.sched.demoted) cap(g.sched.next_scan);
      }
      if (cfg_.deadline) cap(cfg_.deadline());
      if (cfg_.doorbell != nullptr) {
        // A ring from quiescence means remote state moved somewhere —
        // possibly in a demoted group's rows. The doorbell cannot say
        // which group, so the next round courtesy-probes the scan lane; a
        // probe that fires promotes its group, the rest stay demoted at
        // one eval each (promoting wholesale would force every cold group
        // through a fresh quiet streak per wake).
        probe_kick_ = co_await cfg_.doorbell->wait_for(backoff);
      } else {
        co_await engine_.sleep(backoff);
      }
    }
  }
}

/// The service order. The rotation is every group not on the scan lane,
/// in registration order; a group quiet for kDemoteAfter services *and*
/// fire-free for max(kDemoteQuiet, scan_interval) leaves it (settle) and is
/// probed once per `scan_interval` instead of every round; a fire at a
/// probe or a rearm promotes it back.
///
/// The shared per-node doorbell cannot attribute a ring to a group, so
/// under load the scan lane is the latency bound for a cold group's first
/// message; from quiescence the doorbell wake courtesy-probes a budgeted
/// slice of the scan lane on the next idle round.
Predicates::Round Predicates::plan_round() {
  const sim::Nanos round_start = engine_.now();
  order_.clear();
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (!groups_[i].sched.demoted) order_.push_back(i);
  }
  const std::size_t ready = order_.size();
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    const GroupSched& sc = groups_[i].sched;
    if (sc.demoted && round_start >= sc.next_scan) order_.push_back(i);
  }
  // Courtesy probes (doorbell rang from quiescence): append a budgeted,
  // rotating slice of the scan lane, serviced only if the round turns out
  // idle — a busy round means the ring was almost surely the hot groups'
  // own traffic, and the due-probe lane above already carries the
  // starvation bound.
  const std::size_t courtesy = order_.size();
  if (probe_kick_) {
    probe_kick_ = false;
    std::size_t budget = kKickBudget;
    for (std::size_t step = 0; step < groups_.size() && budget > 0; ++step) {
      const std::size_t i = (kick_cursor_ + step) % groups_.size();
      const GroupSched& sc = groups_[i].sched;
      if (!sc.demoted || round_start >= sc.next_scan) continue;
      order_.push_back(i);
      if (--budget == 0) kick_cursor_ = i + 1;
    }
  }
  return Round{ready, courtesy};
}

/// Pull every demoted group off the scan lane (a rearm made dormant
/// predicates live again).
void Predicates::promote_all() {
  for (Group& g : groups_) {
    GroupSched& sc = g.sched;
    if (!sc.demoted) continue;
    sc.demoted = false;
    sc.quiet_streak = 0;
  }
}

void Predicates::settle(Group& g, bool probe, bool acted, sim::Nanos at) {
  GroupSched& sc = g.sched;
  ++sc.serviced;
  if (acted) {
    sc.quiet_streak = 0;
    sc.last_fire = at;
    sc.demoted = false;  // a probe that fired: the group is hot again
  } else if (probe) {
    sc.next_scan = at + g.opts.scan_interval;
  } else if (++sc.quiet_streak >= kDemoteAfter && g.opts.scan_interval > 0 &&
             at - sc.last_fire >=
                 std::max(kDemoteQuiet, g.opts.scan_interval)) {
    sc.demoted = true;
    ++sc.demotions;
    sc.next_scan = at + g.opts.scan_interval;
  }
  if (probe && cfg_.on_probe) cfg_.on_probe(g.opts, acted);
}

}  // namespace spindle::sst
