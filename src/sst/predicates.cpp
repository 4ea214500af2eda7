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

// Parking: consecutive quiet services before a group may park (only
// groups with a non-zero park_after park).
constexpr int kParkAfterServices = 8;
// Parking: a group must also have been fire-free for at least this long,
// and for at least its park_after, before it may park. A hot group drains
// its window and sits out a handful of *fast* rounds between bursts, and
// those must not count against it.
constexpr sim::Nanos kParkQuiet = sim::micros(25);
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
  std::unique_ptr<sim::Signal> wake;
  if (opts.drained) wake = std::make_unique<sim::Signal>(engine_);
  groups_.push_back(Group{std::move(opts), {}, {}, std::move(wake)});
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
/// generation so the next round resets its idle streak and wakes parked
/// groups instead of waiting out the remaining backoff.
void Predicates::kick() {
  ++rearm_generation_;
  if (cfg_.doorbell != nullptr) cfg_.doorbell->signal();
}

void Predicates::wake(GroupId g) {
  assert(g < groups_.size());
  if (!groups_[g].sched.parked) return;
  groups_[g].wake->signal();
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
/// lock staging, parking, and the doorbell-backed quiescent backoff capped
/// by the configured deadline and a held action's release. A ring that
/// lands during a busy round's compute or post sleep is not lost: a busy
/// round is always followed by another at once. One that lands during a
/// quiet round's pause is (`sim::Signal` wakes only current waiters) —
/// except a parked group's wake, which the loop reads off the group's wake
/// count before it backs off; a registry whose quiet rounds charge
/// nothing, like the membership service's, has no such pause.
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
      // in-flight backoff short; also drop the streak and wake parked
      // groups so the re-armed predicates get full-rate rounds again.
      rearm_seen = rearm_generation_;
      for (Group& g : groups_) {
        if (g.sched.parked) g.wake->signal();
      }
      idle_streak = 0;
    }
    // The rotation is every group not parked, in registration order; a
    // parked group rejoins it in the first round after its wake rang. Only
    // a group's own service parks it, so the set is fixed for the round.
    for (Group& g : groups_) {
      if (!woken(g)) continue;
      g.sched.parked = false;
      g.sched.quiet_streak = 0;
      if (cfg_.on_park) cfg_.on_park(g.opts, false);
    }

    bool progress = false;
    sim::Nanos carry = 0;  // eval cost of quiet groups, slept once per round
    for (Group& g : groups_) {
      if (cfg_.stopped()) break;
      if (g.sched.parked) continue;
      if (g.opts.lock) co_await g.opts.lock->lock();
      plan_.clear();
      const sim::Nanos at = engine_.now();
      release_held(at);
      sim::Nanos work = 0;
      const bool acted = eval_group(g, work, plan_);
      if (g.opts.on_work) g.opts.on_work(work);
      if (!acted && plan_.empty()) {
        carry += work;
        settle(g, false, at);
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
      settle(g, true, at);
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
      // A parked group's wake that rang during this round rang the doorbell
      // with no one waiting: serve it now instead of backing off.
      if (std::any_of(groups_.begin(), groups_.end(), woken)) continue;
      // Quiescent backoff; the doorbell cuts the wait short when a remote
      // write lands (§2.4's doorbell wake-up).
      const int shift =
          std::min(idle_streak - kIdleStreakThreshold, kIdleBackoffMaxShift);
      sim::Nanos backoff =
          std::min(cfg_.idle_backoff_min << shift, cfg_.idle_backoff_max);
      // A held action's release and the deadline bound the backoff:
      // neither a lane-dropped push whose window closes nor a predicate
      // falling due may be pushed past its time. A parked group waits on
      // its wake, and a quiet one on a peer's push, not on a time.
      const sim::Nanos now = engine_.now();
      const auto cap = [&](sim::Nanos due) {
        backoff = std::min(backoff, due > now ? due - now : 1);
      };
      if (!held_.empty()) cap(cfg_.faults->next_lane_release(now));
      if (cfg_.deadline) cap(cfg_.deadline());
      if (cfg_.doorbell != nullptr) {
        co_await cfg_.doorbell->wait_for(backoff);
      } else {
        co_await engine_.sleep(backoff);
      }
    }
  }
}

/// A group quiet for kParkAfterServices services *and* fire-free for
/// max(kParkQuiet, park_after) parks when drained (park_if_drained); one
/// that is not drained stays in the rotation and asks again at its next
/// quiet service. The peer's SST push it waits on lands in the rotation
/// and rings the doorbell; the shared per-node doorbell cannot attribute a
/// ring to one group, so a parked group wakes only on its own signal.
void Predicates::settle(Group& g, bool acted, sim::Nanos at) {
  GroupSched& sc = g.sched;
  ++sc.serviced;
  if (acted) {
    sc.quiet_streak = 0;
    sc.last_fire = at;
  } else if (++sc.quiet_streak >= kParkAfterServices &&
             g.opts.park_after > 0 &&
             at - sc.last_fire >= std::max(kParkQuiet, g.opts.park_after)) {
    park_if_drained(g);
  }
}

/// A held action (lane drop) issues only at the top of some group's
/// service, so no group parks while one is held.
void Predicates::park_if_drained(Group& g) {
  GroupSched& sc = g.sched;
  if (!g.opts.drained || !held_.empty() || !g.opts.drained()) return;
  sc.parked = true;
  ++sc.parks;
  sc.wakes_seen = g.wake->signals();
  if (cfg_.on_park) cfg_.on_park(g.opts, true);
}

}  // namespace spindle::sst
