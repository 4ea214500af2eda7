#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/mutex.hpp"

namespace spindle::net {
class HostFaults;
}

namespace spindle::sst {

/// Monotonicity class of a registered predicate (Derecho TOCS §4):
///
///  - `one_time`:   fires at most once, then deregisters itself from
///                  evaluation. rearm() re-enables it (e.g. once per epoch).
///  - `recurrent`:  evaluated every round; fires whenever it holds. The
///                  data-plane stage predicates (receive / send / deliver)
///                  are recurrent over monotonic SST state.
///  - `transition`: fires on the false->true *edge* of its condition — the
///                  "monotonic deducibility" events of the membership layer
///                  (a peer became suspected, a proposal became visible).
enum class PredicateClass : std::uint8_t { one_time, recurrent, transition };

const char* to_string(PredicateClass c);

/// The deferred RDMA phase of a trigger, generalizing §3.4's early lock
/// release: the under-lock compute phase *describes* its pushes by appending
/// actions, and the scheduler issues them after the lock is (optionally
/// early-) released. Actions re-read live, monotonic state at issue time —
/// exactly the safety argument the paper makes for posting outside the lock.
///
/// Actions issue in (lane, insertion) order. Lanes pin protocol ordering
/// requirements across predicates — e.g. ring data+trailer writes before the
/// counter pushes that acknowledge them — independent of which trigger
/// appended which action first.
class PostPlan {
 public:
  /// An RDMA push: posts its writes and returns the CPU post cost to charge.
  using Action = std::function<sim::Nanos()>;

  void add(int lane, Action fn) {
    entries_.push_back(Entry{lane, std::move(fn)});
  }
  bool empty() const noexcept { return entries_.empty(); }
  std::size_t actions() const noexcept { return entries_.size(); }
  void clear() noexcept {
    entries_.clear();
    arg_ = 0;
  }

  /// Stage-specific annotation surfaced to the on_post hook (the data plane
  /// stores the ring-message count of the send batch, for trace spans).
  void set_arg(std::uint64_t a) noexcept { arg_ = a; }
  std::uint64_t arg() const noexcept { return arg_; }

  /// Issue every action in (lane, insertion) order; returns the summed CPU
  /// post cost the caller must sleep.
  sim::Nanos issue();

  /// Move every action whose lane satisfies `pred` to the back of `out`
  /// (insertion order kept on both sides). Fault-injection support: the
  /// scheduler quarantines dropped lanes this way.
  void extract_if(const std::function<bool(int)>& pred, PostPlan& out);

  /// Prepend `from`'s actions (and clear it): released actions are older
  /// than this round's, so the issue sort keeps them ahead of same-lane
  /// peers.
  void splice_front(PostPlan& from);

 private:
  struct Entry {
    int lane;
    Action fn;
  };
  std::vector<Entry> entries_;
  std::uint64_t arg_ = 0;
};

/// Handed to a trigger's under-lock compute phase: simulated CPU accumulates
/// in `work` (slept by the scheduler *before* the RDMA phase), deferred
/// pushes in `plan`.
struct TriggerContext {
  sim::Nanos& work;
  PostPlan& plan;
};

/// Per-predicate accounting (the §4.1.3 active-time breakdown, extended
/// from per-subgroup to per-stage).
struct PredicateStats {
  std::string name;
  PredicateClass cls = PredicateClass::recurrent;
  std::uint64_t evals = 0;  // scheduler rounds that considered it
  std::uint64_t fires = 0;  // rounds its trigger ran and acted
  sim::Nanos cpu = 0;       // simulated CPU charged by its compute phase
};

/// Registry + scheduler for SST predicates: the subsystem Derecho builds its
/// whole protocol stack on, extracted here as a first-class framework.
///
/// Predicates are registered into *groups*; a group is the unit of one lock
/// acquisition and one two-phase (compute, then RDMA) round. One scheduler
/// loop serves every registry, the data plane's polling thread (§2.4) and
/// the membership service alike: each round serves the groups in
/// registration order; busy services charge their compute cost under the
/// lock, release (early, per §3.4, when the group opts in), issue the
/// merged PostPlan, and sleep the post cost; quiet services carry their
/// eval cost forward, and quiet rounds back off onto the doorbell after an
/// idle streak, waking no later than the configured deadline. A group that
/// stays quiet and is drained parks (GroupOptions::park_after, drained):
/// it leaves the per-round rotation and costs nothing until its wake
/// signal rings, so a hot group stops paying a full lap of cold
/// evaluations per round. Every other group is evaluated every round.
/// A sleep of zero is skipped, so a round whose triggers charge no CPU (the
/// membership service's) adds no event.
class Predicates {
 public:
  using GroupId = std::size_t;
  using PredId = std::size_t;

  using Condition = std::function<bool()>;
  /// Under-lock compute phase. Returns true when the trigger *acted* (made
  /// protocol progress); quiet evaluations still charge ctx.work.
  using Trigger = std::function<bool(TriggerContext&)>;

  struct GroupOptions {
    std::string name;
    std::uint32_t tag = 0;      // owner id (e.g. subgroup id) for hooks
    sim::Mutex* lock = nullptr; // nullptr: lock-free group (membership SST)
    bool early_release = false; // §3.4: unlock before the RDMA phase
    /// Parking. A group quiet for several services and fire-free for
    /// max(25 µs, park_after) may park (`drained`). 0 disables parking —
    /// the group is swept every round, Derecho's full lap.
    sim::Nanos park_after = 0;
    /// Returns true when none of the group's predicates can hold again
    /// until its wake signal rings (wake_signal(), wake()). Asked under the
    /// lock at each quiet service once `park_after` allows parking; a
    /// drained group parks — it leaves the rotation, costs no evaluation,
    /// and rejoins in the round after a wake. A quiet group that is not
    /// drained waits on a peer's SST push, whose landing rings the
    /// doorbell, so it stays in the rotation. Only the data plane sets it.
    /// Unset: the group never parks.
    std::function<bool()> drained;
    /// Checked under the lock; a disabled group (e.g. a wedged subgroup)
    /// contributes no work, no plan, no fires.
    std::function<bool()> enabled;
    /// Called after every evaluation with the round's compute cost (CPU
    /// accounting — fires and quiet rounds alike).
    std::function<void(sim::Nanos work)> on_work;
    /// Called when the round acted, before the compute-cost sleep (the
    /// per-group `predicate` trace span).
    std::function<void(sim::Nanos work)> on_fire;
    /// Called when the round's plan posted RDMA writes (cost > 0), with the
    /// plan's annotation (the `rdma_post` trace span).
    std::function<void(sim::Nanos post, std::uint64_t arg)> on_post;
  };

  struct PredicateOptions {
    std::string name;
    PredicateClass cls = PredicateClass::recurrent;
    /// Optional guard. When absent the trigger self-guards (stage triggers
    /// whose guard evaluation *is* simulated work keep exact CPU accounting
    /// by charging it inside the trigger).
    Condition when;
    Trigger fire;
  };

  struct SchedulerConfig {
    std::function<bool()> stopped;  // required
    /// Fault injection: the host's fault table (net::HostFaults), asked
    /// where each window acts — a slow-CPU window at the top of a round,
    /// a predicate delay at a fire, a lane drop when the round's plan
    /// issues, spurious evals in the round pause of a polling thread (a
    /// loop with an iteration_pause). nullptr: no faults.
    const net::HostFaults* faults = nullptr;
    /// Rings when the predicates' inputs may have changed (a remote write
    /// landed) and on every rearm(); the quiescent backoff waits on it.
    /// nullptr: the backoff is a plain sleep.
    sim::Signal* doorbell = nullptr;
    /// Observability: a group parked (`parked` true) or was woken back
    /// into the rotation (false; the `sched_park` span).
    std::function<void(const GroupOptions& group, bool parked)> on_park;
    /// Per-round fixed cost (iteration overhead + jitter + hiccups).
    std::function<sim::Nanos()> iteration_pause;
    /// Quiescent backoff: after an idle streak the loop waits
    /// idle_backoff_min, doubling per further empty round up to
    /// idle_backoff_max, cut short by a doorbell ring.
    sim::Nanos idle_backoff_min = 0;
    sim::Nanos idle_backoff_max = 0;
    /// The absolute virtual time at which a predicate may next hold without
    /// a doorbell ring (a heartbeat falling due, a suspicion timeout),
    /// asked at each quiescent wait; the wait ends there at the latest.
    /// Unset: only the backoff (and a held action's release) bounds the
    /// wait.
    std::function<sim::Nanos()> deadline;
    /// Observability: a predicate's trigger acted, charging
    /// [work_before, work_now) of the group's compute span.
    std::function<void(const GroupOptions& group, const PredicateStats& pred,
                       std::size_t pred_ordinal, sim::Nanos work_before,
                       sim::Nanos work_now)>
        on_predicate_fire;
  };

  explicit Predicates(sim::Engine& engine) : engine_(engine) {}
  Predicates(const Predicates&) = delete;
  Predicates& operator=(const Predicates&) = delete;

  void configure(SchedulerConfig cfg) { cfg_ = std::move(cfg); }

  GroupId add_group(GroupOptions opts);
  PredId add(GroupId g, PredicateOptions opts);

  /// The scheduler coroutine; spawn exactly once on the engine. This object
  /// must outlive the coroutine (same discipline as any simulated thread).
  sim::Co<> run();

  /// Re-enable a one_time predicate (and reset a transition edge) — e.g. at
  /// view install, when the epoch-scoped membership predicates re-arm.
  /// Both forms kick the scheduler: an idle-backoff wait is cut short (via
  /// the doorbell) and parked groups are woken, so a re-armed predicate is
  /// evaluated promptly instead of waiting out the remaining backoff.
  void rearm(PredId p);
  void rearm_all();

  /// The wake signal of a group that can park (one with a `drained`
  /// callback; nullptr for any other group): the data plane makes it its
  /// ring region's landing signal. It wakes no waiter by itself — the
  /// doorbell rung with it cuts the backoff short — and the loop reads its
  /// count.
  sim::Signal* wake_signal(GroupId g) { return groups_[g].wake.get(); }
  /// A local input of `g` changed (a claim on this node). While `g` is
  /// parked, ring its wake signal and the doorbell; otherwise do nothing.
  void wake(GroupId g);

  /// Per-group scheduler accounting, exported into `cluster.stats()`.
  struct GroupSched {
    std::uint64_t serviced = 0;  // rounds the scheduler evaluated the group
    std::uint64_t parks = 0;     // times parked (quiet and drained)
    bool parked = false;         // currently off the rotation
    int quiet_streak = 0;        // consecutive quiet services
    sim::Nanos last_fire = 0;    // most recent acting service
    std::uint64_t wakes_seen = 0;  // wake-signal count when it parked
  };

  const PredicateStats& stats(PredId p) const { return preds_[p].stats; }
  const GroupSched& group_sched(GroupId g) const { return groups_[g].sched; }

  /// Visit every predicate with its group context (metrics collectors).
  void visit(const std::function<void(const GroupOptions&,
                                      const PredicateStats&)>& fn) const;

  /// Visit every group with its scheduler accounting (metrics collectors).
  void visit_groups(const std::function<void(const GroupOptions&,
                                             const GroupSched&)>& fn) const;

 private:
  struct Predicate {
    PredicateClass cls;
    Condition when;
    Trigger fire;
    PredicateStats stats;
    bool edge = false;  // transition: last observed condition value
    bool done = false;  // one_time: already fired
  };
  struct Group {
    GroupOptions opts;
    std::vector<PredId> preds;
    GroupSched sched;
    std::unique_ptr<sim::Signal> wake;  // groups that can park only
  };

  /// One evaluation round over `g`'s predicates; `work` accumulates the
  /// compute to sleep.
  bool eval_group(Group& g, sim::Nanos& work, PostPlan& plan);
  /// Lane drops (fault injection; a stalled QP lane). Held actions release
  /// into the front of plan_ at the top of the first group service `at`
  /// which their lane's window no longer covers (so a quiet group still
  /// flushes the backlog), issuing ahead of younger same-lane peers; the
  /// issue sort restores the global lane order. Safe by the framework's
  /// own contract: actions re-read live, monotonic state at issue time.
  void release_held(sim::Nanos at);
  /// plan_.issue() with the actions on lanes held for the service that
  /// began `at` moved into held_ first.
  sim::Nanos issue_plan(sim::Nanos at);

  /// Bookkeeping after one service of `g` that started at `at`: the quiet
  /// streak and, once the group may park, parking.
  void settle(Group& g, bool acted, sim::Nanos at);
  /// Park a quiet group if it is drained and no lane-dropped action is
  /// held (only a service releases one, and a parked group gets none).
  void park_if_drained(Group& g);
  /// A parked group whose wake signal rang since it parked.
  static bool woken(const Group& g) {
    return g.sched.parked && g.wake->signals() != g.sched.wakes_seen;
  }
  void kick();

  sim::Engine& engine_;
  SchedulerConfig cfg_;
  std::vector<Group> groups_;
  std::vector<Predicate> preds_;
  std::uint64_t rearm_generation_ = 0;  // bumped by rearm(); schedulers poll
  PostPlan plan_;  // reused across rounds; capacity reaches steady state
  PostPlan held_;  // lane-dropped actions awaiting their window's expiry
};

}  // namespace spindle::sst
