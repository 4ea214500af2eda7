#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/group.hpp"

namespace spindle::core {

/// A membership view (epoch) in the virtual synchrony model (§2.1): fixed,
/// ordered membership known to every member; delivery order within the
/// epoch is a pure function of it.
struct View {
  std::uint32_t epoch = 0;
  std::vector<net::NodeId> members;
  std::vector<net::NodeId> departed;  // removed in the transition to this view
};

/// Application-defined mapping from a view to its subgroups. Must return
/// the same number of subgroups for every view (subgroup identity is
/// positional across views); memberships may shrink as nodes depart.
using SubgroupLayout = std::function<std::vector<SubgroupConfig>(const View&)>;

/// Virtual-synchrony managed group: runs Derecho-style membership on top
/// of the atomic multicast stack.
///
/// Protocol (a faithful simplification of Derecho's epoch termination):
///  1. every member heartbeats through a dedicated membership SST;
///  2. a member that misses heartbeats is *suspected*; suspicions propagate
///     by OR-ing SST rows and are never retracted;
///  3. on suspicion every member *wedges*: all subgroup sending, null
///     generation, acknowledgment and delivery freeze, and the member
///     publishes its frozen received_num values;
///  4. the leader (lowest unsuspected rank) computes the ragged trim — per
///     subgroup, the minimum frozen received_num over survivors — and
///     publishes it (guarded write);
///  5. every survivor acknowledges the proposal in its own row; once the
///     leader's copy shows every survivor's acknowledgment, survivors
///     deliver exactly through the trim (messages at or below it were
///     received by every survivor; messages above it are discarded
///     everywhere), then install the next view with fresh SST/SMC memory;
///  6. senders re-send their discarded messages in the new view, before
///     any new messages (failure atomicity for surviving senders).
///
/// The group halts (total failure) when the last live member of the view
/// crashes, or when a member's own suspicions cover its whole view.
///
/// The membership plane is event-driven, like Derecho's predicate thread:
/// a member's round runs when a peer's push lands in its membership SST,
/// when its next heartbeat is due (one per heartbeat period), and at its
/// earliest suspicion deadline, so suspicion fires exactly at the timeout
/// and each later hop of a view change costs a push, not a polling period.
///
/// Simplifications vs. the full Derecho protocol, documented in DESIGN.md:
/// the leader's install is one simulation step that stops every survivor's
/// data plane and delivers each survivor's trim at once (in Derecho each
/// survivor installs from its own SST copy), and joins are not supported
/// (the paper does not evaluate reconfiguration).
class ManagedGroup {
 public:
  struct Config {
    std::size_t nodes = 4;
    net::TimingModel timing{};
    CpuModel cpu{};
    std::uint64_t seed = 1;
    sim::Nanos failure_timeout = sim::micros(400);
    trace::TraceConfig trace{};  // one event stream spanning every epoch
  };

  /// What the recovery coordinator saw at a total-failure restart: the
  /// rejoining member set, every node's pre-recovery durable log (the
  /// optimistic device view, indexed [subgroup_index][node]), and the
  /// longest common durable prefix the members agreed on per subgroup.
  /// Snapshotted *before* the ragged trim and the replay.
  struct RecoveryInfo {
    std::uint32_t epoch = 0;  // the recovery view's epoch
    std::vector<net::NodeId> members;
    std::vector<std::vector<std::vector<std::vector<std::byte>>>> pre_logs;
    std::vector<std::size_t> common_prefix;  // per subgroup_index
  };
  using RecoveryObserver = std::function<void(const RecoveryInfo&)>;

  ManagedGroup(Config cfg, SubgroupLayout layout);
  ~ManagedGroup();
  ManagedGroup(const ManagedGroup&) = delete;
  ManagedGroup& operator=(const ManagedGroup&) = delete;

  void start();
  /// Halt for good: stop every live member, cancel the recovery's settle
  /// timer and drain the engine, so every coroutine of the group ends.
  void shutdown();

  sim::Engine& engine() noexcept { return engine_; }
  const Config& config() const noexcept { return cfg_; }
  net::Fabric& fabric() noexcept { return fabric_; }
  const View& view() const noexcept { return view_; }
  std::uint32_t epoch() const noexcept { return view_.epoch; }
  bool view_change_in_progress() const noexcept { return changing_; }
  Cluster& cluster() { return *epoch_cluster_; }

  /// The group-lifetime pipeline tracer: every epoch cluster records into
  /// this one stream, and the membership layer adds view_wedge / view_trim /
  /// view_install phase events, so one export shows the whole history.
  trace::Tracer& tracer() noexcept { return tracer_; }
  const trace::Tracer& tracer() const noexcept { return tracer_; }

  // Every entry point below that takes a node id or a subgroup index
  // throws std::out_of_range when it is outside the group.

  /// Failure-atomic multicast: the payload is retained by the group and
  /// automatically re-sent in the next view if a reconfiguration discards
  /// it. Completes when the message has been queued (not delivered).
  void send(net::NodeId from, std::size_t subgroup_index,
            std::vector<std::byte> payload);

  /// Deliveries at `node` for subgroup `subgroup_index`, across all views.
  void set_delivery_handler(net::NodeId node, std::size_t subgroup_index,
                            DeliveryHandler handler);

  /// Crash `node`: its traffic is dropped and its threads halt; the other
  /// members detect the failure and reconfigure. The crash of the view's
  /// last live member halts the group.
  void crash(net::NodeId node);

  /// Restart `node` after a total failure: recover its durable logs
  /// (truncating any torn flush tail), reconnect it to the fabric, and
  /// announce each log's durable record count through the membership SST.
  /// Once the group has halted and no further restart arrives within a
  /// settle window, the rejoiners agree on the longest common durable prefix,
  /// replay it to the delivery handlers, and resume in a fresh epoch.
  /// Calling this on a node that is still alive models a process restart:
  /// the node crashes first (torn tail and all). Returns false if the node
  /// is already rejoining or the group has been shut down for good.
  bool restart(net::NodeId node);

  /// Observer invoked inside each total-failure recovery, after the
  /// rejoiners exchanged durable record counts but before the trim and
  /// replay.
  void add_recovery_observer(RecoveryObserver obs) {
    recovery_observers_.push_back(std::move(obs));
  }

  /// True while the group is halted with restarted nodes waiting for the
  /// recovery view to be computed.
  bool recovery_pending() const noexcept {
    return stopped_ && !terminated_ && restarting_mask_ != 0;
  }
  /// Completed total-failure recoveries over the group's lifetime.
  std::uint32_t recoveries() const noexcept { return recoveries_; }

  /// Graceful leave: the node wedges cleanly and departs with no message
  /// loss (modeled as an announced suspicion).
  void leave(net::NodeId node);

  /// Fault injection: `node`'s host-fault table (net::HostFaults, owned
  /// by fabric()). Its windows may be set before start() and outlive view
  /// changes and recoveries, with nothing copied. A slow-CPU window
  /// deschedules the membership heartbeats and the data plane alike, so
  /// one longer than Config::failure_timeout provokes a *false suspicion*
  /// of a live node, which the membership layer resolves by removing it.
  net::HostFaults& faults(net::NodeId node) {
    check_node(node);
    return fabric_.host(node);
  }

  /// Persistent subgroups: `node`'s on-disk log for subgroup
  /// `subgroup_index` across every epoch it was a member of, as the device
  /// optimistically sees it (an in-flight batch included — torn tails are
  /// resolved at restart, not at crash time). A survivor's queue is flushed
  /// inside each install barrier.
  std::vector<std::vector<std::byte>> persistent_log(
      net::NodeId node, std::size_t subgroup_index) const;

  /// The versioned log behind persistent_log(): committed/staged split,
  /// records and version vector. Null for non-persistent
  /// subgroups (or before the node's first persistent epoch).
  const store::VersionedLog* durable_store(net::NodeId node,
                                           std::size_t subgroup_index) const {
    check_node(node);
    check_subgroup(subgroup_index);
    return stores_[node][subgroup_index].get();
  }

  std::size_t num_subgroups() const noexcept { return num_subgroups_; }

  /// True once the group has halted: the view's last live member crashed,
  /// or a member's suspicions cover its whole view, itself included (no
  /// leader can emerge). restart() can resume it; shutdown() also halts.
  bool halted() const noexcept { return stopped_; }

  bool is_alive(net::NodeId node) const {
    check_node(node);
    return alive_[node];
  }

  /// Heartbeats `node` has pushed over the group's lifetime.
  std::int64_t heartbeats(net::NodeId node) const {
    check_node(node);
    return node < mstate_.size() ? mstate_[node].hb : 0;
  }

 private:
  struct PendingMessage {
    std::vector<std::byte> payload;
    bool in_flight = false;  // handed to the current epoch's sender
  };
  /// Per (node, subgroup_index) failure-atomic send queue + pump actor. The
  /// pump runs while the queue holds a message the current epoch can send.
  struct SendQueue {
    std::deque<PendingMessage> q;
    bool pump_running = false;
    // Lifetime self-delivery pops: the queue front always holds the
    // sender's message number `popped`. Recovery compares it against the
    // durable prefix to drop entries the replay already covers (a fast
    // peer may have persisted a message its sender never saw delivered).
    std::uint64_t popped = 0;
  };

  // Membership service per-node state.
  struct MemberState {
    std::vector<std::int64_t> last_hb;        // last heartbeat value seen
    std::vector<sim::Nanos> last_change;      // when it changed
    std::int64_t hb = 0;                      // own heartbeat counter
    sim::Nanos hb_due = 0;                    // next heartbeat push
    bool hb_sent = false;  // this round pushed one (on_post adds its post)
    std::uint64_t suspected_mask = 0;
    bool wedged = false;
    /// The member scheduler's doorbell: the membership SST's landing
    /// signal, also rung by leave() and, at a survivor, by an install.
    std::unique_ptr<sim::Signal> doorbell;
  };

  /// Register one member's membership service on its own sst::Predicates
  /// scheduler: heartbeat, suspicion, wedge (once per epoch, on the first
  /// suspicion), proposal ack (once per epoch, on its leader's proposal),
  /// and the leader's proposal and install. A round runs when a peer's push
  /// lands in the member's membership SST, when its next heartbeat is due,
  /// at its earliest suspicion deadline (the scheduler's deadline), and at
  /// a survivor's install; every round's SST pushes are issued at the same
  /// virtual instant, in predicate order.
  void setup_membership_predicates(net::NodeId id);
  /// The first instant `id` may suspect some unsuspected peer of the
  /// current view: its last heartbeat change + failure_timeout + 1 ns
  /// (the suspicion check is strict). Never, when there is no such peer.
  sim::Nanos suspicion_deadline(net::NodeId id) const;
  void halt();  // total failure; arms the settle timer for early restarts
  /// (Re)arm the settle timer at max(now, last restart + kRestartSettle);
  /// it recovers the group if a recovery is still pending when it fires.
  void arm_settle_timer();
  void perform_recovery();
  void start_pump(net::NodeId id, std::size_t sg_index);  // unless running
  sim::Co<> pump_actor(net::NodeId id, std::size_t sg_index);

  /// Entry-point argument checks: throw std::out_of_range for a node id
  /// outside the group or a subgroup index outside the layout.
  void check_node(net::NodeId node) const;
  void check_subgroup(std::size_t subgroup_index) const;

  void wedge_node(net::NodeId id);
  void install_next_view(std::uint64_t failed_mask,
                         const std::vector<std::int64_t>& trim);
  /// The epoch entry an install and a recovery share: retire the epoch
  /// cluster, make `next` the current view, reset each member's
  /// view-change state (suspicions, wedge, heartbeat-change times) and
  /// requeue every undelivered message. The caller then builds the epoch
  /// cluster.
  void enter_view(View next);
  void build_epoch_cluster();
  /// The current view's members as a node bit mask.
  std::uint64_t view_mask() const;
  /// Halt the group when `id`'s suspicions cover its whole view.
  void halt_if_all_suspected(net::NodeId id);
  net::NodeId current_leader(std::uint64_t suspected) const;
  std::string diagnostics_dump() const;

  Config cfg_;
  SubgroupLayout layout_;
  sim::Engine engine_;
  net::Fabric fabric_;
  trace::Tracer tracer_;
  sim::Rng rng_;

  View view_;
  std::vector<char> alive_;
  bool changing_ = false;
  bool stopped_ = false;     // halted (total failure); recovery can clear it
  bool terminated_ = false;  // shut down for good; nothing restarts after
  std::size_t num_subgroups_ = 0;

  // Total-failure recovery state.
  std::uint64_t restarting_mask_ = 0;   // nodes waiting in the restart set
  sim::Nanos last_restart_at_ = 0;
  std::uint32_t recoveries_ = 0;
  sim::Engine::TimerId settle_timer_;  // arm_settle_timer()
  /// Predicate generation: bumped by every recovery. Schedulers and pump
  /// actors capture the generation they were spawned under and exit when
  /// it moves on, so a stale coroutine with one pending wake-up cannot run
  /// alongside its respawned replacement once stopped_ is cleared.
  std::uint64_t pred_gen_ = 0;
  std::vector<RecoveryObserver> recovery_observers_;

  // Membership SST (fixed over the lifetime: rows for every node ever).
  std::vector<std::unique_ptr<sst::Sst>> member_sst_;
  sst::FieldId f_hb_, f_susp_, f_wedged_epoch_;
  sst::FieldId f_prop_failed_, f_prop_guard_;
  sst::FieldId f_restart_;              // restart announcement flag
  std::vector<sst::FieldId> f_frozen_;  // per subgroup
  std::vector<sst::FieldId> f_trim_;    // per subgroup (leader proposal)
  std::vector<sst::FieldId> f_durable_;  // per subgroup (committed records)
  sst::FieldId f_ack_;  // epoch + 1 of the proposal this member acknowledged
  std::vector<MemberState> mstate_;

  // Membership predicate schedulers, one per member. They run across epoch
  // transitions (their predicates read the epoch-scoped state enter_view()
  // resets); only a total-failure recovery respawns them.
  std::vector<std::size_t> everyone_;       // SST ranks 0..nodes-1
  std::vector<sim::Rng> membership_rng_;    // per-member heartbeat jitter
  std::vector<std::unique_ptr<sst::Predicates>> member_preds_;
  // Pre-recovery predicate schedulers: kept alive like retired_ because a
  // stale run() coroutine may still have one pending wake-up queued.
  std::vector<std::unique_ptr<sst::Predicates>> retired_preds_;

  std::unique_ptr<Cluster> epoch_cluster_;
  std::vector<core::SubgroupId> epoch_subgroups_;  // index -> SubgroupId
  // Retired epoch clusters: kept alive until shutdown because their
  // (stopped) poller coroutines may still have one pending wake-up in the
  // engine queue.
  std::vector<std::unique_ptr<Cluster>> retired_;

  // (node, sg_index) -> queue; handlers preserved across views.
  std::vector<std::vector<SendQueue>> queues_;
  std::vector<std::vector<DeliveryHandler>> handlers_;

  // (node, sg_index) -> simulated-SSD versioned log. Owned here — one
  // store per node survives every epoch transition (and, unlike the Node
  // objects, a crash): each epoch cluster borrows it through
  // Cluster::set_store_provider and stamps its records with the epoch.
  std::vector<std::vector<std::unique_ptr<store::VersionedLog>>> stores_;
};

}  // namespace spindle::core
