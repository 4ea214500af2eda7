#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "metrics/metrics.hpp"
#include "net/fabric.hpp"
#include "sim/mutex.hpp"
#include "sim/rng.hpp"
#include "smc/ring.hpp"
#include "sst/predicates.hpp"
#include "sst/sst.hpp"
#include "store/versioned_log.hpp"

namespace spindle::core {

class Cluster;

using SubgroupId = std::uint32_t;

/// A delivered application message (nulls are filtered out before upcall).
struct Delivery {
  SubgroupId subgroup;
  std::size_t sender;             // rank in the subgroup's sender list
  std::int64_t seq;               // global round-robin sequence (-1 if unordered)
  std::int64_t sender_index;      // per-sender message index (counts nulls)
  std::span<const std::byte> data;  // valid only during the upcall
  /// Virtual time the sender constructed this message (-1 if unknown, e.g.
  /// a view-change trim redelivery). Delivery latency = now() - sent_at.
  sim::Nanos sent_at = -1;
  /// Application flag bits the sender attached via Node::send (the slot
  /// trailer carries them on the wire, so they survive reordering and
  /// view-change redelivery). Bit 0 is reserved for the protocol's null
  /// marker and never appears here. The DDS front tier uses a bit to tag
  /// relayed RPC envelopes.
  std::uint32_t flags = 0;
};

/// Upcall invoked by the predicate thread. Runs on the critical path (§3.5):
/// its simulated cost is CpuModel::upcall_cost plus the subgroup's
/// extra_upcall_delay. The data span must not be retained; use
/// memcpy_on_delivery (or copy yourself) to keep the contents.
using DeliveryHandler = std::function<void(const Delivery&)>;

/// §3.5 mitigation (1): a batched delivery upcall that consumes *all*
/// currently deliverable messages in one call, paying the per-upcall cost
/// (including extra_upcall_delay) once per batch instead of once per
/// message. Mutually exclusive with the per-message handler.
using BatchDeliveryHandler = std::function<void(std::span<const Delivery>)>;

/// Membership and policy of one subgroup, fixed for the duration of a view.
struct SubgroupConfig {
  std::string name;
  std::vector<net::NodeId> members;
  std::vector<net::NodeId> senders;  // subset of members, in delivery order
  ProtocolOptions opts;

  /// Throws std::invalid_argument with a descriptive message if the
  /// configuration is not a valid subgroup of a cluster whose members are
  /// `cluster_members`: members non-empty and duplicate-free, every member
  /// in the cluster, senders a non-empty subset of members, window >= 1,
  /// nonzero message size, persistence only with atomic delivery.
  void validate(std::span<const net::NodeId> cluster_members) const;
};

/// Per-node, per-subgroup protocol state. Internal to Node/Cluster.
struct SubgroupState {
  SubgroupId id = 0;
  SubgroupConfig cfg;
  std::size_t my_member_idx = SIZE_MAX;
  std::size_t my_sender_idx = SIZE_MAX;  // SIZE_MAX: not a sender
  bool is_sender() const { return my_sender_idx != SIZE_MAX; }
  std::size_t num_senders() const { return cfg.senders.size(); }

  sst::FieldId f_received;   // this subgroup's received_num column
  sst::FieldId f_delivered;  // this subgroup's delivered_num column
  std::unique_ptr<smc::RingGroup> ring;
  std::vector<std::size_t> peer_ranks;       // SST ranks of peer members
  std::vector<std::size_t> ring_targets;     // peer indices in cfg.members
  std::vector<std::size_t> member_sst_ranks; // SST rank of each cfg.member

  // Receiver state: contiguous messages consumed per sender, and the
  // derived global counters mirrored into the SST.
  std::vector<std::int64_t> n_received;
  std::int64_t received_num = -1;
  std::int64_t delivered_num = -1;
  /// The current service advanced received_num under receive batching;
  /// its deliver stage plans the push (Node::plan_counter_push).
  bool ack_due = false;
  std::uint64_t counter_writes = 0;  // SST writes of this group's counters

  // Sender state. Indices count both application messages and nulls.
  std::int64_t claimed = 0;  // next sender-index to claim
  std::int64_t pushed = 0;   // indices below this have a post planned
  std::int64_t posted = 0;   // indices below this have had writes posted

  bool wedged = false;  // view change in progress: no new sends

  /// Cache-pressure multiplier on polling costs (CpuModel::cold_multiplier
  /// of this subgroup's ring footprint) — the §4.1.2 window-size effect.
  double scan_cost_factor = 1.0;

  // --- Persistent mode (durable Paxos frontier) ---
  sst::FieldId f_persisted;  // this subgroup's persisted_num column
  struct PersistEntry {
    std::int64_t seq;
    std::uint32_t sender;  // sender rank (for the versioned-log record)
    std::int64_t index;    // per-sender message index
    std::vector<std::byte> bytes;
  };
  std::deque<PersistEntry> persist_queue;  // delivered, awaiting SSD flush
  std::unique_ptr<sim::Signal> persist_signal;  // rung by enqueue and stop()
  /// Durable versioned log (simulated SSD). Owned by the Cluster for a
  /// standalone group, or by the ManagedGroup for an epoch cluster — where
  /// it outlives views and process restarts. Null for non-persistent
  /// subgroups.
  store::VersionedLog* dlog = nullptr;
  std::int64_t persisted_local = -1;   // local flushed frontier (seq)
  std::int64_t persisted_global = -1;  // min over members, last reported
  std::function<void(std::int64_t)> persist_handler;

  DeliveryHandler handler;
  BatchDeliveryHandler batch_handler;
  std::vector<Delivery> batch_buffer;  // reused per delivery trigger
  /// Optional extra simulated cost per delivered message, e.g. the DDS
  /// volatile/logged QoS storing the sample (memcpy + SSD append).
  std::function<sim::Nanos(const Delivery&)> delivery_cost_hook;

  // Per-subgroup predicate CPU (for the §4.1.3 active-time accounting).
  sim::Nanos predicate_cpu = 0;
  /// This subgroup's group on the node's predicate scheduler.
  sst::Predicates::GroupId sched_group = 0;

  /// Global round-robin sequence of message (sender_idx, msg_index).
  std::int64_t seq_of(std::size_t sender_idx, std::int64_t msg_index) const {
    return msg_index * static_cast<std::int64_t>(num_senders()) +
           static_cast<std::int64_t>(sender_idx);
  }
};

/// One simulated machine: local SST copy, ring buffers, the single
/// predicate (polling) thread, and the application-facing send API.
/// Injected host faults are not state of the Node: its polling thread and
/// persist loggers read them from the fabric's table for this machine
/// (`cluster.fabric().host(id)`, net::HostFaults), so a window set before
/// start() or before an epoch's Node exists still acts.
class Node {
 public:
  Node(Cluster& cluster, net::NodeId id, sim::Rng rng);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  ~Node();

  net::NodeId id() const noexcept { return id_; }

  /// In-place atomic multicast send (§3.1): acquires a free ring slot
  /// (waiting if the window is full), upcalls `builder` to construct the
  /// message directly in the slot, and queues it. With send_batching the
  /// send predicate posts the writes; otherwise they are posted inline.
  /// Must be awaited from a simulated application thread. `flags` are
  /// application bits carried in the slot trailer and surfaced unchanged
  /// as Delivery::flags at every receiver (bit 0 is protocol-reserved and
  /// masked out). The slot wait parks on wait_signal().
  sim::Co<> send(SubgroupId sg, std::uint32_t len,
                 std::function<void(std::span<std::byte>)> builder,
                 std::uint32_t flags = 0);

  /// §3.3 extension — declared inactivity: a sender that deliberately will
  /// not send for a while announces up to `rounds` rounds of silence so the
  /// round-robin delivery order skips it without waiting for the reactive
  /// null-send path. The announcement is a batch of nulls flushed as a
  /// single trailer-range write. Returns the number of rounds actually
  /// claimed (bounded by free ring slots; repeat for longer silences, or
  /// reconfigure the node as a non-sender at the next view).
  std::int64_t declare_inactive(SubgroupId sg, std::int64_t rounds);

  void set_delivery_handler(SubgroupId sg, DeliveryHandler h);
  /// Install a batched upcall (§3.5 mitigation 1) instead of a per-message
  /// handler. Atomic delivery mode only.
  void set_batch_delivery_handler(SubgroupId sg, BatchDeliveryHandler h);
  void set_delivery_cost_hook(SubgroupId sg,
                              std::function<sim::Nanos(const Delivery&)> h);
  /// Persistent mode: called (from the polling thread) whenever the global
  /// persistence frontier advances — every message with seq <= frontier is
  /// on stable storage at *every* member (durable-Paxos commit point).
  void set_persistence_handler(SubgroupId sg,
                               std::function<void(std::int64_t)> h);
  /// Persistent mode: a copy of this node's flushed log (delivery order,
  /// nulls excluded).
  std::vector<std::vector<std::byte>> persistent_log(SubgroupId sg) const;
  std::int64_t persisted_frontier(SubgroupId sg) const;
  /// Persistent mode: the versioned log behind persistent_log() (null for
  /// non-persistent subgroups). Record/version-vector inspection for
  /// tests and the recovery protocol.
  const store::VersionedLog* durable_store(SubgroupId sg) const;

  /// View-change support: synchronously move every queued persist entry to
  /// the durable log and advance the local frontier. Survivors run this
  /// inside the install barrier so a reconfiguration never loses locally
  /// delivered-but-unflushed appends (crashed nodes do lose theirs).
  void flush_persist_queue();

  metrics::ProtocolCounters& counters() noexcept { return counters_; }
  const metrics::ProtocolCounters& counters() const noexcept {
    return counters_;
  }
  sim::Mutex& lock() noexcept { return *lock_; }
  sst::Sst& sst() { return *sst_; }
  /// Rings when a write lands in this node's SST table, when its deliver
  /// stage advances a delivered_num, when a sequencer on this node grants
  /// this node a gsn, and at stop(): the only events that can free a ring
  /// slot (slot_free() reads the members' delivered_num; a wedged
  /// subgroup stays wedged until its epoch's node stops) or deliver a gsn
  /// grant. A sender waiting for a slot and a cross-shard requester
  /// waiting for its grant park on it and re-check when it rings.
  sim::Signal& wait_signal() noexcept { return wait_signal_; }

  /// The engine this node's events run on — its partition's worker under
  /// the parallel engine, the cluster engine otherwise. Every trigger,
  /// actor, and timestamp on this node uses this engine, never a peer's.
  sim::Engine& engine() noexcept { return engine_; }

  /// The per-stage predicate registry this node's data plane runs on
  /// (per-predicate eval/fire/CPU drill-down). Null before start().
  const sst::Predicates* predicates() const noexcept { return preds_.get(); }

  /// Total app messages this node has delivered in `sg`.
  std::uint64_t delivered_in(SubgroupId sg) const;
  /// Highest sequence of `sg` that every member has delivered, as this
  /// node's SST copy last saw it (min delivered_num over members; -1
  /// before any). Advances as members' delivered_num pushes land here.
  std::int64_t delivered_frontier(SubgroupId sg) const;
  /// Predicate CPU spent in `sg`'s predicates.
  sim::Nanos predicate_cpu_in(SubgroupId sg) const;

  // --- internal wiring (used by Cluster) ---
  void add_subgroup(SubgroupState s);
  /// View-change support (core/view.hpp): deliver every message up to and
  /// including `trim` directly, bypassing the (frozen) stability check.
  /// Only valid when the subgroup is wedged and trim <= frozen
  /// received_num — i.e. all these messages are present locally.
  void force_deliver_through(SubgroupId sg, std::int64_t trim);
  void init_sst(sst::Layout layout, const std::vector<net::NodeId>& all);
  void start();  // spawn the predicate thread
  void stop();   // stop predicate thread and app sends (crash simulation)
  bool stopped() const noexcept { return stopped_; }
  SubgroupState* find(SubgroupId sg);
  const SubgroupState* find(SubgroupId sg) const;
  std::vector<std::unique_ptr<SubgroupState>>& subgroups() {
    return subgroups_;
  }
  void wedge_all();

 private:
  friend class Cluster;

  /// find() that throws std::invalid_argument (public-API boundary) when
  /// this node is not a member of `sg`.
  SubgroupState& require(SubgroupId sg);

  /// Build the sst::Predicates registry: one group per subgroup (the unit
  /// of one lock round), with the pipeline stages of §2.4 registered as
  /// individual predicates — receive, null-send (§3.3), send (§3.2),
  /// deliver, persist-frontier. Called once from start().
  void setup_predicates();

  // Stage triggers: the under-lock compute phase of each registered
  // predicate. Simulated CPU accumulates in ctx.work, deferred RDMA pushes
  // in ctx.plan (issued by the scheduler after the — possibly early, §3.4 —
  // unlock). Each returns true iff it made protocol progress.
  bool trigger_receive(SubgroupState& s, sst::TriggerContext& ctx);
  bool trigger_null_send(SubgroupState& s, sst::TriggerContext& ctx);
  bool trigger_send(SubgroupState& s, sst::TriggerContext& ctx);
  bool trigger_deliver(SubgroupState& s, sst::TriggerContext& ctx);
  bool trigger_persist_frontier(SubgroupState& s, sst::TriggerContext& ctx);

  /// Plan the service's batched counter pushes (see multicast.cpp):
  /// `delivered` is whether a delivery batch advanced delivered_num.
  void plan_counter_push(SubgroupState& s, sst::PostPlan& plan,
                         bool delivered);
  /// Push own-row columns [first..last] of `s`'s counters to its peers,
  /// counting the writes; returns the CPU post cost.
  sim::Nanos push_counters(SubgroupState& s, sst::FieldId first,
                           sst::FieldId last);

  /// RDMA phase of the send predicate and of the baseline's inline send:
  /// data writes for runs of application messages in [s.posted, last), then
  /// one trailer-range write covering the whole batch; s.posted becomes
  /// `last`. Returns the CPU post cost.
  static sim::Nanos post_send_range(SubgroupState& s, std::int64_t last);

  /// Write-behind SSD logger for a persistent subgroup: drains the persist
  /// queue in delivery order (batching appends), then publishes the
  /// advanced persisted_num through the SST.
  sim::Co<> persist_logger(SubgroupState& s);
  /// Enqueue a delivered message for persistence (returns the memcpy cost
  /// of staging it out of the ring). `sender`/`index` ride along into the
  /// versioned-log record.
  sim::Nanos enqueue_persist(SubgroupState& s, std::int64_t seq,
                             std::size_t sender, std::int64_t index,
                             std::span<const std::byte> data);
  /// The tail every delivery path shares (reception in unordered mode,
  /// the delivery predicate, the view-change trim): trace `d` at virtual
  /// time `at`, upcall the per-message handler unless `upcall` is false
  /// (a batched upcall follows), count it and sample its latency.
  void finish_delivery(SubgroupState& s, const Delivery& d, sim::Nanos at,
                       bool upcall = true);

  /// No stage predicate of `s` can hold until a trailer lands in its ring
  /// or this node claims a slot (multicast.cpp gives the argument); the
  /// scheduler parks such a group once it has been quiet long enough.
  bool drained(const SubgroupState& s) const;
  /// A claim on `s` (send, declare_inactive) is an input no landing
  /// announces: ring the polling thread's doorbell, and wake `s`'s
  /// scheduler group if it is parked.
  void wake_group(const SubgroupState& s) {
    if (preds_) preds_->wake(s.sched_group);
  }
  bool slot_free(const SubgroupState& s, std::int64_t idx) const;
  std::int64_t min_delivered(const SubgroupState& s) const;
  void recompute_received_num(SubgroupState& s);

  std::vector<std::uint64_t> delivered_per_sg_;

  Cluster& cluster_;
  net::NodeId id_;
  sim::Engine& engine_;  // this node's partition worker (see engine())
  sim::Rng rng_;
  std::unique_ptr<sim::Mutex> lock_;
  sim::Signal wait_signal_;
  std::unique_ptr<sst::Predicates> preds_;
  std::unique_ptr<sst::Sst> sst_;
  std::vector<std::unique_ptr<SubgroupState>> subgroups_;
  metrics::ProtocolCounters counters_;
  bool stopped_ = false;
  bool started_ = false;
  sim::Nanos next_hiccup_ = 0;      // polling thread
  sim::Nanos next_app_hiccup_ = 0;  // application sender thread

  /// Draw the next hiccup time and return the stall to charge now (0 if no
  /// hiccup is due).
  sim::Nanos hiccup_penalty(sim::Nanos& next);
};

}  // namespace spindle::core
