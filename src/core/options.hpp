#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace spindle::core {

/// Delivery semantics of a subgroup (used by the DDS QoS mapping, §4.6).
enum class DeliveryMode {
  /// Atomic multicast: upcall when the message is stable (received by every
  /// member), in the global round-robin order.
  atomic,
  /// Unordered: upcall as soon as the message is received, with no ordering
  /// or stability guarantee. The stability machinery still runs to recycle
  /// ring slots, but without upcalls.
  unordered,
};

/// Feature switches for the Spindle optimizations (§3). The baseline is the
/// pre-Spindle Derecho behaviour the paper measures against.
struct ProtocolOptions {
  /// §3.2 — send predicate aggregates all queued messages into ring-range
  /// RDMA writes. Off: the sender thread posts each message individually.
  bool send_batching = true;
  /// §3.2 — receive predicate consumes every new message per sender and
  /// pushes received_num once; off: one message + one ack push per message.
  bool receive_batching = true;
  /// §3.2 — delivery predicate delivers everything stable and pushes
  /// delivered_num once; off: one message + one push per message.
  bool delivery_batching = true;
  /// §3.3 — null-send scheme for lagging senders.
  bool null_sends = true;
  /// §3.4 — restructure triggers so RDMA writes are posted after the shared
  /// state lock is released.
  bool early_lock_release = true;
  /// §3.5/§4.4 — pragmatic copy-in/copy-out modes.
  bool memcpy_on_send = false;
  bool memcpy_on_delivery = false;

  std::uint32_t window_size = 100;      // SMC ring slots per sender (w)
  std::uint32_t max_msg_size = 10240;   // slot payload bytes (m)
  DeliveryMode mode = DeliveryMode::atomic;
  /// Extra application processing time per delivery upcall (§3.5 experiment).
  sim::Nanos extra_upcall_delay = 0;

  /// Persistent atomic multicast (the paper's footnote 2: Derecho's
  /// persistent mode is equivalent to classical durable Paxos). Delivered
  /// messages are copied to a write-behind log on simulated SSD; a
  /// per-subgroup persisted_num SST column tracks each member's flushed
  /// frontier, and the minimum over members — the *global persistence
  /// frontier* — is reported through the persistence handler. Atomic
  /// delivery mode only.
  bool persistent = false;

  static ProtocolOptions baseline();
  static ProtocolOptions spindle();
};

/// CPU cost model for protocol bookkeeping on the simulated threads. These
/// are the "microsecond delays" the paper is about; values are calibrated so
/// that the baseline reproduces the paper's reported overheads (predicate
/// thread >30% posting time; Figure 8 multigroup decay). A slot probe, a
/// member check and a received message's bookkeeping are charged only for
/// what a peer's NIC wrote: the node's own trailer row and SST columns hold
/// values it wrote itself, and reading them is free.
struct CpuModel {
  sim::Nanos predicate_eval = 40;        // evaluate one predicate guard
  sim::Nanos per_sender_scan = 60;       // receive predicate probe/peer sender
  /// One peer's column: in the delivery predicate's stability min(), and
  /// in the gsn grant scan per requester other than the sequencer itself.
  sim::Nanos per_member_check = 15;
  /// Bookkeeping per message received from a peer, and per gsn grant.
  sim::Nanos per_message_receive = 40;
  sim::Nanos per_message_delivery = 30;  // bookkeeping per delivered message
  sim::Nanos upcall_cost = 100;          // application handling per message
  /// Slot claim + API bookkeeping per send (the Derecho get_buffer/send
  /// path). In-place *construction* of the payload additionally costs
  /// memcpy_cost(len) — the application still has to write the bytes once.
  sim::Nanos send_setup = 1500;
  sim::Nanos iteration_overhead = 80;    // predicate loop fixed cost
  sim::Nanos iteration_jitter = 60;      // uniform [0,j) per iteration
  /// Unread by the simulator: the slot and gsn-grant waits park on
  /// Node::wait_signal() instead of polling. Kept only because benchmark/
  /// prints it as run provenance.
  sim::Nanos sender_poll_interval = 300;

  /// Rare longer scheduling hiccups (IRQ balancing, scheduler moves —
  /// the §3.3 motivation): roughly every `hiccup_mean_gap`, a thread
  /// (polling thread and application sender threads alike) loses
  /// `hiccup_duration` of CPU. This is the "inevitable small relative
  /// motion between the members" of §4.2.2 that triggers occasional nulls
  /// even under continuous sending.
  sim::Nanos hiccup_mean_gap = 150'000;
  sim::Nanos hiccup_duration = 8'000;

  /// Local memory copy model (paper Figure 14 shape). Copies run hot in
  /// cache at close to L2/L3 bandwidth.
  double memcpy_GBps = 26.0;
  sim::Nanos memcpy_base = 40;
  /// In-place message *construction* is slower than a straight memcpy
  /// (scattered writes, application logic).
  double construction_GBps = 11.0;

  /// Cache model for the §4.1.2 window-size effect: when a subgroup's ring
  /// footprint (senders * window * slot) exceeds the LLC, every slot probe
  /// and message touch is a cache/TLB miss. The multiplier applied to
  /// per-sender scans and per-message receive/delivery costs grows from 1
  /// toward `cold_factor` as the footprint exceeds `llc_bytes`.
  std::uint64_t llc_bytes = 32ull << 20;
  double cold_factor = 6.0;

  double cold_multiplier(std::uint64_t footprint_bytes) const {
    if (footprint_bytes <= llc_bytes) return 1.0;
    const double excess = static_cast<double>(footprint_bytes - llc_bytes) /
                          static_cast<double>(2 * llc_bytes);
    const double m = 1.0 + 2.0 * excess;
    return m > cold_factor ? cold_factor : m;
  }

  /// Idle poller backoff (quiescence): doubles from min to max, reset on
  /// progress; the fabric doorbell cuts it short when traffic arrives.
  sim::Nanos idle_backoff_min = 200;
  sim::Nanos idle_backoff_max = 50'000;

  /// Simulated SSD for persistent mode and the DDS logged QoS: page-cache
  /// append bandwidth plus a fixed per-operation latency. A batch of
  /// appends flushed together pays the op latency once; the logged QoS pays
  /// it per delivered sample.
  double ssd_GBps = 2.0;
  sim::Nanos ssd_op_latency = 8'000;
  /// Torn-tail granularity of the durable versioned log: a crash mid-flush
  /// keeps only whole sectors of the in-flight batch, and a record
  /// straddling the boundary is torn (dropped at recovery).
  std::uint32_t ssd_sector_bytes = 512;

  sim::Nanos ssd_append_cost(std::size_t bytes) const {
    return static_cast<sim::Nanos>(static_cast<double>(bytes) / ssd_GBps);
  }

  sim::Nanos memcpy_cost(std::size_t bytes) const {
    return memcpy_base + static_cast<sim::Nanos>(
                             static_cast<double>(bytes) / memcpy_GBps);
  }
  sim::Nanos construction_cost(std::size_t bytes) const {
    return memcpy_base + static_cast<sim::Nanos>(
                             static_cast<double>(bytes) / construction_GBps);
  }
};

}  // namespace spindle::core
