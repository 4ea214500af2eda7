#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "net/timing.hpp"
#include "sim/engine.hpp"
#include "sim/mutex.hpp"

namespace spindle::net {

using NodeId = std::uint32_t;

/// Handle to a registered remote-writable memory region.
struct RegionId {
  std::uint32_t index = UINT32_MAX;
  bool valid() const noexcept { return index != UINT32_MAX; }
};

/// One node's injected host faults: the delays the chaos harness puts on a
/// machine rather than on its links. The Fabric keeps one record per node
/// for its whole life, so a window outlives every view change and
/// recovery with nothing copied. Each window is read where it acts, at
/// the moment it matters:
///
///  * slow CPU (`fault::FaultKind::slow_cpu`) — read at the top of every
///    round by each sst::Predicates loop of the node: the data-plane
///    polling thread and the membership service;
///  * predicate delay (`predicate_delay`) — read by those same loops when
///    a predicate of that name fires;
///  * post-plan lane drop (`postplan_drop`) — read when a loop issues its
///    round's plan. The membership service posts on a lane no window can
///    name (its SST is its own QP), so only the data plane sees it;
///  * spurious evals (`spurious_eval`) — read in the round pause of a
///    polling thread (a loop with an iteration_pause: the data plane);
///  * SSD (`ssd_fault`) — read by the persist logger of each persistent
///    subgroup when a flush starts.
///
/// Writers pass absolute virtual times and run on the node's own engine
/// (its partition worker under the parallel engine), the engine every
/// reader of the record runs on. Windows are kept for the record's life
/// (a plan injects a handful); an expired window is inert.
class HostFaults {
 public:
  /// Slow host (IRQ storm, VM pause, cgroup throttle): the node's
  /// simulated threads are descheduled until `until`, so acknowledgments,
  /// deliveries and heartbeats lag and peers may falsely suspect the live
  /// node. Windows merge: the stall ends at the latest `until` written.
  void slow_cpu(sim::Nanos until) { cpu_until_ = std::max(cpu_until_, until); }
  /// End of the slow-CPU window (in the past when none is open).
  sim::Nanos cpu_until() const noexcept { return cpu_until_; }

  /// SSD latency spike (GC pause, write cliff; a very large `extra` is a
  /// hung disk): every flush that starts before `until` pays `extra` on
  /// top of the op latency. A new window replaces the previous one; SSD
  /// windows do not stack.
  void ssd_fault(sim::Nanos until, sim::Nanos extra) {
    ssd_until_ = until;
    ssd_extra_ = extra;
  }
  /// Extra latency of a flush that starts at `now`.
  sim::Nanos ssd_extra(sim::Nanos now) const noexcept {
    return now < ssd_until_ ? ssd_extra_ : 0;
  }

  /// Slow trigger (lock contention, cache-hostile scan): until `until`,
  /// every fire of a predicate named `name` — data-plane (receive, send,
  /// deliver, ...) or membership (heartbeat, suspicion, ...) — charges
  /// `extra` more compute. Unknown names are inert; overlapping windows
  /// for one name stack.
  void predicate_delay(std::string name, sim::Nanos until, sim::Nanos extra) {
    delays_.push_back(Delay{std::move(name), until, extra});
  }
  /// Summed extra compute of a fire of `name` at `now`.
  sim::Nanos predicate_extra(const std::string& name, sim::Nanos now) const {
    sim::Nanos extra = 0;
    for (const Delay& w : delays_) {
      if (now < w.until && w.name == name) extra += w.extra;
    }
    return extra;
  }

  /// Stalled QP lane: until `until`, PostPlan actions on `lane` are held
  /// back instead of issued, and released in lane order by the first
  /// round after the window. Only lanes >= 0 can stall; the membership
  /// service posts on a negative lane of its own (its SST is its own QP).
  void postplan_drop(int lane, sim::Nanos until) {
    assert(lane >= 0 && "negative PostPlan lanes never stall");
    lane_drops_.push_back(LaneDrop{lane, until});
  }
  /// True when a window on `lane` is open after `at`. A loop asks with
  /// the instant its group's service began, so a window that opens or
  /// closes while the round sleeps its compute still holds that round's
  /// posts.
  bool lane_held(int lane, sim::Nanos at) const {
    for (const LaneDrop& w : lane_drops_) {
      if (w.lane == lane && w.until > at) return true;
    }
    return false;
  }
  /// True when a window on any lane is open after `at`.
  bool lanes_held(sim::Nanos at) const {
    for (const LaneDrop& w : lane_drops_) {
      if (w.until > at) return true;
    }
    return false;
  }
  /// The earliest end of a window still open after `at` (`at` itself when
  /// none is): the next instant a held action may release.
  sim::Nanos next_lane_release(sim::Nanos at) const {
    sim::Nanos next = at;
    for (const LaneDrop& w : lane_drops_) {
      if (w.until > at && (next == at || w.until < next)) next = w.until;
    }
    return next;
  }

  /// Phantom doorbells (interrupt storm): until `until`, a polling thread
  /// behaves as if its doorbell rang every round — idle backoff never
  /// engages — and each round burns `extra` wasted compute. Overlapping
  /// windows stack.
  void spurious_eval(sim::Nanos until, sim::Nanos extra) {
    spurious_.push_back(Spurious{until, extra});
  }
  /// Summed wasted compute of a polling round at `now`; > 0 also means
  /// the round counts as progress.
  sim::Nanos spurious_burn(sim::Nanos now) const {
    sim::Nanos extra = 0;
    for (const Spurious& w : spurious_) {
      if (now < w.until) extra += w.extra;
    }
    return extra;
  }

  /// The windows still open at `now`, for the watchdog dump, in the fault
  /// plan's vocabulary: e.g. "slow_cpu until=90000ns; predicate_delay
  /// pred=deliver until=120000ns extra=700ns". Empty when none is.
  std::string open_windows(sim::Nanos now) const;

 private:
  struct Delay {
    std::string name;
    sim::Nanos until;
    sim::Nanos extra;
  };
  struct LaneDrop {
    int lane;
    sim::Nanos until;
  };
  struct Spurious {
    sim::Nanos until;
    sim::Nanos extra;
  };
  sim::Nanos cpu_until_ = 0;
  sim::Nanos ssd_until_ = 0;
  sim::Nanos ssd_extra_ = 0;
  std::vector<Delay> delays_;
  std::vector<LaneDrop> lane_drops_;
  std::vector<Spurious> spurious_;
};

/// Traffic class of a region, modeling Derecho's use of separate RDMA
/// connections (QPs) for the SST and for SMC ring data. RDMA guarantees
/// ordering only *within* a QP: writes to the same region from the same
/// source stay FIFO (the memory-fence guarantee), but a tiny SST
/// acknowledgment on the control QP is not head-of-line blocked behind a
/// multi-hundred-KB SMC batch on the bulk QP — NICs interleave QPs
/// packet by packet.
enum class Channel { bulk, control };

/// Simulated RDMA fabric: N nodes on a full-bisection switch.
///
/// Supports the one operation Derecho's small-message stack needs:
/// one-sided RDMA WRITE into a pre-registered remote region, in two verbs:
///
///  * **inline** (`post_write(src_node, dst, off, bytes)`, like
///    IBV_SEND_INLINE) — at most kMaxInline payload bytes, copied into the
///    write record when posted. Later changes to the caller's buffer are
///    never seen. SST pushes use it;
///  * **registered-source** (`post_write(src, src_off, len, dst, off)`) —
///    a range of a registered region, read when the write lands, the way a
///    NIC DMAs a non-inline SGE straight from registered memory. Nothing is
///    copied at post. SMC ring data and trailers use it.
///
/// A destination range may be **memory-less** (register_region's
/// `memoryless` bytes): a write into it is posted, timed, FIFO-ordered,
/// counted, signalled and stable-source-checked exactly like one into
/// memory, but its bytes are copied nowhere. The simulator keeps one copy
/// of each SMC message this way, the sender's own slot, while the modelled
/// registered footprint stays the paper's.
///
/// Guarantees modeled after the hardware properties the SST relies on
/// (§2.2 of the paper):
///
///  * **per-link FIFO / memory fence** — two writes posted in order from A
///    to B become visible at B in that order, never interleaved;
///  * **cache-line atomicity** — a write's bytes appear at the destination
///    all at once (the simulator copies the whole payload in one event);
///  * **stable source** — the caller of a registered-source write must not
///    change the source range until the write has landed. The SMC slot
///    discipline gives this: a slot is rewritten only after every receiver
///    consumed it. The fabric checks the contract: it records the range's
///    last 8-byte word at post and aborts, in every build type, if that
///    word differs at landing.
///
/// Failure injection: `isolate()` silently drops all traffic to and from a
/// node, modeling a crash as seen by the network; `host()` is the node's
/// table of injected host faults.
class Fabric {
 public:
  /// `seed` (the run's seed) keys the link-fault jitter draws (see
  /// set_link_fault).
  Fabric(sim::Engine& engine, const TimingModel& timing, std::size_t n_nodes,
         std::uint64_t seed = 0);

  sim::Engine& engine() noexcept { return engine_; }
  const TimingModel& timing() const noexcept { return timing_; }
  std::size_t size() const noexcept { return n_; }

  /// Register `mem` (owned by the caller, must outlive the Fabric's use) as
  /// remotely writable memory of `node`, followed by `memoryless` bytes with
  /// no memory behind them (see the class comment). A write lies wholly in
  /// `mem` or wholly in the memory-less range.
  RegionId register_region(NodeId node, std::span<std::byte> mem,
                           Channel channel = Channel::bulk,
                           std::size_t memoryless = 0);

  /// Switch the fabric into parallel-simulation mode (sim::ParallelEngine):
  /// `engine_of_node[i]` is the worker engine that owns node i and
  /// `part_of_node[i]` its partition. Call once, before any region is
  /// registered. From then on every inter-node post is staged into a
  /// per-(src-partition, dst-partition) channel instead of being scheduled
  /// directly, and the owner must call merge_arrivals(p) for each partition
  /// at every lookahead barrier. Restrictions vs. serial mode (asserted or
  /// documented at the call sites): isolate()/restore() are not supported;
  /// pause/resume_egress and set_link_fault must run on the affected
  /// source node's worker; link-fault latency multipliers must be >= 1 so
  /// the lookahead bound stays valid.
  void configure_partitions(std::vector<sim::Engine*> engine_of_node,
                            std::vector<std::uint32_t> part_of_node,
                            std::size_t n_partitions);

  /// Apply every staged arrival destined to partition `dst_part`, in the
  /// serial engine's global post order (sorted by the posting events'
  /// birth keys). Must be called on `dst_part`'s worker thread, at a
  /// barrier where all workers are parked between lookahead windows.
  void merge_arrivals(std::size_t dst_part);

  /// Largest payload the inline verb carries.
  static constexpr std::size_t kMaxInline = 32;

  /// Inline write: post `src` (at most kMaxInline bytes, else the process
  /// aborts) from `src_node` into (dst region, dst_offset). The bytes are
  /// copied when posted.
  ///
  /// Returns the CPU cost of posting the verb, charged to the calling
  /// simulated thread: the caller must `co_await engine.sleep(cost)`
  /// immediately (or accumulate costs of a burst and sleep once).
  /// Consecutive posts at the same virtual timestamp, or back-to-back after
  /// sleeping the returned cost, form a burst and are charged the cheaper
  /// `post_cpu_next`.
  sim::Nanos post_write(NodeId src_node, RegionId dst, std::size_t dst_offset,
                        std::span<const std::byte> src);

  /// Registered-source (zero-copy) write: `len` bytes at `src_offset` of
  /// region `src`, posted by the node that owns it, into (dst region,
  /// dst_offset). The bytes are read when the write lands; the source
  /// range must stay unchanged until then (see the class comment). Same
  /// cost model as the inline verb.
  sim::Nanos post_write(RegionId src, std::size_t src_offset, std::size_t len,
                        RegionId dst, std::size_t dst_offset);

  /// Doorbell of a node: signalled whenever a write lands in any of the
  /// node's regions, except one whose landing signal replaces it. Pollers
  /// use it to wake from quiescent backoff.
  sim::Signal& doorbell(NodeId node) { return *doorbells_[node]; }
  const sim::Signal& doorbell(NodeId node) const { return *doorbells_[node]; }

  /// Attach a landing signal to region `r`: signalled (after the node's
  /// doorbell) whenever a write lands in that region alone, so a waiter
  /// that reads only this region is not woken by the node's other traffic.
  /// With `replaces_doorbell`, a landing in `r` rings this signal only, so
  /// the node's pollers of other regions are not woken by it either. The
  /// region's owner keeps the signal alive while writes can land, and
  /// binds it to the engine that owns the region's node. nullptr detaches
  /// (and the doorbell rings again).
  void set_landing_signal(RegionId r, sim::Signal* signal,
                          bool replaces_doorbell = false) {
    assert(r.index < regions_.size());
    regions_[r.index].landed = signal;
    regions_[r.index].doorbell = signal == nullptr || !replaces_doorbell;
  }

  /// Crash-style isolation: all in-flight and future traffic involving
  /// `node` is dropped.
  void isolate(NodeId node);
  bool is_isolated(NodeId node) const { return isolated_[node]; }

  /// Reconnect a previously isolated node (a process restart brought its
  /// NIC back). Nothing queued survives: the node rejoins with an empty
  /// send queue and fresh traffic only.
  void restore(NodeId node);

  /// Degraded-mode fault injection: stall all egress of `node` ("NIC
  /// stall"). Writes posted while stalled queue up in post order — the
  /// NIC's send queue backs up, nothing is lost — and drain through the
  /// normal wire model when resume_egress() runs. A node whose stall
  /// outlives the membership failure timeout looks exactly like a crashed
  /// node to its peers (heartbeats stop arriving) while it keeps receiving,
  /// which is the partial-failure case one-sided protocols find hardest.
  void pause_egress(NodeId node);
  void resume_egress(NodeId node);

  /// Degraded-mode fault injection: scale the latency of the src->dst link
  /// by `latency_multiplier` and add uniform jitter in [0, jitter) per
  /// write (congestion, routing flaps; RC retransmission shows up as
  /// latency, never as loss). multiplier 1 and jitter 0 restore the link.
  /// Per-QP FIFO is preserved regardless of jitter. Each draw hashes
  /// (seed, link, per-link draw count), so jittered runs are identical
  /// serial and parallel, at any worker count.
  void set_link_fault(NodeId src, NodeId dst, double latency_multiplier,
                      sim::Nanos jitter);

  /// Host-fault injection: `node`'s fault table (HostFaults), the only
  /// place its slow-CPU, SSD, predicate-delay, lane-drop and spurious-eval
  /// windows live.
  HostFaults& host(NodeId node) {
    assert(node < n_);
    return hosts_[node];
  }
  const HostFaults& host(NodeId node) const {
    assert(node < n_);
    return hosts_[node];
  }

  struct NicStats {
    std::uint64_t writes_posted = 0;
    std::uint64_t bytes_posted = 0;
    std::uint64_t writes_delivered = 0;
    sim::Nanos post_cpu = 0;
  };
  const NicStats& stats(NodeId node) const { return stats_[node]; }

 private:
  struct Region {
    NodeId node;
    std::span<std::byte> mem;
    std::size_t size;  // mem.size() plus the memory-less bytes after it
    Channel channel;
    // Per-source last delivery time: FIFO within (source, region), i.e.
    // within one QP — the RDMA memory-fence guarantee of §2.2.
    std::vector<sim::Nanos> fifo;
    sim::Signal* landed = nullptr;  // set_landing_signal
    bool doorbell = true;  // a landing also rings the node's doorbell
  };
  struct LinkFault {
    double latency_mult = 1.0;
    sim::Nanos jitter = 0;
  };
  static constexpr std::uint32_t kInlineSrc = UINT32_MAX;

  /// One write from post to landing — through the egress-stall queue, the
  /// parallel staging channels and the landing event: the destination
  /// range plus either the payload itself (inline verb) or the source
  /// range to read at landing (registered-source verb).
  struct Write {
    std::uint32_t dst;  // region index
    std::uint32_t dst_offset;
    std::uint32_t len;
    std::uint32_t src;  // source region index, or kInlineSrc
    union {
      std::byte bytes[kMaxInline];  // inline payload
      struct {
        std::uint64_t offset;
        std::uint64_t tail;  // last source word at post (stable-source check)
      } ref;
    };
  };

  /// One write between its source and destination halves. Egress
  /// serialization and the latency adder are resolved source-side (that
  /// state is per source node, hence single-worker); ingress serialization
  /// and the per-QP FIFO clamp are per *destination* node and are applied
  /// by deliver_arrival — at post time in serial mode, at the merge (in the
  /// sort order below) in parallel mode.
  struct Arrival {
    Write w;
    /// Bulk: arrival at the receiver NIC (pre-ingress). Control: delivery
    /// time (pre-FIFO-clamp) — control QPs skip ingress serialization.
    sim::Nanos base;
    sim::Nanos occ;  // bulk ingress occupancy
    NodeId src_node;
    NodeId dst_node;
    bool control;
    /// Full ordering key of the posting event (sim/sched.hpp): sorting
    /// merged arrivals by (k_at, k_b0, k_b1, k_d, k_pu, k_s) reproduces the
    /// serial engine's global post order, because that key is exactly the
    /// order the serial wheel dispatches events in. (del_pu, del_s) is the
    /// identity the posting event drew for the delivery event at post time
    /// (Engine::draw_child_key) — the same draw serial schedule_fn would
    /// make; del_s doubles as the final sort key ordering multiple posts
    /// from one event. Parallel mode only.
    sim::Nanos k_at = 0, k_b0 = 0, k_b1 = 0;
    std::uint32_t k_d = 0;
    std::uint64_t k_pu = 0, k_s = 0;
    std::uint64_t del_pu = 0, del_s = 0;
  };

  /// Shared body of both verbs: the burst-discounted post cost, then drop,
  /// loopback, egress-stall queueing or transmit.
  sim::Nanos post(NodeId src_node, const Write& w);
  /// The bytes a write lands: its inline payload, or its registered source
  /// range after the stable-source check.
  const std::byte* payload(const Write& w) const;
  /// Read the write's payload and copy it into `r`'s memory, unless it
  /// lands in the memory-less range (the source is read and checked
  /// either way).
  void store(const Region& r, const Write& w) const;
  /// Landing event body: store into the destination, ring its doorbell
  /// (unless the region's landing signal replaces it) and the region's
  /// landing signal.
  void land(const Write& w);

  /// Wire model shared by post_write and resume_egress: serialize at the
  /// sender's port from `ready` and apply link latency (plus any injected
  /// fault); the destination half runs now (serial) or is staged for the
  /// next barrier (parallel).
  void transmit(NodeId src_node, const Write& w, sim::Nanos ready);
  /// Destination half of both modes: ingress serialization, the per-QP
  /// FIFO clamp, and the landing event. Only how the landing is scheduled
  /// differs — plain in serial mode, re-stamped with the posting event's
  /// key in parallel mode.
  void deliver_arrival(const Arrival& a);

  sim::Engine& node_engine(NodeId node) noexcept {
    return parallel_ ? *engine_of_node_[node] : engine_;
  }
  /// Wire latency of a `bytes`-byte transfer on src->dst (latency_adder),
  /// shaped by that link's injected fault.
  sim::Nanos link_latency(NodeId src, NodeId dst, std::size_t bytes);
  sim::Nanos jitter_draw(NodeId src, NodeId dst, sim::Nanos jitter);

  sim::Engine& engine_;
  TimingModel timing_;
  std::size_t n_;
  std::vector<Region> regions_;
  std::vector<std::unique_ptr<sim::Signal>> doorbells_;
  std::vector<char> isolated_;
  std::vector<NicStats> stats_;

  // NIC port availability (bulk lane) and a lightly-loaded control lane
  // (SST QPs) that interleaves with bulk traffic, per node.
  std::vector<sim::Nanos> egress_free_;
  std::vector<sim::Nanos> ingress_free_;
  std::vector<sim::Nanos> control_egress_free_;
  std::vector<sim::Nanos> last_post_time_;
  std::vector<sim::Nanos> burst_end_;

  // Fault-injection state. Jitter draws are keyed by the fabric's seed and
  // a per-link counter, so a run with the same seed and fault schedule is
  // bit-reproducible in every engine mode.
  std::vector<char> egress_paused_;
  std::vector<std::deque<Write>> egress_queue_;
  std::vector<LinkFault> link_faults_;  // src * n_ + dst
  std::vector<std::uint64_t> jitter_seq_;  // src * n_ + dst: draws so far
  std::uint64_t jitter_seed_;
  std::vector<HostFaults> hosts_;  // per node

  // Parallel-mode routing state (empty in serial mode). staged_[s * P + d]
  // is written only by partition s's worker during a window and drained
  // only by partition d's worker at the barrier; the window barriers order
  // the two, so no cell needs a lock.
  bool parallel_ = false;
  std::size_t n_parts_ = 1;
  std::vector<sim::Engine*> engine_of_node_;
  std::vector<std::uint32_t> part_of_node_;
  std::vector<std::vector<Arrival>> staged_;
  std::vector<std::vector<Arrival>> merge_scratch_;  // per dst partition
};

}  // namespace spindle::net
