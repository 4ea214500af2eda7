#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace spindle::trace {

/// Pipeline stage of a trace event. One enumerator per instrumented point
/// of the multicast pipeline (§3 of the paper), plus membership and fault
/// events so a chaos run lands in the same stream as the data plane.
enum class Stage : std::uint8_t {
  slot_acquire,    // sender claimed a ring slot (dur = wait for a free slot)
  construct,       // in-place message construction (dur = build cost)
  rdma_post,       // RDMA writes issued (dur = post CPU, arg = ring msgs)
  predicate,       // a predicate trigger fired (dur = locked compute time)
  receive,         // one message received (sender, msg_index)
  receive_batch,   // one receive-trigger batch (arg = messages, §3.2)
  null_send,       // nulls injected (arg = count, §3.3)
  send_batch,      // send predicate aggregated a batch (arg = app messages)
  deliver,         // delivery upcall (sender, msg_index, arg = global seq)
  delivery_batch,  // one delivery-trigger batch (arg = messages)
  persist,         // SSD flush batch published (arg = persisted seq)
  view_wedge,      // member wedged for a view change (arg = epoch)
  view_trim,       // leader published the ragged trim (arg = next epoch)
  view_install,    // new view installed (arg = new epoch)
  fault,           // fault-injection onset (arg = fault::FaultKind)
  predicate_fire,  // one registered sst::Predicates trigger acted
                   // (dur = its slice of the round's compute, arg = pred id)
  sched_service,   // scan-lane probe of a demoted group (arg = 1 when the
                   // probe fired and promoted the group, else 0)
  sched_park,      // a drained group parked (arg = 1) or was woken back
                   // into the rotation (arg = 0)
  recover,         // node rejoined from its durable log (arg = new epoch)
  session_open,    // front tier: client session admitted (arg = session id)
  session_close,   // front tier: session closed/cancelled/disconnected
                   // (arg = session id, msg_index = in-flight at close)
  rpc_request,     // front tier: request admitted at the gateway
                   // (arg = correlation id)
  rpc_reply,       // front tier: reply completed a request
                   // (dur = end-to-end RTT, arg = correlation id)
  admission_shed,  // front tier: request or session shed with Busy
                   // (arg = credit waiters at the decision)
  atomic_post,     // never recorded; benchmark/src reads it
};

inline constexpr std::size_t kNumStages = 25;
const char* to_string(Stage s);

inline constexpr std::uint32_t kNoSubgroup = UINT32_MAX;
inline constexpr std::uint32_t kNoSender = UINT32_MAX;

/// One span or instant in the pipeline. Compact POD so a disabled or
/// wrapped ring stays cheap; `dur == 0` marks an instant event.
struct Event {
  sim::Nanos t = 0;
  sim::Nanos dur = 0;
  std::uint32_t node = 0;
  std::uint32_t subgroup = kNoSubgroup;
  std::uint32_t sender = kNoSender;  // rank in the subgroup's sender list
  std::int64_t msg_index = -1;       // per-sender message index
  std::uint64_t arg = 0;             // stage-specific payload (batch size, seq)
  Stage stage = Stage::predicate;
};

struct TraceConfig {
  /// Construct-time kill switch: when false, record() is a tagged no-op
  /// (one predictable branch on a const flag) and no memory is allocated.
  bool enabled = false;
  /// Events retained per node. The ring overwrites the oldest events;
  /// dropped() reports how many were lost.
  std::size_t ring_capacity = 1 << 16;
};

/// Low-overhead deterministic event tracer: one fixed-capacity ring buffer
/// per node, filled by the pipeline hooks in core/, fault/ and the view
/// layer. Recording never touches the simulation engine, so an enabled
/// trace observes a run without perturbing its virtual time.
///
/// Kill switches: constructing with `enabled = false` (the default) makes
/// record() a single-branch no-op; compiling with -DSPINDLE_TRACE_DISABLED
/// removes the hooks entirely.
class Tracer {
 public:
  Tracer(const TraceConfig& cfg, std::size_t nodes);

  bool enabled() const noexcept { return enabled_; }
  std::size_t nodes() const noexcept { return rings_.size(); }

  void record(std::uint32_t node, Stage stage, sim::Nanos t, sim::Nanos dur = 0,
              std::uint32_t subgroup = kNoSubgroup,
              std::uint32_t sender = kNoSender, std::int64_t msg_index = -1,
              std::uint64_t arg = 0) {
#ifdef SPINDLE_TRACE_DISABLED
    (void)node, (void)stage, (void)t, (void)dur, (void)subgroup, (void)sender,
        (void)msg_index, (void)arg;
#else
    if (!enabled_) return;
    push(node, Event{t, dur, node, subgroup, sender, msg_index, arg, stage});
#endif
  }

  /// Events of one node in recording order (oldest surviving first).
  std::vector<Event> events(std::uint32_t node) const;
  /// All nodes' events merged into one deterministic stream, ordered by
  /// (time, node, per-node recording order).
  std::vector<Event> all_events() const;

  /// Total events recorded (including ones since overwritten).
  std::uint64_t total_recorded() const noexcept;
  /// Events lost to ring wrap-around at `node`.
  std::uint64_t dropped(std::uint32_t node) const;

  void clear();

 private:
  struct Ring {
    std::vector<Event> buf;  // capacity slots, circular once full
    std::size_t next = 0;    // insertion cursor
    std::uint64_t recorded = 0;
  };

  void push(std::uint32_t node, const Event& e);

  bool enabled_;
  std::size_t capacity_;
  std::vector<Ring> rings_;
};

}  // namespace spindle::trace
