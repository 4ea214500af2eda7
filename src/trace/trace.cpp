#include "trace/trace.hpp"

#include <algorithm>

namespace spindle::trace {

const char* to_string(Stage s) {
  switch (s) {
    case Stage::slot_acquire:
      return "slot_acquire";
    case Stage::construct:
      return "construct";
    case Stage::rdma_post:
      return "rdma_post";
    case Stage::predicate:
      return "predicate";
    case Stage::receive:
      return "receive";
    case Stage::receive_batch:
      return "receive_batch";
    case Stage::null_send:
      return "null_send";
    case Stage::send_batch:
      return "send_batch";
    case Stage::deliver:
      return "deliver";
    case Stage::delivery_batch:
      return "delivery_batch";
    case Stage::persist:
      return "persist";
    case Stage::view_wedge:
      return "view_wedge";
    case Stage::view_trim:
      return "view_trim";
    case Stage::view_install:
      return "view_install";
    case Stage::fault:
      return "fault";
    case Stage::predicate_fire:
      return "predicate_fire";
    case Stage::sched_park:
      return "sched_park";
    case Stage::recover:
      return "recover";
    case Stage::session_open:
      return "session_open";
    case Stage::session_close:
      return "session_close";
    case Stage::rpc_request:
      return "rpc_request";
    case Stage::rpc_reply:
      return "rpc_reply";
    case Stage::admission_shed:
      return "admission_shed";
    case Stage::atomic_post:
      return "atomic_post";
  }
  return "?";
}

Tracer::Tracer(const TraceConfig& cfg, std::size_t nodes)
    : enabled_(cfg.enabled),
      capacity_(cfg.ring_capacity < 1 ? 1 : cfg.ring_capacity) {
  rings_.resize(nodes);
  if (enabled_) {
    for (auto& r : rings_) r.buf.reserve(capacity_);
  }
}

void Tracer::push(std::uint32_t node, const Event& e) {
  Ring& r = rings_[node];
  if (r.buf.size() < capacity_) {
    r.buf.push_back(e);
  } else {
    r.buf[r.next] = e;  // overwrite the oldest slot
  }
  r.next = (r.next + 1) % capacity_;
  ++r.recorded;
}

std::vector<Event> Tracer::events(std::uint32_t node) const {
  const Ring& r = rings_[node];
  std::vector<Event> out;
  out.reserve(r.buf.size());
  if (r.buf.size() < capacity_) {
    out = r.buf;
  } else {
    // Unwrap: oldest surviving event sits at the insertion cursor.
    out.insert(out.end(), r.buf.begin() + static_cast<long>(r.next),
               r.buf.end());
    out.insert(out.end(), r.buf.begin(),
               r.buf.begin() + static_cast<long>(r.next));
  }
  return out;
}

std::vector<Event> Tracer::all_events() const {
  std::vector<Event> out;
  for (std::uint32_t n = 0; n < rings_.size(); ++n) {
    const auto ev = events(n);
    out.insert(out.end(), ev.begin(), ev.end());
  }
  // Per-node streams are already chronological; a stable sort on time keeps
  // (node, recording order) as the deterministic tie-break.
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });
  return out;
}

std::uint64_t Tracer::total_recorded() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rings_) total += r.recorded;
  return total;
}

std::uint64_t Tracer::dropped(std::uint32_t node) const {
  const Ring& r = rings_[node];
  return r.recorded - r.buf.size();
}

void Tracer::clear() {
  for (auto& r : rings_) {
    r.buf.clear();
    r.next = 0;
    r.recorded = 0;
  }
}

}  // namespace spindle::trace
