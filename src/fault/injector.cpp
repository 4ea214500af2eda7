#include "fault/injector.hpp"

namespace spindle::fault {

void FaultInjector::arm() {
  sim::Engine& eng = group_.engine();
  for (const FaultEvent& e : plan_.events) {
    eng.schedule_fn(e.at, [this, e] { fire(e); });
  }
}

void FaultInjector::fire(const FaultEvent& e) {
  sim::Engine& eng = group_.engine();
  net::Fabric& fab = group_.fabric();
  // Injection instant in the shared trace stream: arg encodes the kind, and
  // a link fault targets the peer so both endpoints are identifiable.
  group_.tracer().record(
      e.node, trace::Stage::fault, eng.now(), e.duration, trace::kNoSubgroup,
      e.kind == FaultKind::link_fault ? e.peer : trace::kNoSender, -1,
      static_cast<std::uint64_t>(e.kind));
  // A transient fault ends at `until`: a heal event for the fabric's NIC
  // and link faults, a window in the node's fault table for host faults.
  const sim::Nanos until = eng.now() + e.duration;
  switch (e.kind) {
    case FaultKind::crash:
      group_.crash(e.node);
      break;
    case FaultKind::nic_stall: {
      fab.pause_egress(e.node);
      const net::NodeId node = e.node;
      eng.schedule_fn(until, [&fab, node] { fab.resume_egress(node); });
      break;
    }
    case FaultKind::link_fault: {
      fab.set_link_fault(e.node, e.peer, e.factor, e.jitter);
      const net::NodeId src = e.node, dst = e.peer;
      eng.schedule_fn(until, [&fab, src, dst] {
        fab.set_link_fault(src, dst, 1.0, 0);
      });
      break;
    }
    case FaultKind::slow_cpu:
      group_.faults(e.node).slow_cpu(until);
      break;
    case FaultKind::ssd_fault:
      group_.faults(e.node).ssd_fault(until, e.extra);
      break;
    case FaultKind::predicate_delay:
      group_.faults(e.node).predicate_delay(e.pred, until, e.extra);
      break;
    case FaultKind::postplan_drop:
      group_.faults(e.node).postplan_drop(e.lane, until);
      break;
    case FaultKind::spurious_eval:
      group_.faults(e.node).spurious_eval(until, e.extra);
      break;
    case FaultKind::total_failure:
      // The episode's crash half: same fail-stop as crash, tagged so the
      // plan dump and coverage accounting can tell episodes apart.
      group_.crash(e.node);
      break;
    case FaultKind::restart:
      group_.restart(e.node);
      break;
  }
}

}  // namespace spindle::fault
