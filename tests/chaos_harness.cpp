#include "chaos_harness.hpp"

#include <sstream>

#include "fault/injector.hpp"
#include "fault/vsync.hpp"

namespace spindle::chaos {

ChaosOutcome run_chaos(std::uint64_t seed) {
  // Group shape is itself seed-derived: 3-5 nodes, sometimes persistent.
  sim::Rng shape(seed);
  const std::size_t nodes = 3 + shape.below(3);
  const bool persistent = shape.below(3) == 0;
  const std::uint64_t msgs_per_sender = 16 + shape.below(25);

  core::ManagedGroup::Config cfg;
  cfg.nodes = nodes;
  cfg.seed = seed;
  core::ManagedGroup group(cfg, [persistent](const core::View& v) {
    core::SubgroupConfig sc;
    sc.name = "chaos";
    sc.members = v.members;
    sc.senders = v.members;
    sc.opts = core::ProtocolOptions::spindle();
    sc.opts.max_msg_size = 64;
    sc.opts.window_size = 8;
    sc.opts.persistent = persistent;
    return std::vector<core::SubgroupConfig>{sc};
  });
  group.start();

  fault::VsyncChecker checker;
  checker.attach(group);

  fault::FaultPlan::RandomSpec spec;
  spec.nodes = nodes;
  spec.max_crashes = nodes - 2;
  spec.min_at = sim::micros(20);
  spec.horizon = sim::millis(2);
  spec.failure_timeout = cfg.failure_timeout;
  // Total-failure episodes on: about a third of the seeds additionally
  // crash every node late in the horizon and restart most of them, so the
  // sweep exercises recovery from durable logs under arbitrary preceding
  // fault mixes.
  spec.allow_total_failure = true;
  fault::FaultInjector injector(group,
                                fault::FaultPlan::random(seed, spec));
  injector.arm();
  const sim::Nanos last_fault_onset =
      injector.plan().events.empty() ? 0 : injector.plan().events.back().at;

  // Spread each sender's submissions over time so traffic is in flight
  // when the faults land (an idle group would make the schedule vacuous).
  for (net::NodeId n = 0; n < nodes; ++n) {
    const sim::Nanos gap = 1 + shape.below(30'000);
    for (std::uint64_t i = 0; i < msgs_per_sender; ++i) {
      const std::uint64_t idx = checker.note_send(n, 0);
      group.engine().schedule_fn(static_cast<sim::Nanos>(i) * gap, [&group, n,
                                                                    idx] {
        group.send(n, 0, fault::VsyncChecker::make_payload(n, idx, 64));
      });
    }
  }

  ChaosOutcome out;
  // Completion: every scheduled fault has fired (restarts included), and
  // either the group halted for good (total failure with no recovery in
  // flight is a legal chaos outcome), or membership has settled and every
  // current member delivered every sender's expected count. After a
  // recovery the expectation is no longer msgs_per_sender: the checker
  // computes per sender the replayed durable prefix plus the resumed tail.
  // Recomputing that walks every archived episode, so cache it per
  // recovery generation.
  std::vector<std::uint64_t> expected(nodes, msgs_per_sender);
  std::uint32_t expected_gen = 0;
  out.done = group.engine().run_until(
      [&] {
        if (group.engine().now() < last_fault_onset) return false;
        if (group.halted()) return !group.recovery_pending();
        if (group.view_change_in_progress()) return false;
        if (group.recoveries() != expected_gen) {
          expected_gen = group.recoveries();
          for (net::NodeId s = 0; s < nodes; ++s) {
            expected[s] =
                checker.expected_current_from(0, s, msgs_per_sender);
          }
        }
        for (net::NodeId m : group.view().members) {
          if (!group.is_alive(m)) return false;
          for (net::NodeId s : group.view().members) {
            if (checker.delivered_from(m, 0, s) < expected[s]) {
              return false;
            }
          }
        }
        return true;
      },
      sim::millis(400));

  {
    std::ostringstream os;
    os << "chaos seed=" << seed << " nodes=" << nodes
       << " persistent=" << persistent << " msgs=" << msgs_per_sender
       << "\n"
       << injector.plan().to_string() << "replay: SPINDLE_CHAOS_RUNS=1 "
       << "SPINDLE_CHAOS_SEED=" << seed << " ./tests/chaos_test\n";
    out.dump = os.str();
  }
  out.nodes = nodes;
  out.steps = group.engine().steps();
  out.epochs = group.epoch();
  out.recoveries = group.recoveries();
  out.episodes = checker.episodes();
  out.halted = group.halted();
  out.persistent = persistent;
  for (const fault::FaultEvent& e : injector.plan().events) {
    if (e.kind == fault::FaultKind::crash) ++out.crashes_scheduled;
  }
  if (!out.done) {
    out.diagnostics = group.engine().diagnostics();
    return out;
  }
  for (const auto& sg : group.cluster().stats().subgroups) {
    if (sg.sched_parks > 0) out.parked = true;
  }
  out.violations = checker.check(group);
  out.trace.push_back(group.engine().now());
  out.trace.push_back(out.recoveries);
  out.trace.push_back(out.episodes);
  for (net::NodeId n = 0; n < nodes; ++n) {
    out.trace.push_back(checker.delivered_total(n, 0));
    for (net::NodeId s = 0; s < nodes; ++s) {
      out.trace.push_back(checker.delivered_from(n, 0, s));
    }
  }
  return out;
}

}  // namespace spindle::chaos
