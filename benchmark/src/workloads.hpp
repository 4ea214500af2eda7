#pragma once

// The five workloads. Each call runs one repetition: it builds the system
// from scratch, drives the seeded schedule through the public API, checks
// the outputs, and reports what it measured.

#include <cstdint>

#include "common.hpp"
#include "trace/trace.hpp"

namespace spindle::bench {

/// Tracing for traced repetitions: a ring large enough that no event is
/// dropped (asserted; reserved address space is only touched as events
/// arrive).
inline trace::TraceConfig trace_config(bool traced) {
  trace::TraceConfig t;
  t.enabled = traced;
  t.ring_capacity = std::size_t{1} << 22;
  return t;
}

/// Virtual-time watchdog: a run that has not completed by then has stalled.
inline constexpr std::int64_t kWatchdogNs = 60'000'000'000;

Rep run_bulk(const Spec& spec, bool first);
Rep run_hot_cold(const Spec& spec, bool first);
Rep run_sharded(const Spec& spec, bool first);
Rep run_rpc(const Spec& spec, bool first);
Rep run_crash(const Spec& spec, bool first);

/// rpc_swarm's capacity ladder (total requests/s over both relays). Run
/// once per process: it is its own sequence of clusters, not a repetition.
Value rpc_capacity(const Spec& spec, std::vector<std::string>& violations);

}  // namespace spindle::bench
