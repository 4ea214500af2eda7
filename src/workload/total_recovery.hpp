#pragma once

#include <cstdint>

#include "core/view.hpp"

namespace spindle::workload {

/// Total-failure recovery scenario: a persistent group under continuous
/// multicast load loses *every* member inside one failure window, halts,
/// and then a subset of the members restarts from their durable logs. We
/// measure the phases of the outage — crash to halt, restart to the
/// recovery-view install (durable-count exchange, longest-common-prefix
/// agreement, ragged trim, replay), and install to the first genuinely new
/// delivery — plus the durability ledger: how much of the pre-crash
/// traffic the longest common durable prefix preserved and how much the
/// write-behind tail lost.
struct TotalRecoveryConfig {
  std::size_t nodes = 4;
  std::size_t restarters = 4;  // first `restarters` nodes come back
  sim::Nanos crash_at = sim::millis(1);  // first crash onset
  sim::Nanos crash_stagger = sim::micros(10);   // between crash onsets
  sim::Nanos restart_delay = sim::millis(1);    // last crash -> first restart
  sim::Nanos restart_stagger = sim::micros(80);  // between restarts
  sim::Nanos send_interval = sim::micros(5);  // per-sender submission period
  std::uint32_t msg_size = 64;
  std::uint64_t seed = 1;
  sim::Nanos failure_timeout = sim::micros(400);
};

struct TotalRecoveryResult {
  sim::Nanos halt_ns = 0;     // first crash -> group halted
  sim::Nanos install_ns = 0;  // first restart -> recovery view installed
  sim::Nanos first_new_delivery_ns = 0;  // install -> first fresh delivery
  std::uint64_t lcp_records = 0;      // longest common durable prefix
  std::uint64_t max_pre_records = 0;  // longest pre-crash durable log
  std::uint64_t lost_records = 0;     // ragged tail trimmed (max_pre - lcp)
  std::uint64_t replayed = 0;  // deliveries re-observed during recovery
  std::uint64_t delivered_after = 0;  // fresh deliveries post-install
  bool recovered = false;
};

/// Runs the scenario to completion; deterministic for a given config.
TotalRecoveryResult run_total_recovery(const TotalRecoveryConfig& cfg);

}  // namespace spindle::workload
