// One chaos run: a seeded random fault schedule (crashes, cascading
// crashes, NIC stalls, link degradation, slow hosts, SSD latency spikes,
// dropped post-plan lanes, phantom doorbells, and total-failure episodes
// with staggered restarts) against a busy ManagedGroup, checked with the
// full virtual-synchrony contract (fault::VsyncChecker). Shared by the
// chaos_test sweep and the chaos_outcomes before/after driver.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace spindle::chaos {

/// Sweep run i uses seed kBaseSeed + i.
inline constexpr std::uint64_t kBaseSeed = 0xc4a0500000000ULL;

struct ChaosOutcome {
  bool done = false;
  std::string dump;           // seed + schedule + replay command
  std::string diagnostics;    // engine/protocol state if !done
  std::vector<std::string> violations;
  // Flattened observations, for replay comparison: the final virtual
  // time, recoveries and episodes, then per node its delivered total and
  // its deliveries from each sender. Empty when !done.
  std::vector<std::uint64_t> trace;
  std::size_t nodes = 0;    // group size
  std::uint64_t steps = 0;  // engine events run
  // Coverage accounting.
  std::uint32_t epochs = 0;
  std::uint32_t recoveries = 0;   // completed total-failure recoveries
  std::size_t episodes = 0;       // recovery episodes the checker archived
  bool halted = false;
  bool persistent = false;
  bool parked = false;  // the final epoch's data subgroup parked
  std::size_t crashes_scheduled = 0;
};

/// One chaos run, a pure function of `seed`: the group shape, the workload
/// and the fault schedule are all derived from it.
ChaosOutcome run_chaos(std::uint64_t seed);

}  // namespace spindle::chaos
