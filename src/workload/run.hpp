#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/group.hpp"
#include "metrics/registry.hpp"

namespace spindle::workload {

/// The measurement every workload runner fills, the one the paper judges
/// every technique by: completion, makespan, application bytes delivered
/// per node over it, the §4.1.1 counters in the stats snapshot, and what
/// the run cost the simulator. Runner results extend it.
struct RunRecord {
  bool completed = false;
  sim::Nanos makespan = 0;
  /// Paper throughput metric: application data delivered per unit time,
  /// GB/s averaged over all nodes.
  double throughput_gbps = 0;
  double delivery_rate_per_node = 0;  // messages/s per node
  std::uint64_t expected_deliveries = 0;
  /// Application upcalls summed over nodes: the protocol's
  /// messages_delivered unless the runner counts merged upcalls itself.
  std::uint64_t delivered = 0;
  /// Snapshot taken at completion: stats.total for merged counters,
  /// stats.nodes / stats.subgroups for the drill-down.
  metrics::ClusterStats stats;
  std::uint64_t trace_events = 0;  // 0 unless the config enables tracing
  /// Simulator cost: events dispatched (teardown included), event callables
  /// the engine heap-boxed (sim::Engine::boxed), worker threads (1 =
  /// serial) and wall-clock seconds of the whole run.
  std::uint64_t engine_steps = 0;
  std::uint64_t engine_boxed = 0;
  std::size_t sim_workers = 1;
  double wall_seconds = 0;

  /// Set the two rates from `bytes` and `delivered` over `nodes` nodes and
  /// the makespan.
  void set_rates(std::uint64_t bytes, std::size_t nodes);
};

/// Worker threads for a config's `sim_threads`: `requested` when nonzero,
/// else SPINDLE_SIM_THREADS, else 1 (serial).
std::size_t resolve_sim_threads(std::size_t requested);

/// The run skeleton every workload runner shares. Construction starts the
/// wall clock, count() tallies tracked deliveries per node, run() drives
/// the cluster until they add up, and finish() takes the stats snapshot,
/// tears the run down and records the simulator cost.
class RunHarness {
 public:
  explicit RunHarness(std::size_t nodes = 0) : slots_(nodes) {}

  /// One tracked delivery at `node`, at virtual time `at`. Called on the
  /// worker that owns the node, so each slot has one writer; run() sums
  /// the slots only at lookahead barriers, where every write is visible.
  void count(net::NodeId node, sim::Nanos at) {
    ++slots_[node].delivered;
    slots_[node].last_at = at;
  }
  std::uint64_t counted() const;

  /// Run until `expected` deliveries are counted or `max_virtual` passes.
  /// The makespan is the last counted delivery, not where the driver
  /// halted (the serial engine stops mid-event, the parallel one at the
  /// next barrier), so it and every rate derived from it are
  /// worker-count-invariant where cluster.now() is not.
  void run(core::Cluster& cluster, std::uint64_t expected,
           sim::Nanos max_virtual, RunRecord& rec) const;

  /// Stats snapshot, then `teardown` (default: cluster.shutdown()), then
  /// the simulator cost.
  void finish(core::Cluster& cluster, RunRecord& rec,
              const std::function<void()>& teardown = {}) const;

 private:
  struct Slot {
    std::uint64_t delivered = 0;
    sim::Nanos last_at = 0;
  };
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::vector<Slot> slots_;
};

}  // namespace spindle::workload
