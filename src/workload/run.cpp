#include "workload/run.hpp"

#include <algorithm>
#include <cstdlib>

namespace spindle::workload {

void RunRecord::set_rates(std::uint64_t bytes, std::size_t nodes) {
  const double secs = sim::to_seconds(makespan);
  if (secs <= 0) return;
  throughput_gbps = static_cast<double>(bytes) / static_cast<double>(nodes) /
                    secs / 1e9;
  delivery_rate_per_node =
      static_cast<double>(delivered) / static_cast<double>(nodes) / secs;
}

std::size_t resolve_sim_threads(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("SPINDLE_SIM_THREADS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 1;
}

std::uint64_t RunHarness::counted() const {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.delivered;
  return total;
}

void RunHarness::run(core::Cluster& cluster, std::uint64_t expected,
                     sim::Nanos max_virtual, RunRecord& rec) const {
  rec.expected_deliveries = expected;
  rec.completed = cluster.run_until(
      [this, expected] { return counted() >= expected; }, max_virtual);
  rec.makespan = 0;
  for (const Slot& s : slots_) rec.makespan = std::max(rec.makespan, s.last_at);
  if (!rec.completed || rec.makespan == 0) rec.makespan = cluster.now();
}

void RunHarness::finish(core::Cluster& cluster, RunRecord& rec,
                        const std::function<void()>& teardown) const {
  rec.stats = cluster.stats();
  rec.delivered = rec.stats.total.messages_delivered;
  rec.trace_events = cluster.tracer().total_recorded();
  if (teardown) {
    teardown();
  } else {
    cluster.shutdown();
  }
  rec.engine_steps = cluster.steps();
  rec.engine_boxed = cluster.boxed();
  rec.sim_workers = cluster.sim_workers();
  rec.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
}

}  // namespace spindle::workload
