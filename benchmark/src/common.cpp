#include "common.hpp"

#include <algorithm>
#include <cmath>

namespace spindle::bench {

const std::vector<MetricDef>& metric_table() {
  constexpr double kLayer = -1;
  static const std::vector<MetricDef> table = {
      // End to end: what a user of the system sees.
      {"throughput_gbps", "GB/s", Better::higher, 0.02},
      {"delivery_p50_us", "us", Better::lower, 0.05},
      {"delivery_p99_us", "us", Better::lower, 0.05},
      {"cross_p50_us", "us", Better::lower, 0.05},
      {"cross_p99_us", "us", Better::lower, 0.05},
      {"rpc_p50_us", "us", Better::lower, 0.05},
      {"rpc_p99_us", "us", Better::lower, 0.15},
      {"rpc_burst_p99_us", "us", Better::lower, 0.05},
      {"rpc_capacity_rps", "1/s", Better::higher, 0.08},
      {"outage_us", "us", Better::lower, 0.05},
      {"ok_fraction", "fraction", Better::higher, 0.001},
      {"setup_s", "s", Better::lower, 0.25},
      {"peak_rss_mb", "MB", Better::lower, 0.12},
      // Per layer.
      {"sim.ops_per_s", "1/s", Better::higher, kLayer},
      {"sim.events_per_op", "count", Better::lower, kLayer},
      {"sim.events_per_s", "1/s", Better::higher, kLayer},
      {"smc.slot_wait_p50_us", "us", Better::lower, kLayer},
      {"smc.slot_wait_p99_us", "us", Better::lower, kLayer},
      {"core.sender_wait_share", "ratio", Better::lower, kLayer},
      {"core.construct_p50_ns", "ns", Better::lower, kLayer},
      {"core.post_cpu_ns_per_msg", "ns", Better::lower, kLayer},
      {"core.lock_wait_ns_per_msg", "ns", Better::lower, kLayer},
      {"core.send_batch_p50", "count", Better::higher, kLayer},
      {"core.receive_batch_p50", "count", Better::higher, kLayer},
      {"core.delivery_batch_p50", "count", Better::higher, kLayer},
      {"core.nulls_per_msg", "ratio", Better::lower, kLayer},
      {"core.construct_to_receive_p50_us", "us", Better::lower, kLayer},
      {"core.construct_to_receive_p99_us", "us", Better::lower, kLayer},
      {"core.receive_to_deliver_p50_us", "us", Better::lower, kLayer},
      {"core.receive_to_deliver_p99_us", "us", Better::lower, kLayer},
      {"net.rdma_writes_per_msg", "ratio", Better::lower, kLayer},
      {"net.wire_bytes_per_app_byte", "ratio", Better::lower, kLayer},
      {"net.atomics_per_cross", "ratio", Better::lower, kLayer},
      {"net.atomic_rtt_p50_us", "us", Better::lower, kLayer},
      {"sst.predicate_cpu_share", "ratio", Better::lower, kLayer},
      {"sst.active_predicate_fraction", "ratio", Better::higher, kLayer},
      {"sst.fire_ratio", "ratio", Better::higher, kLayer},
      {"sst.evals_per_op", "ratio", Better::lower, kLayer},
      {"domain.grant_p50_us", "us", Better::lower, kLayer},
      {"domain.grant_p99_us", "us", Better::lower, kLayer},
      {"domain.single_p99_us", "us", Better::lower, kLayer},
      {"domain.grants_per_cross", "ratio", Better::lower, kLayer},
      {"dds.shed_fraction", "ratio", Better::lower, kLayer},
      {"dds.peak_credit_waiters", "count", Better::lower, kLayer},
      {"dds.credits_effective", "count", Better::higher, kLayer},
      {"dds.peak_uplink_queue", "count", Better::lower, kLayer},
      {"dds.peak_downlink_queue", "count", Better::lower, kLayer},
      {"dds.order_p50_us", "us", Better::lower, kLayer},
      {"view.detect_us", "us", Better::lower, kLayer},
      {"view.install_us", "us", Better::lower, kLayer},
      {"view.first_delivery_us", "us", Better::lower, kLayer},
      {"view.view_changes", "count", Better::lower, kLayer},
      {"trace.overhead_ratio", "ratio", Better::lower, kLayer},
  };
  return table;
}

const MetricDef* find_metric(const std::string& name) {
  for (const MetricDef& d : metric_table()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

std::vector<std::int64_t> start_offsets(std::uint64_t seed,
                                        std::size_t senders) {
  Gen g = Gen(seed).fork(0x5747);
  std::vector<std::int64_t> out(senders);
  for (auto& o : out) o = static_cast<std::int64_t>(g.below(10'000));
  return out;
}

std::int64_t Samples::percentile(double p) {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(v_.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank < 1) rank = 1;
  return v_[std::min(rank, v_.size()) - 1];
}

void mirror_unexercised(Metrics& e2e, std::optional<double> completed_per_s) {
  const Value p50 = e2e["delivery_p50_us"];
  const Value p99 = e2e["delivery_p99_us"];
  e2e.emplace("cross_p50_us", p50);
  e2e.emplace("cross_p99_us", p99);
  e2e.emplace("rpc_p50_us", p50);
  e2e.emplace("rpc_p99_us", p99);
  e2e.emplace("rpc_burst_p99_us", p99);
  e2e.emplace("outage_us", p99);
  if (completed_per_s) e2e.emplace("rpc_capacity_rps", Value{*completed_per_s, 0});
}

}  // namespace spindle::bench
