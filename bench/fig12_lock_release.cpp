// Figure 12 + §3.4: efficient thread synchronization — restructuring every
// predicate so RDMA writes are posted only after the shared-state lock is
// released (safe because SST state is monotonic and cache-line atomic).
//
// Paper headline: ~1.4X average improvement on top of batching + nulls for
// the single subgroup, all senders; peak network utilization 77.6% reached
// at 4 members and stable through 16.

#include "bench_util.hpp"

using namespace spindle;
using namespace spindle::bench;

int main() {
  Table t("Figure 12: early lock release (all senders, 10KB)",
          {"nodes", "locked posts", "early release", "speedup",
           "lock wait % (before/after)", "paper"});
  double sum_ratio = 0;
  int count = 0;
  for (std::size_t n : node_sweep()) {
    ExperimentConfig cfg;
    cfg.nodes = n;
    cfg.senders = SenderPattern::all;
    cfg.message_size = 10240;
    cfg.messages_per_sender = scaled(400);
    cfg.opts = core::ProtocolOptions::spindle();
    cfg.opts.early_lock_release = false;
    auto off = workload::run_experiment(cfg);
    cfg.opts.early_lock_release = true;
    auto on = workload::run_experiment(cfg);
    const double ratio = on.throughput_gbps / off.throughput_gbps;
    sum_ratio += ratio;
    ++count;
    const double lw_off = 100.0 * static_cast<double>(off.stats.total.lock_wait) /
                          static_cast<double>(n) /
                          static_cast<double>(off.makespan);
    const double lw_on = 100.0 * static_cast<double>(on.stats.total.lock_wait) /
                         static_cast<double>(n) /
                         static_cast<double>(on.makespan);
    t.row({Table::integer(n), gbps(off.throughput_gbps),
           gbps(on.throughput_gbps), Table::num(ratio, 2) + "x",
           Table::num(lw_off, 0) + "% / " + Table::num(lw_on, 0) + "%",
           n == 4 ? "77.6% peak utilization @4" : ""});
  }
  t.print();
  const double mean = sum_ratio / count;
  std::printf("average speedup: %.2fx (paper: ~1.4x)\n", mean);

  // Paper-shape gate: early lock release pays on average. Both arms are
  // NIC-bound at 11 and 16 members (1.06-1.10x), so 1.2x fails once the
  // three smaller groups' mean gain falls under ~1.28x (1.44x when the
  // bound was set; the average read 1.29x; EXPERIMENTS.md).
  return shape_check("Fig 12: mean early-release speedup >= 1.2x",
                     Table::num(mean, 3) + "x", mean >= 1.2);
}
