// Figure 3 + §4.1.1 commentary: single subgroup, 10KB messages, continuous
// sending; opportunistic batching vs the baseline, for all/half/one
// senders, subgroup sizes 2..16.
//
// Paper headlines: batching alone outperforms the baseline by ~9X (all
// senders), ~6X (half), ~3X (one) on average; 16X at 16 senders; peak
// 8.03 GB/s at 11 members (64.2% utilization). The §4.1.1 counters for the
// 16-sender case: RDMA writes 18.2M -> 1.1M, polling-thread posting time
// 64.84s -> 4.29s, sender wait 97.6% -> 52.7% of runtime.

#include "bench_util.hpp"

using namespace spindle;
using namespace spindle::bench;

int main() {
  core::ProtocolOptions batching = core::ProtocolOptions::baseline();
  batching.send_batching = true;
  batching.receive_batching = true;
  batching.delivery_batching = true;

  Table t("Figure 3: single subgroup, 10KB, batching vs baseline (GB/s)",
          {"pattern", "nodes", "baseline", "batching", "speedup", "paper"});
  const char* paper_hint[] = {"~9X avg, 16X @16", "~6X avg", "~3X avg"};
  int pi = 0;
  workload::RunRecord base16, batch16;
  BenchReport report("fig03_single_subgroup");
  report.set_provenance(ExperimentConfig{}.seed,
                        std::max<std::size_t>(scaled(2000), 300));

  for (auto pattern : {SenderPattern::all, SenderPattern::half,
                       SenderPattern::one}) {
    for (std::size_t n : node_sweep()) {
      ExperimentConfig cfg;
      cfg.nodes = n;
      cfg.senders = pattern;
      cfg.message_size = 10240;

      // Keep counts above ~3 windows so the sender-wait statistic reflects
      // the steady state (the ring must actually fill).
      cfg.opts = core::ProtocolOptions::baseline();
      cfg.messages_per_sender = std::max<std::size_t>(scaled(800), 300);
      auto base = workload::run_averaged(cfg, 2);

      cfg.opts = batching;
      cfg.messages_per_sender = std::max<std::size_t>(scaled(2000), 300);
      auto opt = workload::run_averaged(cfg, 2);

      const std::string label =
          std::string(pattern_name(pattern)) + "/" + std::to_string(n);
      report.add_run(label + "/baseline", base);
      report.add_run(label + "/batching", opt);
      t.row({pattern_name(pattern), Table::integer(n),
             gbps(base.throughput_gbps) + "+-" + gbps(base.stddev_gbps),
             gbps(opt.throughput_gbps) + "+-" + gbps(opt.stddev_gbps),
             Table::num(opt.throughput_gbps / base.throughput_gbps, 1) + "x",
             (n == 16 ? paper_hint[pi] : "")});
      if (pattern == SenderPattern::all && n == 16) {
        base16 = base;
        batch16 = opt;
      }
    }
    ++pi;
  }
  t.print();
  report.write();

  // §4.1.1 insight counters, 16 senders. The paper's absolute counts are
  // for 1M messages/sender; we report per-message and fractional values.
  const auto& bt = base16.stats.total;
  const auto& ot = batch16.stats.total;
  const double base_msgs = static_cast<double>(bt.messages_sent);
  const double opt_msgs = static_cast<double>(ot.messages_sent);
  Table c("Sec 4.1.1 counters (16 senders): baseline vs batching",
          {"metric", "baseline", "batching", "paper"});
  c.row({"RDMA writes per message sent",
         Table::num(static_cast<double>(bt.rdma_writes_posted) / base_msgs, 1),
         Table::num(static_cast<double>(ot.rdma_writes_posted) / opt_msgs, 1),
         "18.2M -> 1.1M total"});
  c.row({"posting time (% of runtime/node)",
         Table::num(100.0 * static_cast<double>(bt.post_cpu) / 16.0 /
                    static_cast<double>(base16.makespan), 1),
         Table::num(100.0 * static_cast<double>(ot.post_cpu) / 16.0 /
                    static_cast<double>(batch16.makespan), 1),
         "64.84s -> 4.29s"});
  c.row({"sender wait (% of runtime)",
         Table::num(100.0 * static_cast<double>(bt.sender_wait) / 16.0 /
                    static_cast<double>(base16.makespan), 1),
         Table::num(100.0 * static_cast<double>(ot.sender_wait) / 16.0 /
                    static_cast<double>(batch16.makespan), 1),
         "97.6% -> 52.7%"});
  c.print();
  return 0;
}
