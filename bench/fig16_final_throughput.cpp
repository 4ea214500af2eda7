// Figure 16: final throughput for the single subgroup with the complete
// Spindle optimization stack (batching + null-sends + early lock release),
// for all / half / one senders.
//
// Paper headlines: 10KB multicast bandwidth rises from ~1 GB/s (baseline)
// to 9.7 GB/s on the 12.5 GB/s network; performance is stable across
// subgroup sizes.

#include "bench_util.hpp"

using namespace spindle;
using namespace spindle::bench;

int main() {
  Table t("Figure 16: final throughput, all optimizations (10KB, GB/s)",
          {"pattern", "nodes", "GB/s", "stddev", "network util %", "paper"});
  for (auto pattern : {SenderPattern::all, SenderPattern::half,
                       SenderPattern::one}) {
    for (std::size_t n : node_sweep()) {
      ExperimentConfig cfg;
      cfg.nodes = n;
      cfg.senders = pattern;
      cfg.message_size = 10240;
      cfg.messages_per_sender = scaled(500);
      cfg.opts = core::ProtocolOptions::spindle();
      auto r = workload::run_averaged(cfg, 3);
      // Wire utilization: delivered data per node excludes its own
      // messages, which never cross the network.
      const double n_senders =
          static_cast<double>(workload::sender_count(pattern, n));
      const double wire_fraction =
          pattern == SenderPattern::all
              ? (static_cast<double>(n) - 1.0) / static_cast<double>(n)
              : 1.0 - n_senders / static_cast<double>(n) / n_senders;
      const double util =
          100.0 * r.throughput_gbps * wire_fraction / 12.5;
      t.row({pattern_name(pattern), Table::integer(n), gbps(r.throughput_gbps),
             gbps(r.stddev_gbps), Table::num(util, 0),
             (pattern == SenderPattern::all && n == 8)
                 ? "peak 9.7 GB/s (77.6% util)"
                 : ""});
    }
  }
  t.print();
  return 0;
}
