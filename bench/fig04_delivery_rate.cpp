// Figure 4: rate of delivery (messages/s per node) for the optimized
// version across message sizes 1B / 128B / 1KB / 10KB.
//
// Paper headline: for small messages, the number of messages delivered per
// second stays in the same band regardless of size — throughput is
// coordination-limited, so bytes/s scales with the message size.

#include <algorithm>
#include <map>

#include "bench_util.hpp"

using namespace spindle;
using namespace spindle::bench;

int main() {
  Table t("Figure 4: delivery rate, all senders, opportunistic batching",
          {"nodes", "size (B)", "msgs/s per node", "GB/s", "paper"});
  // Per node count: the highest and lowest rate over the message sizes.
  std::map<std::size_t, std::pair<double, double>> band;
  for (std::size_t n : {std::size_t{2}, std::size_t{8}, std::size_t{16}}) {
    for (std::uint32_t size : {1u, 128u, 1024u, 10240u}) {
      ExperimentConfig cfg;
      cfg.nodes = n;
      cfg.senders = SenderPattern::all;
      cfg.message_size = size;
      cfg.messages_per_sender = scaled(size <= 128 ? 2000 : 600);
      cfg.opts = core::ProtocolOptions::spindle();
      auto r = workload::run_experiment(cfg);
      const double rate = r.delivery_rate_per_node;
      auto& [hi, lo] = band.try_emplace(n, rate, rate).first->second;
      hi = std::max(hi, rate);
      lo = std::min(lo, rate);
      t.row({Table::integer(n), Table::integer(size),
             Table::num(r.delivery_rate_per_node / 1e3, 0) + "k",
             gbps(r.throughput_gbps),
             size == 10240 ? "rate ~ constant across sizes" : ""});
    }
  }
  t.print();

  // Paper-shape gate: the rate stays in one band across sizes. 1.10x is
  // three times the widest spread measured when the bound was set (1.011x
  // at 8 nodes, 1.030x at 16); the 2-node row, where 10 KB messages bind on
  // bytes, reads 1.46x (EXPERIMENTS.md).
  const auto spread = [&](std::size_t n) {
    return band.at(n).first / band.at(n).second;
  };
  return shape_check(
      "Fig 4: max / min msgs/s per node over sizes <= 1.10x at 8 and 16 nodes",
      Table::num(spread(8), 3) + "x at 8, " + Table::num(spread(16), 3) +
          "x at 16",
      spread(8) <= 1.10 && spread(16) <= 1.10);
}
