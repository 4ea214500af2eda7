// Figure 9 + §4.1.3: the optimized (opportunistically batched) version of
// the single-active-subgroup experiment of Figure 8.
//
// Paper headlines: adding subgroups no longer collapses throughput — in
// some cases it *increases* it (5 and 10 subgroups beat 1 and 2: delays
// create larger average batches); at 50 subgroups performance declines far
// more gracefully than the baseline. Active predicate-time share: ~99%
// (k=2), ~90% (k=10), ~48% (k=50).

#include <algorithm>

#include "bench_util.hpp"

using namespace spindle;
using namespace spindle::bench;

int main() {
  Table t("Figure 9: opportunistic batching, single active subgroup (16 nodes)",
          {"subgroups", "GB/s", "active pred. time %", "paper"});
  double one = 0, best_few = 0;  // k = 1; the best of k = 2, 5, 10
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                        std::size_t{10}, std::size_t{20}, std::size_t{50}}) {
    ExperimentConfig cfg;
    cfg.nodes = 16;
    cfg.senders = SenderPattern::all;
    cfg.message_size = 10240;
    cfg.subgroups = k;
    cfg.active_subgroups = 1;
    cfg.opts = core::ProtocolOptions::spindle();
    cfg.messages_per_sender = scaled(300);
    auto r = workload::run_experiment(cfg);
    if (k == 1) one = r.throughput_gbps;
    if (k > 1 && k <= 10) best_few = std::max(best_few, r.throughput_gbps);
    const char* paper = k == 5    ? "5/10 subgroups can beat 1/2 (batching)"
                        : k == 50 ? "graceful decline; ~48% active time"
                                  : "";
    t.row({Table::integer(k), gbps(r.throughput_gbps) + check_completed(r),
           Table::num(100.0 * r.active_predicate_fraction, 0), paper});
  }
  t.print();

  // Paper-shape gate: more subgroups can *raise* throughput. 1.02x asks
  // for a rise of 2 %, 3/8 of the 5.4 % measured when the bound was set,
  // so the check fails once the rise no longer reads from the table
  // (EXPERIMENTS.md).
  return shape_check("Fig 9: best of k = 2..10 >= 1.02x k = 1",
                     gbps(best_few) + " vs " + gbps(one) + " GB/s",
                     best_few >= 1.02 * one);
}
