// Figure 8 + §4.1.3: the baseline with a single *active* subgroup among k
// overlapping subgroups (all nodes belong to all). The baseline evaluates
// every subgroup's predicates fairly, so inactive subgroups steal polling
// time.
//
// Paper headlines: one extra inactive subgroup costs ~18%; 50 subgroups run
// at one-tenth of the single-subgroup rate; the active subgroup's share of
// predicate time falls from 54% (k=2) to <15% (k=50).

#include "bench_util.hpp"

using namespace spindle;
using namespace spindle::bench;

int main() {
  Table t("Figure 8: baseline, single active subgroup (16 nodes, 10KB)",
          {"subgroups", "GB/s", "active pred. time %", "paper"});
  double first = 0;
  double fifty = 0;
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                        std::size_t{10}, std::size_t{20}, std::size_t{50}}) {
    ExperimentConfig cfg;
    cfg.nodes = 16;
    cfg.senders = SenderPattern::all;
    cfg.message_size = 10240;
    cfg.subgroups = k;
    cfg.active_subgroups = 1;
    cfg.opts = core::ProtocolOptions::baseline();
    cfg.messages_per_sender = scaled(k >= 20 ? 60 : 120);
    auto r = workload::run_experiment(cfg);
    if (k == 1) first = r.throughput_gbps;
    if (k == 50) fifty = r.throughput_gbps;
    const char* paper = k == 2    ? "-18% for one inactive; 54% active time"
                        : k == 50 ? "one-tenth of k=1; <15% active time"
                                  : "";
    t.row({Table::integer(k), gbps(r.throughput_gbps) + check_completed(r),
           Table::num(100.0 * r.active_predicate_fraction, 0), paper});
  }
  std::printf("(k=1 reference: %.2f GB/s)\n", first);
  t.print();

  // Paper-shape gate: inactive subgroups steal the baseline's polling
  // time. 0.15x lets k = 50 run half again as fast as the 0.10x measured
  // when the bound was set, the paper's one-tenth (EXPERIMENTS.md).
  return shape_check("Fig 8: k = 50 <= 0.15x k = 1",
                     gbps(fifty) + " vs " + gbps(first) + " GB/s",
                     fifty <= 0.15 * first);
}
