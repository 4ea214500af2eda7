// Figure 13 + end of §4.1.3: multiple *active* subgroups — every node
// belongs to and sends in k overlapping subgroups — with all optimizations,
// against the baseline.
//
// Paper headlines: with batching alone, performance drops considerably as
// active subgroups are added (the polling thread spends ever more time
// posting writes for the different subgroups); efficient thread
// synchronization resolves most of that, giving excellent scaling that
// remains stable across subgroup counts.
//
// Second sweep (the parking study): 1 *hot* subgroup plus k *cold* ones
// that never send. On Derecho's full lap (park_after 0) the polling thread
// pays a cold-group evaluation per round for every cold subgroup, so the
// hot group's delivery rate decays with k; with park_after = 500 us the
// cold groups, quiet and drained, park, so the hot group keeps nearly all
// of the polling-thread CPU.
// Results (both arms, with seed/env provenance) go to
// BENCH_fig13_multi_active.json.

#include "bench_util.hpp"

using namespace spindle;
using namespace spindle::bench;

namespace {

/// Parks summed across the cold subgroups (hot is sg0).
std::uint64_t cold_parks(const ExperimentResult& r) {
  std::uint64_t total = 0;
  for (const auto& sg : r.stats.subgroups) {
    if (sg.id != 0) total += sg.sched_parks;
  }
  return total;
}

}  // namespace

int main() {
  Table t("Figure 13: multiple active subgroups (16 nodes, 10KB, GB/s)",
          {"active subgroups", "baseline", "batching only", "all opts",
           "paper"});
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                        std::size_t{10}}) {
    ExperimentConfig cfg;
    cfg.nodes = 16;
    cfg.senders = SenderPattern::all;
    cfg.message_size = 10240;
    cfg.subgroups = k;
    cfg.active_subgroups = k;

    cfg.opts = core::ProtocolOptions::baseline();
    cfg.messages_per_sender = scaled(50);
    auto base = workload::run_experiment(cfg);

    cfg.opts = core::ProtocolOptions::spindle();
    cfg.opts.early_lock_release = false;
    cfg.messages_per_sender = scaled(150);
    auto batch = workload::run_experiment(cfg);

    cfg.opts = core::ProtocolOptions::spindle();
    auto full = workload::run_experiment(cfg);

    t.row({Table::integer(k), gbps(base.throughput_gbps),
           gbps(batch.throughput_gbps), gbps(full.throughput_gbps),
           k == 10 ? "stable scaling with all opts" : ""});
  }
  t.print();

  // Parking sweep: 1 hot + k cold subgroups, full lap vs parking after
  // 500us of quiet. Small messages and a small window keep the hot
  // pipeline round-time-gated (so the cold lap actually costs throughput)
  // and the k=64 point within memory (every node maps a window of slots
  // for every subgroup it belongs to). 500us is ~20x a full-lap round
  // here; a cold group costs a full lap until it parks, and nothing
  // after.
  constexpr std::uint64_t kSeed = 42;
  const std::size_t kMessages = scaled(200);
  BenchReport report("fig13_multi_active");
  report.set_provenance(kSeed, kMessages);

  Table d("Figure 13b: 1 hot + k cold subgroups (16 nodes, 1KB, kmsg/s/node)",
          {"cold subgroups", "full lap", "parking", "speedup",
           "cold parks"});
  for (std::size_t k : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                        std::size_t{64}}) {
    ExperimentConfig cfg;
    cfg.nodes = 16;
    cfg.senders = SenderPattern::all;
    cfg.message_size = 1024;
    cfg.opts = core::ProtocolOptions::spindle();
    cfg.opts.max_msg_size = 1024;
    cfg.opts.window_size = 8;
    cfg.subgroups = 1 + k;
    cfg.active_subgroups = 1;
    cfg.messages_per_sender = kMessages;
    cfg.seed = kSeed;

    cfg.park_after = 0;
    auto lap = workload::run_experiment(cfg);

    cfg.park_after = sim::micros(500);
    auto park = workload::run_experiment(cfg);

    const double speedup =
        lap.delivery_rate_per_node > 0
            ? park.delivery_rate_per_node / lap.delivery_rate_per_node
            : 0;
    const std::string kk = std::to_string(k);
    report.add_run("full_lap/k=" + kk, lap);
    report.add_run("parking/k=" + kk, park);
    report.add_metric("speedup_k" + kk, speedup);
    d.row({Table::integer(k), Table::num(lap.delivery_rate_per_node / 1e3, 1),
           Table::num(park.delivery_rate_per_node / 1e3, 1),
           Table::num(speedup, 2) + "x" + check_completed(lap) +
               check_completed(park),
           Table::integer(cold_parks(park))});
  }
  d.print();
  report.write();
  return 0;
}
