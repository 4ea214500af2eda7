// Parallel conservative-lookahead engine scaling: the same fig09-style
// workload (all senders, 10KB messages, opportunistic batching) run serial
// and at 2/4/8 workers on 16-, 64- and 128-node clusters.
//
// Two things are measured per cell:
//  - wall-clock speedup vs the serial engine (the perf headline; the PR
//    target is >= 3x at 4 workers on the 64-node run **on >= 4 physical
//    cores** — on fewer cores the barrier degrades to yielding and the
//    speedup column honestly reports <= 1; the report's provenance block
//    records hardware_concurrency so the number can be read in context);
//  - digest drift: the delivery-latency histogram (count, min, max, every
//    bucket) of each parallel run hashed against the serial run's. The
//    parallel engine is byte-identical to serial, so ANY drift is a bug —
//    the bench exits non-zero on drift, making the smoke run a correctness
//    gate as well as a perf probe.

#include <cstdint>

#include "bench_util.hpp"
#include "metrics/metrics.hpp"

using namespace spindle;
using namespace spindle::bench;

namespace {

std::uint64_t histogram_digest(const metrics::Histogram& h) {
  std::uint64_t d = 1469598103934665603ull;
  const auto mix = [&d](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      d ^= (v >> (8 * i)) & 0xff;
      d *= 1099511628211ull;
    }
  };
  mix(h.count());
  mix(h.min());
  mix(h.max());
  for (const auto& b : h.buckets()) {
    mix(b.low);
    mix(b.count);
  }
  return d;
}

}  // namespace

int main() {
  Table t("Parallel engine scaling (fig09-style workload, serial vs workers)",
          {"nodes", "workers", "wall s", "events/s", "speedup", "drift"});
  BenchReport report("parallel_engine");
  report.set_provenance(1, scaled(200));

  bool drift_detected = false;
  for (std::size_t nodes : {std::size_t{16}, std::size_t{64},
                            std::size_t{128}}) {
    // Long enough for every cell to fill its send windows: 128 nodes run
    // ~3.8 M engine steps serial.
    const std::size_t msgs = nodes <= 16 ? scaled(200) : scaled(150);
    double serial_wall = 0;
    std::uint64_t serial_digest = 0;
    for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
      ExperimentConfig cfg;
      cfg.nodes = nodes;
      cfg.senders = SenderPattern::all;
      cfg.message_size = 10240;
      cfg.subgroups = 1;
      cfg.opts = core::ProtocolOptions::spindle();
      cfg.messages_per_sender = msgs;
      cfg.sim_threads = workers;
      const ExperimentResult r = workload::run_experiment(cfg);

      // Completion-invariant drift check: every tracked message delivers at
      // the same virtual time regardless of worker count, so the latency
      // histogram must hash identically to the serial run's.
      const std::uint64_t digest =
          histogram_digest(r.stats.total.delivery_latency_ns);
      if (workers == 1) {
        serial_wall = r.wall_seconds;
        serial_digest = digest;
      }
      const bool drift = !r.completed || digest != serial_digest;
      drift_detected = drift_detected || drift;
      const double speedup =
          r.wall_seconds > 0 ? serial_wall / r.wall_seconds : 0;

      const std::string label =
          "n" + std::to_string(nodes) + "_w" + std::to_string(workers);
      t.row({Table::integer(nodes), Table::integer(workers),
             Table::num(r.wall_seconds, 2),
             Table::num(r.wall_seconds > 0
                            ? static_cast<double>(r.engine_steps) /
                                  r.wall_seconds
                            : 0,
                        0),
             Table::num(speedup, 2) + check_completed(r),
             drift ? "DRIFT" : "ok"});
      report.add_run(label, r);
      report.add_metric("speedup_" + label, speedup);
    }
  }
  t.print();
  report.write();
  if (drift_detected) {
    std::fprintf(stderr,
                 "parallel_engine: DIGEST DRIFT — parallel run diverged from "
                 "serial\n");
    return 1;
  }
  return 0;
}
