// Sharded-domain scaling: one core::OrderingDomain, k shard subgroups over
// the same 8 members, every node sending a key-hashed stream. Two sweeps in
// one report:
//
//  - shard-count scaling at 0% cross-shard traffic: aggregate delivered
//    throughput must rise monotonically with k (each shard is an
//    independent window + round-robin pipeline, so the window-bound k = 1
//    configuration gains aggregate in-flight capacity with every shard);
//  - cross-shard sensitivity at 1% / 10% / 50%: every cross pays a
//    sequencer round trip and a per-shard copy fan-out, and holds singles
//    behind its merge point — the curve quantifies how fast the gain
//    erodes.
//
// The k = 1 cell doubles as the single-shard digest-drift gate: the same
// schedule is run once through the OrderingDomain and once directly against
// an identically-configured subgroup (workload::run_sharded's plain arm).
// A k = 1 domain is contractually a zero-cost pass-through, so the two
// delivery digests (per-node merged streams: order, timestamps, payload
// tags) must match bit-for-bit; the bench exits non-zero when they don't,
// making the smoke run a correctness gate as well as a perf probe.

#include <algorithm>
#include <cstdint>
#include <string>

#include "bench_util.hpp"
#include "workload/sharded.hpp"

using namespace spindle;
using namespace spindle::bench;
using workload::ShardedConfig;
using workload::ShardedResult;

namespace {

ShardedConfig base_config(std::size_t shards, double cross_fraction) {
  ShardedConfig cfg;
  cfg.nodes = 8;
  cfg.shards = shards;
  cfg.messages_per_sender = std::max<std::size_t>(scaled(240), 120);
  cfg.message_size = 4096;
  cfg.cross_fraction = cross_fraction;
  cfg.cross_width = 2;
  cfg.opts = core::ProtocolOptions::spindle();
  // Keep k = 1 window-bound (the sharding headroom this bench measures):
  // with a 16-slot window one subgroup cannot keep the pipeline full, and
  // every extra shard adds an independent window's worth of in-flight
  // capacity.
  cfg.opts.window_size = 2;
  cfg.seed = 1;
  return cfg;
}

std::string pct(double f) {
  return std::to_string(static_cast<int>(f * 100 + 0.5)) + "%";
}

}  // namespace

int main() {
  Table t("Sharded-domain scaling (8 nodes, all senders, 4KB messages)",
          {"shards", "cross", "tput GB/s", "cross p50 us", "grants", "wall s"});
  BenchReport report("shard_scaling");
  report.set_provenance(1, std::max<std::size_t>(scaled(240), 120));
  report.set_shard_provenance(8, 0.50);

  // --- Single-shard digest-drift gate -----------------------------------
  ShardedConfig k1 = base_config(1, 0.0);
  const ShardedResult domain_arm = workload::run_sharded(k1);
  k1.use_domain = false;
  const ShardedResult plain_arm = workload::run_sharded(k1);
  const bool drift = !domain_arm.completed || !plain_arm.completed ||
                     domain_arm.delivery_digest != plain_arm.delivery_digest;
  report.add_metric("k1_domain_digest_lo32",
                    static_cast<double>(domain_arm.delivery_digest & 0xffffffffu));
  report.add_metric("k1_plain_digest_lo32",
                    static_cast<double>(plain_arm.delivery_digest & 0xffffffffu));
  report.add_metric("k1_digest_drift", drift ? 1 : 0);

  // --- Shard count x cross-shard fraction sweep -------------------------
  double tput_at_zero_cross[4] = {0, 0, 0, 0};
  bool incomplete = false;
  std::size_t ki = 0;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{8}}) {
    for (double cross : {0.0, 0.01, 0.10, 0.50}) {
      if (shards == 1 && cross > 0) continue;  // no cross path at k = 1
      const ShardedResult r =
          shards == 1 && cross == 0.0
              ? domain_arm  // reuse the gate's domain arm
              : workload::run_sharded(base_config(shards, cross));
      if (cross == 0.0) tput_at_zero_cross[ki] = r.throughput_gbps;
      incomplete = incomplete || !r.completed;
      const std::string label =
          "k" + std::to_string(shards) + "_x" + pct(cross);
      t.row({Table::integer(shards), pct(cross), gbps(r.throughput_gbps),
             Table::num(static_cast<double>(
                            r.cross_latency_ns.median()) / 1e3, 1),
             Table::integer(r.grants_issued),
             Table::num(r.wall_seconds, 2) + check_completed(r)});
      report.add_run(label, r);
      report.add_metric("tput_gbps_" + label, r.throughput_gbps);
      if (cross > 0) {
        report.add_metric("cross_p50_us_" + label,
                          static_cast<double>(r.cross_latency_ns.median()) /
                              1e3);
      }
    }
    ++ki;
  }
  t.print();

  // Acceptance gate: aggregate delivered throughput at 0% cross rises
  // monotonically with the shard count.
  bool monotone = true;
  for (std::size_t i = 1; i < 4; ++i) {
    monotone = monotone && tput_at_zero_cross[i] > tput_at_zero_cross[i - 1];
  }
  report.add_metric("zero_cross_monotone", monotone ? 1 : 0);
  report.add_metric(
      "zero_cross_k8_over_k1",
      tput_at_zero_cross[0] > 0 ? tput_at_zero_cross[3] / tput_at_zero_cross[0]
                                : 0);
  report.write();

  if (drift) {
    std::fprintf(stderr,
                 "shard_scaling: DIGEST DRIFT — k=1 OrderingDomain run "
                 "diverged from the plain single-subgroup run\n");
    return 1;
  }
  if (!monotone) {
    std::fprintf(stderr,
                 "shard_scaling: 0%%-cross throughput is not monotone in the "
                 "shard count (%.3f, %.3f, %.3f, %.3f GB/s)\n",
                 tput_at_zero_cross[0], tput_at_zero_cross[1],
                 tput_at_zero_cross[2], tput_at_zero_cross[3]);
    return 1;
  }
  if (incomplete) {
    std::fprintf(stderr, "shard_scaling: a cell tripped the watchdog\n");
    return 1;
  }
  return 0;
}
