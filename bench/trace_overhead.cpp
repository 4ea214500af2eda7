// Tracing overhead: the same experiment with tracing off and on. Recording
// never touches the simulation engine, so the virtual-time results must be
// *identical*; the only cost is host-side wall clock (ring-buffer stores),
// reported here as a percentage. This is the acceptance gate for "the
// tracing-disabled path is within noise" — disabled tracing is one branch
// per record() call.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace spindle;
using namespace spindle::bench;

namespace {

// Alternating off/on pairs timed after the warm-ups. One pair of runs a few
// milliseconds long reads anywhere from -55 % to +42 %; the median of
// several pairs, with its quartiles, shows how far the noise reaches.
constexpr int kPairs = 7;

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.senders = SenderPattern::all;
  cfg.message_size = 10240;
  cfg.opts = core::ProtocolOptions::spindle();
  cfg.messages_per_sender = scaled(400);
  return cfg;
}

// Linear-interpolated quantile of an ascending sample.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

int main() {
  ExperimentConfig off = base_config();
  ExperimentConfig on = base_config();
  on.trace.enabled = true;
  on.trace.ring_capacity = 1 << 18;

  // Interleave a warmup of each so allocator state is comparable.
  workload::run_experiment(off);
  workload::run_experiment(on);

  ExperimentResult r_off, r_on;
  std::vector<double> ms_off, ms_on, delta_pct;
  for (int i = 0; i < kPairs; ++i) {
    r_off = workload::run_experiment(off);
    r_on = workload::run_experiment(on);
    if (r_off.makespan != r_on.makespan) {
      std::printf("FAIL: tracing perturbed virtual time (%lld != %lld)\n",
                  static_cast<long long>(r_off.makespan),
                  static_cast<long long>(r_on.makespan));
      return 1;
    }
    ms_off.push_back(r_off.wall_seconds * 1e3);
    ms_on.push_back(r_on.wall_seconds * 1e3);
    delta_pct.push_back(
        ms_off.back() > 0
            ? (ms_on.back() - ms_off.back()) / ms_off.back() * 100.0
            : 0.0);
  }
  std::sort(ms_off.begin(), ms_off.end());
  std::sort(ms_on.begin(), ms_on.end());
  std::sort(delta_pct.begin(), delta_pct.end());

  Table t("Tracing overhead (8 nodes, all senders, 10KB)",
          {"tracing", "GB/s", "makespan (us)", "events", "median wall (ms)"});
  t.row({"off", gbps(r_off.throughput_gbps),
         Table::num(sim::to_seconds(r_off.makespan) * 1e6, 1),
         Table::integer(r_off.trace_events),
         Table::num(quantile(ms_off, 0.5), 1)});
  t.row({"on", gbps(r_on.throughput_gbps),
         Table::num(sim::to_seconds(r_on.makespan) * 1e6, 1),
         Table::integer(r_on.trace_events),
         Table::num(quantile(ms_on, 0.5), 1)});
  t.print();

  std::printf("virtual time identical with tracing on; wall-clock delta "
              "over %d alternating pairs: median %+.1f%% (quartiles %+.1f%% "
              "to %+.1f%%)\n",
              kPairs, quantile(delta_pct, 0.5), quantile(delta_pct, 0.25),
              quantile(delta_pct, 0.75));
  return 0;
}
