// Figure 5: throughput AND latency as batching is applied to successively
// more stages of the pipeline (delivery -> +receive -> +send), all senders.
//
// Paper headline: every added stage improves *both* throughput and latency;
// overall latency drops by nearly two orders of magnitude vs the baseline —
// unlike traditional fixed-size sender batching, which trades latency away.

#include <cstdlib>

#include "bench_util.hpp"
#include "trace/analysis.hpp"

using namespace spindle;
using namespace spindle::bench;

namespace {

// Observability quickstart (README): SPINDLE_TRACE_OUT=<file> re-runs the
// fully batched 16-node configuration with pipeline tracing enabled, writes
// a Chrome/Perfetto JSON dump there, and prints the trace-derived stage
// batching + per-message lifecycle breakdown.
void dump_trace(const char* out) {
  ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.senders = SenderPattern::all;
  cfg.message_size = 10240;
  cfg.opts = core::ProtocolOptions::spindle();
  cfg.messages_per_sender = scaled(200);
  cfg.trace_out = out;
  trace::BatchStats bs;
  trace::LifecycleReport life;
  cfg.trace_sink = [&](const trace::Tracer& tr) {
    bs = trace::batch_stats(tr);
    life = trace::lifecycle(tr);
  };
  const auto r = workload::run_experiment(cfg);
  std::printf("\ntraced run: %llu events -> %s\n",
              static_cast<unsigned long long>(r.trace_events), out);
  std::printf("trace-derived batch sizes: send mean %.2f | receive mean %.2f"
              " | delivery mean %.2f\n",
              bs.send.mean(), bs.receive.mean(), bs.delivery.mean());
  std::printf("%s", trace::format(life).c_str());
}

}  // namespace

int main() {
  struct Stage {
    const char* name;
    bool d, r, s;
  };
  const Stage stages[] = {{"baseline", false, false, false},
                          {"+delivery", true, false, false},
                          {"+receive", true, true, false},
                          {"+send", true, true, true}};

  Table t("Figure 5: incremental batching stages (all senders, 10KB)",
          {"nodes", "stage", "GB/s", "median latency (us)", "paper"});
  BenchReport report("fig05_batching_stages");
  report.set_provenance(ExperimentConfig{}.seed, scaled(2000));
  double delivery16 = 0, receive16 = 0;  // GB/s of two stages at 16 nodes
  for (std::size_t n : node_sweep()) {
    for (const Stage& st : stages) {
      ExperimentConfig cfg;
      cfg.nodes = n;
      cfg.senders = SenderPattern::all;
      cfg.message_size = 10240;
      cfg.opts = core::ProtocolOptions::baseline();
      cfg.opts.delivery_batching = st.d;
      cfg.opts.receive_batching = st.r;
      cfg.opts.send_batching = st.s;
      cfg.messages_per_sender = scaled(st.r ? 2000 : 800);
      auto r = workload::run_averaged(cfg, 2);
      if (n == 16 && st.d && !st.s) {
        (st.r ? receive16 : delivery16) = r.throughput_gbps;
      }
      report.add_run(std::to_string(n) + "/" + st.name, r);
      t.row({Table::integer(n), st.name, gbps(r.throughput_gbps),
             Table::num(r.mean_median_latency_us, 1),
             (n == 16 && st.s) ? "both metrics improve each stage" : ""});
    }
  }
  t.print();
  report.write();
  if (const char* out = std::getenv("SPINDLE_TRACE_OUT")) dump_trace(out);

  // Paper-shape gate (EXPERIMENTS.md gives the bound's derivation): the
  // +receive stage's throughput gain at 16 nodes. 1.5x lets the NIC-bound
  // +receive run lose 14 % (to the 8-node row's 8.6 GB/s) before the check
  // fails; 1.74x when the bound was set.
  return shape_check("Fig 5: +receive >= 1.5x +delivery at 16 nodes",
                     gbps(receive16) + " vs " + gbps(delivery16) + " GB/s",
                     receive16 >= 1.5 * delivery16);
}
