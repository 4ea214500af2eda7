// Figure 7 + §4.1.3 batch-size commentary: histograms of send, receive and
// delivery batch sizes for the single subgroup, 16 senders, w=100 case —
// and the growth of mean batch sizes as inactive subgroups are added.
//
// Paper headlines: sends batch small (<5, mean 1.72); receives merge all
// sender streams (mean 22.18); delivery adds a stability level and batches
// in multiples of 16 (mean 35.19). With 2/10/50 subgroups the means grow to
// {6.20,49.36,127.74} / {21.67,79.15,334.48} / {50.45,207.46,638.57} —
// opportunistic batching adapting to delays.

#include "bench_util.hpp"

using namespace spindle;
using namespace spindle::bench;

namespace {
void print_histogram(const char* name, const metrics::Histogram& h) {
  std::printf("\n%s: count=%llu mean=%.2f p50=%llu p99=%llu max=%llu\n", name,
              static_cast<unsigned long long>(h.count()), h.mean(),
              static_cast<unsigned long long>(h.median()),
              static_cast<unsigned long long>(h.percentile(99)),
              static_cast<unsigned long long>(h.max()));
  const auto buckets = h.buckets();
  std::uint64_t peak = 1;
  for (const auto& b : buckets) peak = std::max(peak, b.count);
  for (const auto& b : buckets) {
    const int bar = static_cast<int>(50.0 * static_cast<double>(b.count) /
                                     static_cast<double>(peak));
    std::printf("  [%6llu-%6llu] %8llu |%.*s\n",
                static_cast<unsigned long long>(b.low),
                static_cast<unsigned long long>(b.high),
                static_cast<unsigned long long>(b.count), bar,
                "##################################################");
  }
}
}  // namespace

int main() {
  ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.senders = SenderPattern::all;
  cfg.message_size = 10240;
  cfg.messages_per_sender = scaled(600);
  cfg.opts = core::ProtocolOptions::spindle();
  auto r = workload::run_experiment(cfg);

  std::printf("== Figure 7: batch size distributions (16 senders, w=100) ==\n");
  std::printf("paper means: send 1.72, receive 22.18, delivery 35.19\n");
  print_histogram("send batches", r.stats.total.send_batches);
  print_histogram("receive batches", r.stats.total.receive_batches);
  print_histogram("delivery batches", r.stats.total.delivery_batches);
  const double send = r.stats.total.send_batches.mean();
  const double receive = r.stats.total.receive_batches.mean();
  const double delivery = r.stats.total.delivery_batches.mean();

  Table t("Sec 4.1.3: mean batch sizes vs number of (inactive) subgroups",
          {"subgroups", "send", "receive", "delivery", "paper {s,r,d}"});
  const char* paper[] = {"{1.72, 22.18, 35.19}", "{6.20, 49.36, 127.74}",
                         "{21.67, 79.15, 334.48}", "{50.45, 207.46, 638.57}"};
  int pi = 0;
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{10},
                        std::size_t{50}}) {
    ExperimentConfig mc = cfg;
    mc.subgroups = k;
    mc.active_subgroups = 1;
    mc.messages_per_sender = scaled(k >= 10 ? 200 : 400);
    auto mr = workload::run_experiment(mc);
    t.row({Table::integer(k), Table::num(mr.stats.total.send_batches.mean(), 2),
           Table::num(mr.stats.total.receive_batches.mean(), 2),
           Table::num(mr.stats.total.delivery_batches.mean(), 2), paper[pi++]});
  }
  t.print();

  // Paper-shape gate: the paper's ordering of the three stages' mean batch
  // sizes. An ordering needs no margin (EXPERIMENTS.md); its closest pair
  // read 11.17 < 14.92 when the check was set.
  return shape_check("Fig 7: mean batch send < receive < delivery",
                     Table::num(send, 2) + " < " + Table::num(receive, 2) +
                         " < " + Table::num(delivery, 2),
                     send < receive && receive < delivery);
}
