// Figure 10 + §4.2.1: the primary null-send test. All members are senders;
// one or half of them are artificially delayed after each send (1us /
// 100us / indefinitely). Bandwidth is measured over a fixed number of
// messages from the continuous senders.
//
// Paper headlines: performance *increases* in every case except
// half-delayed-indefinitely (small delays -> larger batches; large delays
// -> remaining senders use the bandwidth), peaking at 10.0 GB/s. The
// delayed sender emits nulls in many receive-predicate iterations, and the
// inter-delivery gap between a continuous and a delayed sender's messages
// shrinks with n (3.779us @2 -> 1.617us @8 -> 1.192us @16).

#include "bench_util.hpp"

using namespace spindle;
using namespace spindle::bench;

int main() {
  struct Case {
    const char* name;
    std::size_t delayed;
    sim::Nanos delay;
    bool forever;
    const char* paper;
  };
  const Case cases[] = {
      {"no delay", 0, 0, false, "reference"},
      {"one delayed 1us", 1, 1'000, false, "slight increase"},
      {"one delayed 100us", 1, 100'000, false, "stays high (nulls fill)"},
      {"one delayed forever", 1, 0, true, "15/16 of reference"},
      {"half delayed 1us", 8, 1'000, false, "stays high"},
      {"half delayed 100us", 8, 100'000, false, "stays high"},
      {"half delayed forever", 8, 0, true, "~half (only case that drops)"},
  };

  Table t("Figure 10: delayed senders with null-sends (16 nodes, 10KB)",
          {"case", "GB/s", "nulls", "null iterations", "paper"});
  double reference = 0, half_forever = 0, one_100us = 0;
  for (const Case& c : cases) {
    ExperimentConfig cfg;
    cfg.nodes = 16;
    cfg.senders = SenderPattern::all;
    cfg.message_size = 10240;
    cfg.messages_per_sender = scaled(300);
    cfg.delayed_senders = c.delayed;
    cfg.post_send_delay = c.delay;
    cfg.delayed_forever = c.forever;
    cfg.opts = core::ProtocolOptions::spindle();
    auto r = workload::run_experiment(cfg);
    if (c.delayed == 0) reference = r.throughput_gbps;
    if (c.delayed == 8 && c.forever) half_forever = r.throughput_gbps;
    if (c.delayed == 1 && c.delay == 100'000) one_100us = r.throughput_gbps;
    t.row({c.name, gbps(r.throughput_gbps) + check_completed(r),
           Table::integer(r.stats.total.nulls_sent),
           Table::integer(r.stats.total.null_iterations), c.paper});
  }
  t.print();

  // Contrast: the same one-delayed-100us case with null-sends disabled —
  // the situation §3.3 exists to fix.
  double nulls_off = 0;
  {
    ExperimentConfig cfg;
    cfg.nodes = 16;
    cfg.senders = SenderPattern::all;
    cfg.message_size = 10240;
    cfg.messages_per_sender = scaled(200);
    cfg.delayed_senders = 1;
    cfg.post_send_delay = 100'000;
    cfg.opts = core::ProtocolOptions::spindle();
    cfg.opts.null_sends = false;
    auto r = workload::run_experiment(cfg);
    nulls_off = r.throughput_gbps;
    std::printf(
        "\nWithout null-sends, one sender delayed 100us: %.2f GB/s — the\n"
        "round-robin delivery order stalls behind the laggard (%s).\n",
        r.throughput_gbps, r.completed ? "completed" : "stalled");
  }

  Table g("Sec 4.2.1: latency of a delayed sender's messages vs subgroup size",
          {"nodes", "median latency delayed (us)", "median all (us)", "paper"});
  for (std::size_t n : {std::size_t{2}, std::size_t{8}, std::size_t{16}}) {
    ExperimentConfig cfg;
    cfg.nodes = n;
    cfg.senders = SenderPattern::all;
    cfg.message_size = 10240;
    cfg.messages_per_sender = scaled(300);
    cfg.delayed_senders = 1;
    cfg.post_send_delay = 100'000;
    cfg.opts = core::ProtocolOptions::spindle();
    auto r = workload::run_experiment(cfg);
    g.row({Table::integer(n),
           Table::num(static_cast<double>(
                          r.delayed_sender_latency_ns.median()) / 1e3, 1),
           Table::num(static_cast<double>(
                          r.continuous_sender_latency_ns.median()) / 1e3, 1),
           n == 16 ? "inter-delivery gap shrinks with n" : ""});
  }
  g.print();

  // Paper-shape gate: only half-delayed-forever drops, to about half the
  // reference. 0.4-0.6 is the ideal 0.5 (half the senders stop) +- 0.1;
  // 0.51 when the bound was set (EXPERIMENTS.md).
  const double ratio = half_forever / reference;
  int failed = shape_check("Fig 10: half delayed forever in 0.4-0.6x reference",
                           Table::num(ratio, 3) + "x",
                           ratio >= 0.4 && ratio <= 0.6);
  // §3.3: with null-sends one sender delayed 100us costs the others almost
  // nothing, and without them the round-robin order stalls behind it. The
  // nulls-on run read 0.96x when the bounds were set; 0.8x lets it lose a
  // sixth. The stalled run delivers one 16-message round per delayed send
  // (16 x 10KB per ~106us, 0.14x); 0.2x lets that pace run 40 % faster
  // (EXPERIMENTS.md).
  const double on = one_100us / reference;
  const double off = nulls_off / reference;
  failed |= shape_check("Fig 10: one delayed 100us, nulls on >= 0.8x reference",
                        Table::num(on, 3) + "x", on >= 0.8);
  failed |= shape_check("Fig 10: one delayed 100us, nulls off <= 0.2x reference",
                        Table::num(off, 3) + "x", off <= 0.2);
  return failed;
}
