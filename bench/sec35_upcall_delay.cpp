// Section 3.5: delays caused by the receiver. Delivery upcalls run on the
// polling thread's critical path; this bench injects 1us / 100us / 1ms of
// application processing per delivered message.
//
// Paper headlines: throughput drops ~9% / ~90% / ~99%; for the larger
// delays the system degenerates to one message delivered per delay time.

#include "bench_util.hpp"

using namespace spindle;
using namespace spindle::bench;

int main() {
  ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.senders = SenderPattern::one;
  cfg.message_size = 10240;
  cfg.messages_per_sender = scaled(400);
  cfg.opts = core::ProtocolOptions::spindle();
  auto base = workload::run_experiment(cfg);

  Table t("Sec 3.5: delivery upcall delay (one sender, 16 nodes)",
          {"upcall delay", "GB/s", "msgs/s per node", "drop %", "paper"});
  t.row({"none", gbps(base.throughput_gbps),
         Table::num(base.delivery_rate_per_node, 0), "0", "reference"});
  struct Case {
    sim::Nanos delay;
    const char* name;
    const char* paper;
    std::size_t msgs;
  };
  const Case cases[] = {{1'000, "1us", "~9%", scaled(400)},
                        {100'000, "100us", "~90% (1 msg per delay)", 100},
                        {1'000'000, "1ms", "~99% (1 msg per delay)", 40}};
  for (const Case& c : cases) {
    ExperimentConfig d = cfg;
    d.opts.extra_upcall_delay = c.delay;
    d.messages_per_sender = c.msgs;
    auto r = workload::run_experiment(d);
    t.row({c.name, gbps(r.throughput_gbps),
           Table::num(r.delivery_rate_per_node, 0),
           Table::num(100.0 * (1.0 - r.throughput_gbps /
                               base.throughput_gbps), 0),
           c.paper});
  }
  t.print();

  std::printf(
      "\nMitigations (§3.5): batched delivery upcalls, or memcpy-out and\n"
      "return immediately — see bench_fig15_memcpy_pipeline.\n");

  // Mitigation 1 in action: the same 1us-per-upcall application, all
  // senders, with per-message vs batched upcalls.
  {
    workload::ExperimentConfig d = cfg;
    d.senders = SenderPattern::all;
    d.messages_per_sender = scaled(300);
    d.opts.extra_upcall_delay = 1'000;
    auto per_msg = workload::run_experiment(d);
    // The harness installs per-message handlers; emulate the batched
    // variant by charging the delay once per delivery batch: run a
    // dedicated cluster.
    core::ClusterConfig cc;
    cc.nodes = 16;
    cc.scan_interval = 0;  // a paper figure: Derecho's full polling lap
    core::Cluster cluster(cc);
    core::SubgroupConfig sc;
    sc.name = "batched";
    for (net::NodeId i = 0; i < 16; ++i) sc.members.push_back(i);
    sc.senders = sc.members;
    sc.opts = d.opts;
    auto sg = cluster.create_subgroup(sc);
    cluster.start();
    for (net::NodeId i = 0; i < 16; ++i) {
      cluster.node(i).set_batch_delivery_handler(
          sg, [](std::span<const core::Delivery>) {});
      cluster.engine().spawn(
          [](core::Cluster* c, net::NodeId id, core::SubgroupId g,
             std::size_t count) -> sim::Co<> {
            for (std::size_t m = 0; m < count; ++m) {
              if (c->node(id).stopped()) co_return;
              co_await c->node(id).send(g, 10240,
                                        [](std::span<std::byte>) {});
            }
          }(&cluster, i, sg, d.messages_per_sender));
    }
    cluster.engine().run_until(
        [&] {
          return cluster.total_delivered(sg) >=
                 16ull * d.messages_per_sender * 16ull;
        },
        sim::seconds(120));
    const double batched_gbps =
        static_cast<double>(cluster.stats().total.bytes_delivered) / 16.0 /
        sim::to_seconds(cluster.engine().now()) / 1e9;
    std::printf(
        "1us upcall, 16 senders: per-message upcalls %.2f GB/s vs batched "
        "upcalls %.2f GB/s\n",
        per_msg.throughput_gbps, batched_gbps);
    cluster.shutdown();
  }
  return 0;
}
