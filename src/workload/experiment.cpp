#include "workload/experiment.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "trace/export.hpp"
#include "workload/sweep.hpp"

namespace spindle::workload {

std::size_t sender_count(SenderPattern p, std::size_t nodes) {
  switch (p) {
    case SenderPattern::all:
      return nodes;
    case SenderPattern::half:
      return nodes < 2 ? 1 : nodes / 2;
    case SenderPattern::one:
      return 1;
  }
  return 1;
}

double bench_scale() {
  if (const char* env = std::getenv("SPINDLE_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return 1.0;
}

namespace {

/// Application sender thread: streams `count` messages into one subgroup,
/// optionally pausing after each send (the §4.2.1 delayed-sender pattern).
sim::Co<> sender_actor(core::Cluster* cluster, net::NodeId id,
                       core::SubgroupId sg, std::size_t count,
                       std::uint32_t size, sim::Nanos delay) {
  core::Node& node = cluster->node(id);
  for (std::size_t i = 0; i < count; ++i) {
    if (node.stopped()) co_return;
    co_await node.send(sg, size, [i](std::span<std::byte> buf) {
      if (buf.size() >= sizeof(std::uint64_t)) {
        const std::uint64_t tag = i;
        std::memcpy(buf.data(), &tag, sizeof tag);
      }
    });
    if (delay > 0) co_await cluster->engine_for(id).sleep(delay);
  }
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  RunHarness harness(cfg.nodes);
  core::ClusterConfig cc = cfg;
  cc.sim_threads = resolve_sim_threads(cfg.sim_threads);
  if (!cfg.trace_out.empty()) cc.trace.enabled = true;
  core::Cluster cluster(cc);

  const std::vector<net::NodeId>& all = cluster.members();
  const std::size_t n_senders = sender_count(cfg.senders, cfg.nodes);
  std::vector<net::NodeId> senders(all.begin(),
                                   all.begin() + static_cast<long>(n_senders));

  std::vector<core::SubgroupId> sgs;
  for (std::size_t g = 0; g < cfg.subgroups; ++g) {
    core::SubgroupConfig sc;
    sc.name = "sg" + std::to_string(g);
    sc.members = all;
    sc.senders = senders;
    sc.opts = cfg.opts;
    sgs.push_back(cluster.create_subgroup(sc));
  }
  cluster.start();

  // Tracked deliveries: messages from senders that will actually finish.
  // Delayed-forever senders send nothing; finitely-delayed senders send but
  // are excluded from the completion target (the paper measures bandwidth
  // after a fixed number of messages from the continuous senders).
  std::uint64_t tracked_per_subgroup = 0;
  for (std::size_t s = 0; s < n_senders; ++s) {
    const bool delayed = s < cfg.delayed_senders;
    if (!delayed) tracked_per_subgroup += cfg.messages_per_sender;
  }
  const std::uint64_t expected =
      tracked_per_subgroup * cfg.active_subgroups * cfg.nodes;

  // Spawn sender threads for active subgroups.
  for (std::size_t g = 0; g < cfg.active_subgroups && g < cfg.subgroups; ++g) {
    for (std::size_t s = 0; s < n_senders; ++s) {
      const bool delayed = s < cfg.delayed_senders;
      if (delayed && cfg.delayed_forever) continue;
      cluster.engine_for(senders[s]).spawn(sender_actor(
          &cluster, senders[s], sgs[g], cfg.messages_per_sender,
          cfg.message_size, delayed ? cfg.post_send_delay : 0));
    }
  }

  // Count only deliveries of messages from tracked (non-delayed) senders.
  // Delayed senders' messages still flow and count toward bytes/latency,
  // but completion keys on the continuous senders. Latency samples go into
  // per-node slots, written only by the worker that owns the node.
  struct NodeLatency {
    metrics::Histogram delayed;
    metrics::Histogram continuous;
  };
  std::vector<NodeLatency> latency_per_node(cfg.nodes);
  for (std::size_t g = 0; g < cfg.active_subgroups && g < cfg.subgroups;
       ++g) {
    const core::SubgroupId sg = sgs[g];
    for (net::NodeId m : all) {
      sim::Engine& eng = cluster.engine_for(m);
      NodeLatency& lat_slot = latency_per_node[m];
      cluster.node(m).set_delivery_handler(
          sg, [&harness, &lat_slot, &eng, &cfg, m](const core::Delivery& d) {
            if (d.sender >= cfg.delayed_senders) harness.count(m, eng.now());
            if (d.sent_at >= 0) {
              const auto lat =
                  static_cast<std::uint64_t>(eng.now() - d.sent_at);
              if (d.sender < cfg.delayed_senders) {
                lat_slot.delayed.add(lat);
              } else {
                lat_slot.continuous.add(lat);
              }
            }
          });
    }
  }
  ExperimentResult res;
  harness.run(cluster, expected, cfg.max_virtual, res);
  for (const NodeLatency& nl : latency_per_node) {
    res.delayed_sender_latency_ns.merge(nl.delayed);
    res.continuous_sender_latency_ns.merge(nl.continuous);
  }

  if (cfg.trace_sink) cfg.trace_sink(cluster.tracer());
  if (!cfg.trace_out.empty()) {
    if (trace::write_chrome_json(cluster.tracer(), cfg.trace_out)) {
      std::fprintf(stderr, "trace: wrote %llu events to %s\n",
                   static_cast<unsigned long long>(
                       cluster.tracer().total_recorded()),
                   cfg.trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace: FAILED to write %s\n",
                   cfg.trace_out.c_str());
    }
  }

  sim::Nanos active_cpu = 0;
  for (std::size_t g = 0; g < cfg.active_subgroups && g < cfg.subgroups;
       ++g) {
    for (net::NodeId m : all) {
      active_cpu += cluster.node(m).predicate_cpu_in(sgs[g]);
    }
  }

  harness.finish(cluster, res);
  const metrics::ProtocolCounters& totals = res.stats.total;
  res.set_rates(totals.bytes_delivered, cfg.nodes);
  res.median_latency_us =
      static_cast<double>(totals.delivery_latency_ns.median()) / 1e3;
  res.mean_latency_us = totals.delivery_latency_ns.mean() / 1e3;
  res.p99_latency_us =
      static_cast<double>(totals.delivery_latency_ns.percentile(99)) / 1e3;
  if (totals.predicate_cpu > 0) {
    res.active_predicate_fraction = static_cast<double>(active_cpu) /
                                    static_cast<double>(totals.predicate_cpu);
  }
  return res;
}

Averaged run_averaged(ExperimentConfig cfg, int runs) {
  Averaged avg;
  metrics::RunStats tp;
  metrics::RunStats lat;
  std::uint64_t steps = 0;
  double wall = 0;
  for (ExperimentResult& r :
       run_seed_sweep(cfg, runs > 0 ? static_cast<std::size_t>(runs) : 0)) {
    tp.add(r.throughput_gbps);
    lat.add(r.median_latency_us);
    steps += r.engine_steps;
    wall += r.wall_seconds;
    static_cast<RunRecord&>(avg) = std::move(r);
  }
  avg.throughput_gbps = tp.mean();
  avg.engine_steps = steps;
  avg.wall_seconds = wall;
  avg.stddev_gbps = tp.stddev();
  avg.mean_median_latency_us = lat.mean();
  return avg;
}

}  // namespace spindle::workload
