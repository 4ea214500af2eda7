#include "workload/experiment.hpp"

#include <algorithm>
#include <chrono>
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

std::size_t sim_threads_from_env() {
  if (const char* env = std::getenv("SPINDLE_SIM_THREADS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 1;
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
  const auto wall_start = std::chrono::steady_clock::now();
  core::ClusterConfig cc;
  cc.nodes = cfg.nodes;
  cc.timing = cfg.timing;
  cc.cpu = cfg.cpu;
  cc.seed = cfg.seed;
  cc.trace = cfg.trace;
  cc.discipline = cfg.discipline;
  cc.scan_interval = cfg.scan_interval;
  cc.sim_threads = cfg.sim_threads > 0 ? cfg.sim_threads : sim_threads_from_env();
  if (!cfg.trace_out.empty()) cc.trace.enabled = true;
  core::Cluster cluster(cc);

  std::vector<net::NodeId> all(cfg.nodes);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    all[i] = static_cast<net::NodeId>(i);
  }
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
    sc.weight = g < cfg.active_subgroups ? cfg.active_weight : 1;
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
  // but completion keys on the continuous senders.
  //
  // Parallel-safe accounting: each node's delivery handler runs on the
  // worker that owns the node, so counts and latency samples go into
  // per-node slots (written by exactly one thread). The stop condition sums
  // the slots — it only runs at a lookahead barrier (or on the single
  // serial thread), where every worker's writes are visible.
  std::vector<std::uint64_t> tracked_per_node(cfg.nodes, 0);
  std::vector<sim::Nanos> last_tracked_at(cfg.nodes, 0);
  struct NodeLatency {
    metrics::Histogram delayed;
    metrics::Histogram continuous;
  };
  std::vector<NodeLatency> latency_per_node(cfg.nodes);
  ExperimentResult res;
  for (std::size_t g = 0; g < cfg.active_subgroups && g < cfg.subgroups;
       ++g) {
    const core::SubgroupId sg = sgs[g];
    for (net::NodeId m : all) {
      sim::Engine& eng = cluster.engine_for(m);
      std::uint64_t& tracked = tracked_per_node[m];
      sim::Nanos& last_at = last_tracked_at[m];
      NodeLatency& lat_slot = latency_per_node[m];
      cluster.node(m).set_delivery_handler(
          sg, [&tracked, &last_at, &lat_slot, &eng, &cfg](
                  const core::Delivery& d) {
            if (d.sender >= cfg.delayed_senders) {
              ++tracked;
              last_at = eng.now();
            }
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
  res.expected_deliveries = expected;
  res.completed = cluster.run_until(
      [&] {
        std::uint64_t total = 0;
        for (std::uint64_t n : tracked_per_node) total += n;
        return total >= expected;
      },
      cfg.max_virtual);
  // Makespan is the virtual time of the last *tracked* delivery, not the
  // time the driver happened to halt: the serial engine stops mid-event the
  // moment the condition holds, while the parallel engine only re-checks at
  // the next lookahead barrier. Delivery streams are byte-identical across
  // modes, so this timestamp — and every throughput/latency figure derived
  // from it — is worker-count-invariant where cluster.now() is not.
  res.makespan = 0;
  for (sim::Nanos t : last_tracked_at) res.makespan = std::max(res.makespan, t);
  if (!res.completed || res.makespan == 0) res.makespan = cluster.now();
  res.sim_workers = cluster.sim_workers();
  for (const NodeLatency& nl : latency_per_node) {
    res.delayed_sender_latency_ns.merge(nl.delayed);
    res.continuous_sender_latency_ns.merge(nl.continuous);
  }

  res.stats = cluster.stats();
  const metrics::ProtocolCounters& totals = res.stats.total;
  const double secs = sim::to_seconds(res.makespan);
  if (secs > 0) {
    res.throughput_gbps = static_cast<double>(totals.bytes_delivered) /
                          static_cast<double>(cfg.nodes) / secs / 1e9;
    res.delivery_rate_per_node =
        static_cast<double>(totals.messages_delivered) /
        static_cast<double>(cfg.nodes) / secs;
  }
  res.median_latency_us =
      static_cast<double>(totals.delivery_latency_ns.median()) / 1e3;
  res.mean_latency_us = totals.delivery_latency_ns.mean() / 1e3;
  res.p99_latency_us =
      static_cast<double>(totals.delivery_latency_ns.percentile(99)) / 1e3;

  res.trace_events = cluster.tracer().total_recorded();
  if (cfg.trace_sink) cfg.trace_sink(cluster.tracer());
  if (!cfg.trace_out.empty()) {
    if (trace::write_chrome_json(cluster.tracer(), cfg.trace_out)) {
      std::fprintf(stderr, "trace: wrote %llu events to %s\n",
                   static_cast<unsigned long long>(res.trace_events),
                   cfg.trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace: FAILED to write %s\n",
                   cfg.trace_out.c_str());
    }
  }

  sim::Nanos active_cpu = 0;
  sim::Nanos total_cpu = totals.predicate_cpu;
  for (std::size_t g = 0; g < cfg.active_subgroups && g < cfg.subgroups;
       ++g) {
    for (net::NodeId m : all) {
      active_cpu += cluster.node(m).predicate_cpu_in(sgs[g]);
    }
  }
  if (total_cpu > 0) {
    res.active_predicate_fraction =
        static_cast<double>(active_cpu) / static_cast<double>(total_cpu);
  }

  cluster.shutdown();
  res.engine_steps = cluster.steps();
  res.engine_boxed = cluster.boxed();
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return res;
}

Averaged run_averaged(ExperimentConfig cfg, int runs) {
  Averaged avg;
  metrics::RunStats tp;
  metrics::RunStats lat;
  std::vector<ExperimentResult> results =
      run_seed_sweep(cfg, runs > 0 ? static_cast<std::size_t>(runs) : 0);
  for (ExperimentResult& r : results) {
    tp.add(r.throughput_gbps);
    lat.add(r.median_latency_us);
    avg.engine_steps += r.engine_steps;
    avg.wall_seconds += r.wall_seconds;
    avg.last = std::move(r);
  }
  avg.mean_gbps = tp.mean();
  avg.stddev_gbps = tp.stddev();
  avg.mean_median_latency_us = lat.mean();
  return avg;
}

}  // namespace spindle::workload
