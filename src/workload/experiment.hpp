#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/group.hpp"
#include "metrics/metrics.hpp"
#include "metrics/registry.hpp"
#include "trace/trace.hpp"

namespace spindle::workload {

/// Which members of each subgroup are senders (paper §4.1.1 patterns).
enum class SenderPattern { all, half, one };

/// Configuration for one protocol experiment, mirroring the scenarios of
/// the paper's evaluation: N nodes, one or more (overlapping, all-member)
/// subgroups, continuous or delayed senders, optimization flags.
struct ExperimentConfig {
  std::size_t nodes = 16;
  std::size_t subgroups = 1;         // every node is a member of every one
  std::size_t active_subgroups = 1;  // only these have senders sending
  SenderPattern senders = SenderPattern::all;
  std::size_t messages_per_sender = 1000;
  std::uint32_t message_size = 10240;
  core::ProtocolOptions opts = core::ProtocolOptions::spindle();
  /// Predicate-scheduler discipline (fig13 multi-active: `drr` keeps a hot
  /// subgroup from paying a full strict-RR lap of cold evaluations).
  sst::Discipline discipline = sst::Discipline::strict_rr;
  /// DRR weight given to the *active* subgroups; inactive ones keep
  /// weight 1. Ignored under strict-RR.
  std::uint32_t active_weight = 1;
  /// DRR scan-lane period — the service bound for a demoted (quiet) group,
  /// and so the latency bound for its first message. Must be long relative
  /// to a polling round for demotion to actually shed cold-group work.
  sim::Nanos scan_interval = sim::micros(25);

  /// Delay injection (§4.2.1): the first `delayed_senders` senders busy-wait
  /// `post_send_delay` after each send; with `delayed_forever` they never
  /// send at all (the "delayed indefinitely" case).
  std::size_t delayed_senders = 0;
  sim::Nanos post_send_delay = 0;
  bool delayed_forever = false;

  std::uint64_t seed = 1;
  net::TimingModel timing{};
  core::CpuModel cpu{};
  sim::Nanos max_virtual = sim::seconds(600);  // stall watchdog

  /// Simulation worker threads (ClusterConfig::sim_threads). 0 (default)
  /// resolves from the SPINDLE_SIM_THREADS environment variable, falling
  /// back to 1 (serial). Values > 1 run the conservative-lookahead parallel
  /// engine; completion-invariant results (deliveries, latency histograms)
  /// are identical to serial runs.
  std::size_t sim_threads = 0;

  /// Pipeline tracing (off by default; enabling it must not perturb virtual
  /// time). When `trace_out` is non-empty, tracing is forced on and a
  /// Chrome/Perfetto JSON dump is written there after the run.
  trace::TraceConfig trace{};
  std::string trace_out;
  /// Called with the run's tracer after completion (before teardown), e.g.
  /// to feed the trace::analysis helpers.
  std::function<void(const trace::Tracer&)> trace_sink;
};

struct ExperimentResult {
  bool completed = false;
  sim::Nanos makespan = 0;
  /// Paper throughput metric: application data delivered per unit time,
  /// GB/s averaged over all nodes.
  double throughput_gbps = 0;
  double delivery_rate_per_node = 0;  // messages/s per node
  double median_latency_us = 0;
  double mean_latency_us = 0;
  double p99_latency_us = 0;
  /// Observability snapshot taken at completion: stats.total for merged
  /// counters, stats.nodes / stats.subgroups for the drill-down.
  metrics::ClusterStats stats;
  /// Pipeline events recorded (0 unless cfg.trace.enabled / trace_out).
  std::uint64_t trace_events = 0;
  /// Fraction of predicate-thread CPU spent in active subgroups (§4.1.3).
  double active_predicate_fraction = 0;
  std::uint64_t expected_deliveries = 0;
  /// Simulator cost of the run: events dispatched and real (wall-clock)
  /// time spent inside run_experiment — the perf-trajectory numbers the
  /// BENCH_*.json baselines track.
  std::uint64_t engine_steps = 0;
  double wall_seconds = 0;
  /// Event callables the engine had to heap-box (sim::Engine::boxed).
  std::uint64_t engine_boxed = 0;
  /// Worker threads the run actually used (1 = serial engine).
  std::size_t sim_workers = 1;
  /// Delivery latency split by sender class (§4.2.1: messages from delayed
  /// senders vs continuous senders).
  metrics::Histogram delayed_sender_latency_ns;
  metrics::Histogram continuous_sender_latency_ns;
};

/// Build the cluster for `cfg`, run until every tracked message has been
/// delivered everywhere (or the watchdog trips), and collect metrics.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// The paper runs each test 5 times and plots mean +- stddev. Seeds are
/// seed, seed+1, ... Returns throughput statistics plus the last result.
/// Runs execute seed-parallel on the sweep thread pool (workload/sweep.hpp)
/// — per-seed results are byte-identical to serial execution.
struct Averaged {
  double mean_gbps = 0;
  double stddev_gbps = 0;
  double mean_median_latency_us = 0;
  std::uint64_t engine_steps = 0;  // summed over the runs
  double wall_seconds = 0;         // summed over the runs
  ExperimentResult last;
};
Averaged run_averaged(ExperimentConfig cfg, int runs = 3);

/// Number of senders implied by a pattern.
std::size_t sender_count(SenderPattern p, std::size_t nodes);

/// Benchmark scale factor from SPINDLE_BENCH_SCALE (default 1.0): scales
/// messages_per_sender so CI and quick runs stay fast.
double bench_scale();

/// Worker-thread count from SPINDLE_SIM_THREADS (default 1). This is what
/// ExperimentConfig::sim_threads == 0 resolves to.
std::size_t sim_threads_from_env();

}  // namespace spindle::workload
