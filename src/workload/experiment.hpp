#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/group.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"
#include "workload/run.hpp"

namespace spindle::workload {

/// Which members of each subgroup are senders (paper §4.1.1 patterns).
enum class SenderPattern { all, half, one };

/// Configuration for one protocol experiment, mirroring the scenarios of
/// the paper's evaluation: N nodes, one or more (overlapping, all-member)
/// subgroups, continuous or delayed senders, optimization flags. The
/// cluster half is the inherited core::ClusterConfig.
struct ExperimentConfig : core::ClusterConfig {
  /// 16 nodes; sim_threads 0 lets SPINDLE_SIM_THREADS pick the engine
  /// (resolve_sim_threads). Completion-invariant results (deliveries,
  /// latency histograms) are identical at any worker count.
  ExperimentConfig() {
    nodes = 16;
    sim_threads = 0;
    scan_interval = 0;  // the paper figures reproduce Derecho's polling thread
  }

  std::size_t subgroups = 1;         // every node is a member of every one
  std::size_t active_subgroups = 1;  // only these have senders sending
  SenderPattern senders = SenderPattern::all;
  std::size_t messages_per_sender = 1000;
  std::uint32_t message_size = 10240;
  core::ProtocolOptions opts = core::ProtocolOptions::spindle();

  /// Delay injection (§4.2.1): the first `delayed_senders` senders busy-wait
  /// `post_send_delay` after each send; with `delayed_forever` they never
  /// send at all (the "delayed indefinitely" case).
  std::size_t delayed_senders = 0;
  sim::Nanos post_send_delay = 0;
  bool delayed_forever = false;

  sim::Nanos max_virtual = sim::seconds(600);  // stall watchdog

  /// When non-empty, tracing is forced on and a Chrome/Perfetto JSON dump
  /// is written there after the run (tracing must not perturb virtual
  /// time).
  std::string trace_out;
  /// Called with the run's tracer after completion (before teardown), e.g.
  /// to feed the trace::analysis helpers.
  std::function<void(const trace::Tracer&)> trace_sink;
};

struct ExperimentResult : RunRecord {
  double median_latency_us = 0;
  double mean_latency_us = 0;
  double p99_latency_us = 0;
  /// Fraction of predicate-thread CPU spent in active subgroups (§4.1.3).
  double active_predicate_fraction = 0;
  /// Delivery latency split by sender class (§4.2.1: messages from delayed
  /// senders vs continuous senders).
  metrics::Histogram delayed_sender_latency_ns;
  metrics::Histogram continuous_sender_latency_ns;
};

/// Build the cluster for `cfg`, run until every tracked message has been
/// delivered everywhere (or the watchdog trips), and collect metrics.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// The paper runs each test 5 times and plots mean +- stddev. Seeds are
/// seed, seed+1, ... The record is the last run's, except that
/// throughput_gbps is the mean over the runs and engine_steps and
/// wall_seconds are summed over them. Runs execute seed-parallel on the
/// sweep thread pool (workload/sweep.hpp) — per-seed results are
/// byte-identical to serial execution.
struct Averaged : RunRecord {
  double stddev_gbps = 0;
  double mean_median_latency_us = 0;
};
Averaged run_averaged(ExperimentConfig cfg, int runs = 3);

/// Number of senders implied by a pattern.
std::size_t sender_count(SenderPattern p, std::size_t nodes);

/// Benchmark scale factor from SPINDLE_BENCH_SCALE (default 1.0): scales
/// messages_per_sender so CI and quick runs stay fast.
double bench_scale();

}  // namespace spindle::workload
