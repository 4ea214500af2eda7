#pragma once

// Shared helpers for the figure-reproduction benches. Each bench prints the
// paper's series next to ours; absolute GB/s values depend on the simulator
// calibration (see DESIGN.md §5), the *shape* is the reproduction target.
// Message counts are scaled down from the paper's 1M per sender; set
// SPINDLE_BENCH_SCALE to raise or lower them.

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workload/experiment.hpp"
#include "workload/run.hpp"
#include "workload/table.hpp"

extern "C" char** environ;  // POSIX: not declared by any header

namespace spindle::bench {

using workload::ExperimentConfig;
using workload::ExperimentResult;
using workload::SenderPattern;
using workload::Table;

inline std::size_t scaled(std::size_t base) {
  const double v = static_cast<double>(base) * workload::bench_scale();
  return v < 40 ? 40 : static_cast<std::size_t>(v);
}

inline const char* pattern_name(SenderPattern p) {
  switch (p) {
    case SenderPattern::all:
      return "all senders";
    case SenderPattern::half:
      return "half senders";
    case SenderPattern::one:
      return "one sender";
  }
  return "?";
}

inline std::vector<std::size_t> node_sweep() { return {2, 4, 8, 11, 16}; }

inline std::string gbps(double v) { return Table::num(v, 2); }

inline std::string check_completed(const workload::RunRecord& r) {
  return r.completed ? "" : " [INCOMPLETE: watchdog tripped]";
}

/// Machine-readable bench output: accumulates per-configuration rows plus
/// free-form scalar metrics and writes them to BENCH_<name>.json in the
/// working directory: the simulated-protocol numbers the tables print, next
/// to the simulator's cost (events/sec, wall time). No tool reads these
/// files; a few are committed at the repo root as reference output. The
/// simulator's cost is compared across commits by the repo benchmark's
/// benchmark_compare (sim.ops_per_s, setup_s, peak_rss_mb; see
/// benchmark/README.md).
///
/// Shape:
///   { "bench": "<name>", "scale": <SPINDLE_BENCH_SCALE>,
///     "provenance": { "seed": ..., "messages_per_sender": ...,
///                     "shards": ..., "cross_shard_fraction": ...,
///                     "sim_threads": ..., "hardware_concurrency": ...,
///                     "env": { "SPINDLE_...": "...", ... } },
///     "runs": [ { "label": "...", "events_per_sec": ..., "wall_seconds":
///                 ..., "makespan_ns": ..., "msgs_delivered": ...,
///                 "engine_steps": ..., "sim_workers": ...,
///                 "throughput_gbps": ... }, ... ],
///     "metrics": { "<key>": <number>, ... } }
///
/// The provenance block is what makes a checked-in report reproducible: the
/// base RNG seed and per-sender message count the bench ran with, the
/// simulation worker-thread count in effect (SPINDLE_SIM_THREADS resolution)
/// next to the machine's hardware concurrency (so a wall-clock diff between
/// reports from a 1-core and a many-core box is attributable), plus every
/// SPINDLE_* environment override — so a diff between two reports can be
/// traced to a code change rather than a forgotten env var.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Stamp the run parameters (base seed, per-sender message count) into
  /// the report's provenance block. Benches sweeping several configurations
  /// pass their base/first configuration.
  void set_provenance(std::uint64_t seed, std::uint64_t messages_per_sender) {
    seed_ = seed;
    messages_per_sender_ = messages_per_sender;
    has_provenance_ = true;
  }

  /// Sharded-domain benches additionally stamp the shard count and the
  /// cross-shard fraction the report's headline rows ran with (benches
  /// sweeping both pass their largest configuration).
  void set_shard_provenance(std::size_t shards, double cross_fraction) {
    shards_ = shards;
    cross_fraction_ = cross_fraction;
    has_shard_provenance_ = true;
  }

  /// Record one run under `label`. events/sec is engine events dispatched
  /// per wall second — the simulator-speed headline number.
  void add_run(const std::string& label, const workload::RunRecord& r) {
    runs_.emplace_back(label, r);
  }

  /// Free-form scalar (e.g. a speedup ratio or an ops/sec measurement that
  /// does not come from a RunRecord).
  void add_metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Write BENCH_<name>.json. Returns false (and warns on stderr) on I/O
  /// failure; benches keep their exit status independent of report I/O.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"scale\": %.6g,\n",
                 escape(name_).c_str(), workload::bench_scale());
    std::fprintf(f, "  \"provenance\": {");
    if (has_provenance_) {
      std::fprintf(f, "\n    \"seed\": %llu,\n    \"messages_per_sender\": %llu,",
                   static_cast<unsigned long long>(seed_),
                   static_cast<unsigned long long>(messages_per_sender_));
    }
    if (has_shard_provenance_) {
      std::fprintf(f,
                   "\n    \"shards\": %llu,"
                   "\n    \"cross_shard_fraction\": %.6g,",
                   static_cast<unsigned long long>(shards_), cross_fraction_);
    }
    std::fprintf(f,
                 "\n    \"sim_threads\": %llu,"
                 "\n    \"hardware_concurrency\": %u,",
                 static_cast<unsigned long long>(
                     workload::resolve_sim_threads(0)),
                 std::thread::hardware_concurrency());
    std::fprintf(f, "\n    \"env\": {");
    bool first_env = true;
    for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
      const std::string entry = *e;
      if (entry.rfind("SPINDLE_", 0) != 0) continue;
      const std::size_t eq = entry.find('=');
      if (eq == std::string::npos) continue;
      std::fprintf(f, "%s\n      \"%s\": \"%s\"", first_env ? "" : ",",
                   escape(entry.substr(0, eq)).c_str(),
                   escape(entry.substr(eq + 1)).c_str());
      first_env = false;
    }
    std::fprintf(f, "\n    }\n  },\n");
    std::fprintf(f, "  \"runs\": [");
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const auto& [label, r] = runs_[i];
      const double eps =
          r.wall_seconds > 0
              ? static_cast<double>(r.engine_steps) / r.wall_seconds
              : 0;
      std::fprintf(f,
                   "%s\n    { \"label\": \"%s\", \"events_per_sec\": %.6g, "
                   "\"wall_seconds\": %.6g, \"makespan_ns\": %llu, "
                   "\"msgs_delivered\": %llu, \"engine_steps\": %llu, "
                   "\"sim_workers\": %llu, \"throughput_gbps\": %.6g }",
                   i ? "," : "", escape(label).c_str(), eps, r.wall_seconds,
                   static_cast<unsigned long long>(r.makespan),
                   static_cast<unsigned long long>(r.delivered),
                   static_cast<unsigned long long>(r.engine_steps),
                   static_cast<unsigned long long>(r.sim_workers),
                   r.throughput_gbps);
    }
    std::fprintf(f, "\n  ],\n  \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %.6g", i ? "," : "",
                   escape(metrics_[i].first).c_str(), metrics_[i].second);
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("bench report: %s\n", path.c_str());
    return true;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, workload::RunRecord>> runs_;
  std::vector<std::pair<std::string, double>> metrics_;
  bool has_provenance_ = false;
  std::uint64_t seed_ = 0;
  std::uint64_t messages_per_sender_ = 0;
  bool has_shard_provenance_ = false;
  std::size_t shards_ = 0;
  double cross_fraction_ = 0;
};

}  // namespace spindle::bench
