#pragma once

// Shared pieces of the benchmark: the metric table, seeded input
// generation, exact percentiles over raw samples, order digests, and the
// per-repetition record every workload fills.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace spindle::bench {

// ---------------------------------------------------------------- metrics

enum class Better { lower, higher };

/// One row of the metric table. BENCHMARK.json lists the same names, units
/// and directions; `bound` is the share of the parent's median by which an
/// end-to-end metric may worsen before a change counts as a regression
/// (per-layer metrics carry no bound).
struct MetricDef {
  const char* name;
  const char* unit;
  Better better;
  double bound;  // < 0: per-layer metric
};

const std::vector<MetricDef>& metric_table();
const MetricDef* find_metric(const std::string& name);
inline bool is_end_to_end(const MetricDef& d) { return d.bound >= 0; }

/// A measured value and the number of samples behind it (0 when the value
/// is not a sample statistic, or the layer does no work on the workload).
struct Value {
  double v = 0;
  std::uint64_t n = 0;
};
using Metrics = std::map<std::string, Value>;

// ------------------------------------------------------------ generation

/// splitmix64. The benchmark's own input generator: the system under test
/// never sees the seed, only the schedules drawn from it.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// An independent stream for one consumer (sender, relay, rate step).
  Gen fork(std::uint64_t stream) const {
    Gen g(s_ ^ (0xd1b54a32d192ed03ull * (stream + 1)));
    g.next();
    return g;
  }

 private:
  std::uint64_t s_;
};

/// Per-sender start offsets in [0, 10 us): the seeded perturbation of when
/// each sender starts.
std::vector<std::int64_t> start_offsets(std::uint64_t seed, std::size_t senders);

// ------------------------------------------------------------ statistics

/// Raw samples with exact nearest-rank percentiles (no histogram buckets).
class Samples {
 public:
  void add(std::int64_t v) {
    v_.push_back(v);
    sorted_ = false;
  }
  std::size_t size() const { return v_.size(); }
  /// Nearest rank: the smallest sample with at least p% of samples <= it.
  std::int64_t percentile(double p);
  /// Percentile in microseconds of nanosecond samples, with its count.
  Value us(double p) {
    return {static_cast<double>(percentile(p)) / 1e3, size()};
  }
  Value ns(double p) { return {static_cast<double>(percentile(p)), size()}; }

 private:
  std::vector<std::int64_t> v_;
  bool sorted_ = true;
};

/// FNV-1a over 64-bit words: order-sensitive delivery digests.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

/// Every workload reports every end-to-end metric. A path the workload does
/// not exercise reports the nearest quantity it does measure: cross_*,
/// rpc_* and outage_us mirror delivery_* (with one ordering stream, no
/// request/reply and no crash, a message's wait for delivery is all the
/// service there is), and rpc_capacity_rps is the rate at which sends
/// completed everywhere, when `completed_per_s` is given. Metrics already
/// set are kept.
void mirror_unexercised(Metrics& e2e, std::optional<double> completed_per_s);

class WallTimer {
 public:
  WallTimer() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

// ------------------------------------------------------------- workloads

/// What a workload is asked to do in one repetition.
struct Spec {
  std::uint64_t seed = 1;
  bool smoke = false;   // ~50x shorter; correctness checks unchanged
  bool traced = false;  // tracing on, span-derived layer metrics computed
};

/// One repetition of one workload.
struct Rep {
  double setup_s = 0;          // wall: construction through start()
  double run_s = 0;            // wall: the measured run phase
  std::uint64_t steps = 0;     // engine events dispatched in the run phase
  std::uint64_t sim_ops = 0;   // deliveries (rpc: ok replies) simulated
  std::uint64_t attempted = 0;  // operations issued
  std::uint64_t failed = 0;     // undelivered or non-ok operations
  std::uint64_t digest = kFnvOffset;  // order digest over every stream
  std::int64_t makespan = 0;          // virtual ns of the run phase
  std::vector<std::string> violations;
  /// Virtual-time end-to-end metrics: bit-identical across repetitions.
  Metrics e2e;
  /// Per-layer metrics: counter-derived always, span-derived when traced.
  Metrics layer;

  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

}  // namespace spindle::bench
