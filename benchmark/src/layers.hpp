#pragma once

// Per-layer metrics: counter-derived ones read from cluster.stats() (always
// on, taken from untraced runs) and span-derived ones computed from the raw
// trace events of a traced run, with exact percentiles.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "metrics/registry.hpp"
#include "trace/trace.hpp"

namespace spindle::bench {

/// One message at one node in trace events: (node, subgroup, sender rank,
/// message index); `node` is 0 for the node-independent message key.
struct MsgKey {
  std::uint32_t node, subgroup, sender;
  std::int64_t index;
  bool operator==(const MsgKey&) const = default;
};
struct MsgKeyHash {
  std::size_t operator()(const MsgKey& k) const {
    std::uint64_t h = fnv(kFnvOffset, k.node);
    h = fnv(h, k.subgroup);
    h = fnv(h, k.sender);
    return static_cast<std::size_t>(fnv(h, static_cast<std::uint64_t>(k.index)));
  }
};
template <typename T>
using MsgMap = std::unordered_map<MsgKey, T, MsgKeyHash>;

/// What the counter ratios are normalized by, for one cluster.
struct LayerContext {
  std::int64_t makespan = 0;          // virtual ns the counters cover
  std::size_t nodes = 0;              // members whose polling CPU is counted
  std::size_t sending_threads = 0;    // application threads that send
  std::uint64_t ops = 0;              // workload operations issued
  std::uint64_t app_bytes_sent = 0;   // payload bytes handed to send()
  std::uint64_t crosses = 0;          // cross-shard sends
  std::vector<std::uint32_t> active_subgroups;  // subgroups carrying traffic
};

/// Accumulates cluster snapshots (several clusters for member_crash) and
/// emits the counter-derived layer metrics.
class CounterLayers {
 public:
  void add(const metrics::ClusterStats& s, const LayerContext& c);
  void emit(Metrics& out) const;

 private:
  metrics::ProtocolCounters total_;
  double sender_thread_ns_ = 0;
  double node_ns_ = 0;
  double active_cpu_ = 0;
  std::uint64_t evals_ = 0;
  std::uint64_t fires_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t app_bytes_ = 0;
  std::uint64_t crosses_ = 0;
};

/// Accumulates traced runs and emits the span-derived layer metrics.
class SpanLayers {
 public:
  /// `order_subgroup`: the subgroup whose construct -> deliver latency is
  /// the dds ordering share (rpc_swarm's topic), if any.
  void add(const trace::Tracer& t, Rep& rep,
           std::optional<std::uint32_t> order_subgroup = std::nullopt);
  void emit(Metrics& out);

 private:
  Samples slot_wait_, construct_, c2r_, r2d_, atomic_rtt_, order_;
};

}  // namespace spindle::bench
