#pragma once

#include <cstdint>
#include <vector>

#include "core/domain.hpp"
#include "metrics/metrics.hpp"
#include "workload/run.hpp"

namespace spindle::workload {

/// Configuration of one sharded-domain experiment: every node is a member
/// (and sender) of every shard subgroup of one core::OrderingDomain; each
/// sender's `messages_per_sender`-message schedule is partitioned into one
/// stream per shard plus a cross-shard stream (a sharded system's per-shard
/// send queues), a deterministic per-(seed, sender, i) fraction of the
/// schedule being multi-shard. The cluster half is the inherited
/// core::ClusterConfig.
struct ShardedConfig : core::ClusterConfig {
  /// 8 nodes; sim_threads 0 resolves as in ExperimentConfig.
  ShardedConfig() {
    nodes = 8;
    sim_threads = 0;
  }

  std::size_t shards = 2;
  std::size_t messages_per_sender = 200;
  std::uint32_t message_size = 256;
  /// Fraction of sends that go through the cross-shard protocol (0..1).
  /// Decided per message by a seed-keyed hash, so the schedule is identical
  /// across engine modes and worker counts.
  double cross_fraction = 0.0;
  /// Shards touched by one cross-shard send (clamped to [2, shards]).
  std::size_t cross_width = 2;
  /// false: bypass OrderingDomain entirely (requires shards == 1) and drive
  /// an identically-configured subgroup with Node::send directly — the
  /// reference arm of the single-shard digest-drift gate. Both arms must
  /// produce the same delivery_digest bit-for-bit.
  bool use_domain = true;
  core::ProtocolOptions opts = core::ProtocolOptions::spindle();
  net::NodeId sequencer = 0;
  sim::Nanos max_virtual = sim::seconds(600);
};

/// Throughput and `delivered` count merged upcalls: every node upcalls each
/// sent payload exactly once, so throughput is sends * message_size /
/// makespan — cross-shard duplicate copies and headers are protocol
/// overhead and do not inflate it.
struct ShardedResult : RunRecord {
  std::uint64_t singles_sent = 0;  // summed over senders
  std::uint64_t crosses_sent = 0;
  std::uint64_t grants_issued = 0;  // == crosses_sent when completed
  /// Order-sensitive FNV-1a over every node's merged delivery stream
  /// (shard, sender, seq/gsn, flags, timestamps, payload tag), folded in
  /// node order. The determinism-lock digest: identical across
  /// sim_threads, and — at shards == 1 — identical between the domain and
  /// plain arms (the drift gate bench_shard_scaling enforces).
  std::uint64_t delivery_digest = 0;
  metrics::Histogram single_latency_ns;
  metrics::Histogram cross_latency_ns;
  /// Sequencer grant round trips (lock wait excluded), merged over senders.
  metrics::Histogram grant_latency_ns;
};

/// Deterministic per-message schedule decision, shared with shard_test:
/// hash of (seed, sender, i) drives both the cross/single choice and the
/// key / shard-mask selection.
std::uint64_t sharded_message_hash(std::uint64_t seed, net::NodeId sender,
                                   std::uint64_t i);
/// True when message (seed, sender, i) is sent cross-shard.
bool sharded_is_cross(std::uint64_t hash, double cross_fraction);
/// Shard mask of a cross-shard message: `width` consecutive shards
/// (wrapping) starting from a hash-chosen base.
std::uint32_t sharded_cross_mask(std::uint64_t hash, std::size_t shards,
                                 std::size_t width);

/// Build the domain, stream the sharded workload until every member has
/// upcalled every send (or the watchdog trips), and collect metrics.
ShardedResult run_sharded(const ShardedConfig& cfg);

}  // namespace spindle::workload
