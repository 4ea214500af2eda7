#pragma once

#include <cstdint>

#include "core/domain.hpp"
#include "metrics/metrics.hpp"
#include "metrics/registry.hpp"
#include "workload/experiment.hpp"

namespace spindle::workload {

/// Configuration of one sharded-domain experiment: every node is a member
/// (and sender) of every shard subgroup of one core::OrderingDomain; each
/// sender's `messages_per_sender`-message schedule is partitioned into one
/// stream per shard plus a cross-shard stream (a sharded system's per-shard
/// send queues), a deterministic per-(seed, sender, i) fraction of the
/// schedule being multi-shard.
struct ShardedConfig {
  std::size_t nodes = 8;
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
  sst::Discipline discipline = sst::Discipline::strict_rr;
  sim::Nanos scan_interval = sim::micros(25);
  net::NodeId sequencer = 0;
  /// Cross-shard gsn-grant path: SST polling (default) or the one-sided
  /// fetch-add ticket counter (serial engine only) — the two arms of
  /// bench_atomics_seq.
  core::SequencerKind sequencer_mode = core::SequencerKind::sst;
  std::uint64_t seed = 1;
  net::TimingModel timing{};
  core::CpuModel cpu{};
  sim::Nanos max_virtual = sim::seconds(600);
  std::size_t sim_threads = 0;  // 0: resolve SPINDLE_SIM_THREADS
};

struct ShardedResult {
  bool completed = false;
  sim::Nanos makespan = 0;
  /// Merged-stream application throughput per node: every node upcalls each
  /// sent payload exactly once, so this is sends * message_size / makespan —
  /// cross-shard duplicate copies and headers are protocol overhead and do
  /// not inflate it.
  double throughput_gbps = 0;
  double delivery_rate_per_node = 0;  // merged upcalls/s per node
  std::uint64_t expected_deliveries = 0;
  std::uint64_t singles_sent = 0;  // summed over senders
  std::uint64_t crosses_sent = 0;
  std::uint64_t grants_issued = 0;  // == crosses_sent when completed
  /// Order-sensitive FNV-1a over every node's merged delivery stream
  /// (shard, sender, seq/gsn, flags, timestamps, payload tag), folded in
  /// node order. The determinism-lock digest: identical across
  /// sim_threads, and — at shards == 1 — identical between the domain and
  /// plain arms (the drift gate bench_shard_scaling enforces).
  std::uint64_t delivery_digest = 0;
  /// Member 0's merged stream projected onto each shard, reduced to a
  /// *commutative* (order-insensitive, wrapping-sum) digest over payload
  /// tags — a cross folds into every shard it touches. Why not
  /// order-sensitive: the gsn map and the copies' arrival points relative
  /// to singles are functions of grant-transport timing, so SST and FAA
  /// runs of the same schedule legitimately interleave crosses differently
  /// (the ordering contract pins orders across members *within* a run,
  /// never across runs). What must be invariant across sequencer modes is
  /// the projection's content: every shard upcalls exactly the same message
  /// set exactly once. That is the projection-identity gate of
  /// bench_atomics_seq — it catches dropped, duplicated, or misrouted
  /// messages on the FAA path.
  std::vector<std::uint64_t> shard_projection_digests;
  metrics::Histogram single_latency_ns;
  metrics::Histogram cross_latency_ns;
  /// Sequencer grant round trips (lock wait excluded), merged over senders.
  metrics::Histogram grant_latency_ns;
  metrics::ClusterStats stats;
  std::uint64_t engine_steps = 0;
  double wall_seconds = 0;
  std::size_t sim_workers = 1;
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
