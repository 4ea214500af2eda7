#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/group.hpp"
#include "core/node.hpp"
#include "sim/mutex.hpp"

namespace spindle::core {

/// Application flag bit 2: the payload starts with a CrossShardHeader and
/// participates in the cross-shard ordering protocol. Bit 0 is the
/// protocol's null marker, bit 1 the DDS RPC-envelope tag.
inline constexpr std::uint32_t kCrossShardFlag = 4u;

/// PostPlan lane for domain-extension pushes (after send/ack/delivered):
/// the sequencer's grant pushes ride here so they never overtake the data
/// plane's protocol-ordered writes within a round.
inline constexpr int kLaneDomain = 3;

/// Wire prefix of a cross-shard send (one copy per involved shard, all
/// byte-identical): the sequencer-assigned global sequence number and the
/// involved-shard set.
struct CrossShardHeader {
  std::uint64_t gsn = 0;
  std::uint32_t shard_mask = 0;  // bit s set: shard s carries a copy
  std::uint32_t reserved = 0;
};
static_assert(sizeof(CrossShardHeader) == 16);

/// Configuration of one sharded ordering domain.
struct DomainConfig {
  /// Name prefix; shard subgroups are named "<name>/shard<i>".
  std::string name = "domain";
  /// Number of shards (independent intra-shard total orders). 1 keeps the
  /// classic single-subgroup behaviour bit-identically: no sequencer state,
  /// no extra SST columns, no extra predicates.
  std::size_t shards = 1;
  std::vector<net::NodeId> members;
  /// Defaults to `members` when empty.
  std::vector<net::NodeId> senders;
  ProtocolOptions opts;
  /// The node running the cross-shard sequencer (must be a member; only
  /// meaningful with shards > 1).
  net::NodeId sequencer = 0;
};

/// One message of the domain's merged stream.
struct DomainDelivery {
  /// Owning shard (for a cross-shard message: the lowest involved shard).
  std::size_t shard = 0;
  /// Bit set of shards this message touched (singles: 1u << shard).
  std::uint32_t shard_mask = 0;
  std::size_t sender = 0;       // sender rank in the shard's sender list
  std::int64_t seq = -1;        // intra-shard round-robin seq (cross: -1)
  std::int64_t sender_index = -1;
  std::uint64_t gsn = 0;        // sequencer position (cross only)
  bool cross = false;
  std::span<const std::byte> data;  // valid only during the upcall
  sim::Nanos sent_at = -1;      // cross: earliest involved-shard send time
  std::uint32_t flags = 0;      // application bits (kCrossShardFlag stripped)
};

using DomainHandler = std::function<void(const DomainDelivery&)>;

/// An explicit "one totally-ordered domain" over a Cluster: the topic/key
/// space is partitioned across k shard subgroups, each with the usual
/// independent intra-shard atomic multicast, plus a cross-shard protocol
/// for sends that touch several shards.
///
/// Cross-shard protocol (SST-based sequencer):
///  1. the sender bumps its own-row `xreq` column and pushes it to the
///     sequencer node (one outstanding request per node);
///  2. a sequencer predicate — registered on the shared per-node scheduler
///     via Cluster::add_predicate_hook, in its own never-parked group —
///     scans requester rows in rank order and assigns the next
///     global sequence number (gsn), publishing it through per-requester
///     grant columns pushed back on the kLaneDomain lane;
///  3. the sender multicasts one copy per involved shard (ascending shard
///     order), each prefixed with a CrossShardHeader and flagged
///     kCrossShardFlag;
///  4. every member runs a merge stage over its k shard delivery streams:
///     a cross-shard message is upcalled exactly once, when the merge
///     frontier reaches its gsn and every involved shard's copy has
///     arrived; per-shard singles held behind a pending cross release as
///     soon as the frontier passes it.
///
/// Ordering contract (deterministic across members — shard_test pins it):
///  - single-shard messages of one shard deliver in that shard's total
///    order relative to each other, and never overtake / get overtaken by
///    the release point of a cross they were ordered around;
///  - cross-shard messages deliver in strictly increasing gsn order at
///    every member (globally, across all shards);
///  - the merged projection onto any shard is identical at every member.
/// A cross whose sender crashes mid-fan-out stalls the frontier (safety is
/// preserved; resuming liveness needs the view layer — future work).
///
/// Lifecycle: construct pre-start (creates the shard subgroups and, for
/// k > 1, registers the sequencer SST columns + predicate hook), then after
/// cluster.start() call attach() per member and send from app coroutines.
/// The domain must outlive the cluster's run.
class OrderingDomain {
 public:
  OrderingDomain(Cluster& cluster, DomainConfig cfg);
  OrderingDomain(const OrderingDomain&) = delete;
  OrderingDomain& operator=(const OrderingDomain&) = delete;
  ~OrderingDomain();

  std::size_t shards() const noexcept { return shard_sgs_.size(); }
  SubgroupId shard_subgroup(std::size_t shard) const {
    return shard_sgs_.at(shard);
  }
  const DomainConfig& config() const noexcept { return cfg_; }

  /// Deterministic key -> shard routing (FNV-1a over the key bytes).
  std::size_t shard_of(std::uint64_t key) const;

  /// Single-shard send, routed by key. Exactly Node::send on the key's
  /// shard subgroup — at shards == 1 this is bit-identical to the classic
  /// path.
  sim::Co<> send(net::NodeId node, std::uint64_t key, std::uint32_t len,
                 std::function<void(std::span<std::byte>)> builder,
                 std::uint32_t flags = 0);

  /// Multi-shard atomic send: acquires a gsn from the sequencer, then
  /// multicasts one header-prefixed copy per shard in `shard_mask`
  /// (ascending). Upcalled exactly once per member, in gsn order. A mask
  /// with one bit degenerates to a plain send on that shard.
  sim::Co<> send_multi(net::NodeId node, std::uint32_t shard_mask,
                       std::uint32_t len,
                       std::function<void(std::span<std::byte>)> builder,
                       std::uint32_t flags = 0);

  /// Install `member`'s merged-stream handler (post-start). At shards == 1
  /// this is a zero-state pass-through around the shard's delivery handler.
  void attach(net::NodeId member, DomainHandler h);

  /// Messages upcalled into `member`'s merged stream so far.
  std::uint64_t merged_delivered(net::NodeId member) const;
  /// Next gsn `member` is waiting to release (== crosses released so far).
  std::uint64_t merge_frontier(net::NodeId member) const;
  /// Global sequence numbers the sequencer has granted.
  std::uint64_t grants_issued() const noexcept { return next_gsn_; }

  /// Sequencer round-trip latency per granted gsn (lock wait excluded),
  /// merged over senders.
  metrics::Histogram grant_latency() const;

 private:
  struct MergeState;
  struct SenderState;

  void register_sequencer();         // k > 1 pre-start wiring
  void resolve_fields();             // first predicate-hook invocation
  bool sequencer_grant(Node& n, sst::TriggerContext& ctx);
  void on_shard_delivery(MergeState& m, std::size_t shard, const Delivery& d);
  void progress(MergeState& m);
  /// Build the merged-stream message from the shard delivery that carried
  /// it (a cross's body, without its header) and hand it to the handler.
  /// `shard_mask` names the shards it touched, its lowest the owning one;
  /// a cross passes its gsn.
  void upcall(MergeState& m, std::uint32_t shard_mask, const Delivery& d,
              std::optional<std::uint64_t> gsn = std::nullopt);

  Cluster& cluster_;
  DomainConfig cfg_;
  std::vector<SubgroupId> shard_sgs_;
  std::size_t seq_rank_ = 0;               // SST rank of cfg_.sequencer
  std::vector<std::size_t> sender_ranks_;  // SST rank per cfg_.senders index
  // Sequencer SST columns (k > 1 only): handles pre-start, FieldIds after.
  std::size_t h_xreq_ = 0;
  std::vector<std::size_t> h_gcount_;
  std::vector<std::size_t> h_ggsn_;
  bool fields_resolved_ = false;
  sst::FieldId f_xreq_;
  std::vector<sst::FieldId> f_gcount_;  // per sender index, adjacent to...
  std::vector<sst::FieldId> f_ggsn_;    // ...its gsn column (one range push)
  std::uint64_t next_gsn_ = 0;  // sequencer-node worker only
  std::map<net::NodeId, std::unique_ptr<SenderState>> sender_states_;
  std::map<net::NodeId, std::unique_ptr<MergeState>> merge_states_;
};

}  // namespace spindle::core
