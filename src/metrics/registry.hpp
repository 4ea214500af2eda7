#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"

namespace spindle::metrics {

/// One registered predicate's share of a subgroup's polling work (the
/// sst::Predicates drill-down): how often the scheduler evaluated it, how
/// often its trigger acted, and the simulated CPU its rounds charged.
struct PredicateStat {
  std::string name;  // e.g. "receive", "deliver"
  std::string cls;   // monotonicity class: one_time | recurrent | transition
  std::uint64_t evals = 0;
  std::uint64_t fires = 0;
  sim::Nanos cpu = 0;
};

/// Per-subgroup slice of a node's (or the cluster's) activity.
struct SubgroupStats {
  std::uint32_t id = 0;
  std::string name;
  std::uint64_t messages_delivered = 0;
  sim::Nanos predicate_cpu = 0;
  /// Per-predicate breakdown of predicate_cpu, merged over nodes by
  /// predicate name (registration order of the first node preserved).
  std::vector<PredicateStat> predicates;
  /// Polling-thread scheduler drill-down, summed over nodes: serviced the
  /// rounds the scheduler evaluated the group, parks the trips off the
  /// rotation (quiet and drained, waiting on a wake).
  std::uint64_t sched_serviced = 0;
  std::uint64_t sched_parks = 0;
};

/// One node's consistent counter snapshot: protocol counters with the NIC
/// statistics and lock-wait totals folded in, plus the per-subgroup
/// drill-down.
struct NodeStats {
  std::uint32_t node = 0;
  ProtocolCounters counters;
  std::vector<SubgroupStats> subgroups;
};

/// Admission/occupancy counters of one front-tier relay (a dds::ClientMux):
/// the per-relay credit pool, watermark shedding, and session lifecycle,
/// surfaced through cluster.stats() next to the protocol counters.
struct RelayTierStats {
  std::uint32_t relay_node = 0;    // core member hosting the mux
  std::uint32_t gateway_node = 0;  // fabric node aggregating the sessions
  std::uint32_t topic = 0;

  // Session lifecycle.
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t sessions_shed = 0;  // connect() rejected (session cap)
  std::uint64_t sessions_live = 0;

  // Request admission (credit pool + watermark).
  std::uint64_t requests_admitted = 0;   // credit granted (requests+publishes)
  std::uint64_t requests_shed = 0;       // Busy at the credit watermark
  std::uint64_t replies_completed = 0;   // replies routed to a waiting session
  std::uint64_t late_replies = 0;        // reply arrived after cancel/close
  std::uint64_t requests_cancelled = 0;  // completed as cancelled at teardown
  std::uint64_t disconnects = 0;         // requests completed as disconnected

  // Occupancy, point-in-time and peak.
  std::uint32_t credits_configured = 0;
  std::uint32_t credits_effective = 0;  // pool limit (== credits_configured)
  std::uint32_t credits_available = 0;
  std::uint32_t credit_waiters = 0;       // requests parked below watermark
  std::uint32_t peak_credit_waiters = 0;
  std::size_t peak_uplink_queue = 0;      // staged frames, gateway -> relay
  std::size_t peak_downlink_queue = 0;    // staged frames, relay -> gateway

  // Virtual time each link endpoint's actor spent on frames. Over a run's
  // span, the largest share names the stage that sets the saturation knee.
  sim::Nanos uplink_busy_ns = 0;    // gateway shipper: ring post + overhead
  sim::Nanos ingress_busy_ns = 0;   // relay: overhead + subgroup send
                                    // (waits for a multicast slot included)
  sim::Nanos downlink_busy_ns = 0;  // relay shipper: ring post + overhead
  sim::Nanos demux_busy_ns = 0;     // gateway demux: overhead
};

/// A merged, point-in-time view of a whole cluster — the result of
/// Cluster::stats(). `total` aggregates every node; `nodes` and `subgroups`
/// provide the drill-downs.
struct ClusterStats {
  ProtocolCounters total;
  std::vector<NodeStats> nodes;
  std::vector<SubgroupStats> subgroups;  // merged over nodes, by subgroup id
  std::vector<RelayTierStats> relays;    // front-tier muxes, creation order

  const NodeStats* node(std::uint32_t id) const;
  const SubgroupStats* subgroup(std::uint32_t id) const;
  /// The front-tier stats of the mux relaying through `relay_node` (first
  /// match in creation order), or null.
  const RelayTierStats* relay(std::uint32_t relay_node) const;

  /// Fold `nodes` into `total` and the merged `subgroups` list. Called by
  /// Registry::snapshot() after the collectors run.
  void finalize();
};

/// Snapshot registry: components register collectors (one per node, plus
/// anything else that owns counters), and snapshot() runs them all into a
/// fresh ClusterStats. Collectors only read live state, so a snapshot never
/// perturbs the run it observes.
class Registry {
 public:
  using Collector = std::function<void(ClusterStats&)>;

  void add_collector(Collector c) { collectors_.push_back(std::move(c)); }

  ClusterStats snapshot() const;

 private:
  std::vector<Collector> collectors_;
};

}  // namespace spindle::metrics
