#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/node.hpp"
#include "core/options.hpp"
#include "metrics/registry.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"
#include "trace/trace.hpp"

namespace spindle::core {

struct ClusterConfig {
  std::size_t nodes = 4;
  net::TimingModel timing{};
  CpuModel cpu{};
  std::uint64_t seed = 1;
  trace::TraceConfig trace{};  // event tracing (off by default)
  /// Parking in the data-plane polling thread: a subgroup quiet for
  /// several services and fire-free for max(25 µs, park_after) that is
  /// drained leaves the per-round rotation until a write lands in its ring
  /// or a local claim wakes it (sst::Predicates::GroupOptions::park_after).
  /// A quiet subgroup still waiting on a peer stays in the rotation. 0
  /// keeps every subgroup in the rotation, Derecho's full lap.
  sim::Nanos park_after = sim::micros(25);
  /// Simulation worker threads. 1 (default) = the serial engine, unchanged.
  /// > 1 = conservative-lookahead parallel execution (sim::ParallelEngine):
  /// nodes are block-partitioned across min(sim_threads, nodes) workers and
  /// results are byte-identical to serial runs (parallel_engine_test pins
  /// this against the determinism-lock goldens). Drive the run through
  /// Cluster::run_until/run/run_to rather than engine().run_*(), and keep
  /// link-fault multipliers >= 1. Three features refuse it:
  /// Cluster::crash() throws (Fabric::isolate/restore assert serial mode),
  /// epoch clusters under a ManagedGroup share its engine and stay serial,
  /// and dds::Domain::create_client_mux() throws.
  std::size_t sim_threads = 1;

  /// Throws std::invalid_argument with a descriptive message if the
  /// configuration cannot form a cluster.
  void validate() const;
};

/// A Derecho-style top-level group of simulated machines plus its
/// subgroups. Owns the simulation engine, the RDMA fabric, one Node per
/// machine, the pipeline tracer, and the metrics registry.
///
/// Usage: construct, create_subgroup() for each application component,
/// start(), spawn application actors on engine(), run. Observability:
/// stats() for a merged counter snapshot, tracer() for the event stream.
class Cluster {
 public:
  /// Standalone cluster: owns its engine and fabric; members are all of
  /// cfg.nodes.
  explicit Cluster(ClusterConfig cfg);

  /// Epoch cluster for virtual synchrony (core/view.hpp): shares an
  /// existing engine + fabric and spans only `members` (a subset of the
  /// fabric's nodes — e.g. the survivors of a view change). When `tracer`
  /// is given, events land in that shared stream (so one trace spans every
  /// epoch); otherwise a private tracer is built from cfg.trace.
  Cluster(sim::Engine& engine, net::Fabric& fabric, const ClusterConfig& cfg,
          std::vector<net::NodeId> members, trace::Tracer* tracer = nullptr);

  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Register a subgroup. Pre-start() mutator: calling it after start()
  /// throws std::logic_error. The configuration is validated eagerly
  /// against this cluster's membership (so the offending call site gets
  /// the exception) and re-validated by start(); delivery order within a
  /// round follows the order of `cfg.senders`.
  SubgroupId create_subgroup(SubgroupConfig cfg);

  /// Protocol-extension point (e.g. the cross-shard sequencer of
  /// core/domain.hpp): declare an extra i64 SST column, appended after the
  /// per-subgroup columns when start() builds the layout. Pre-start()
  /// mutator; returns a handle resolved to a real sst::FieldId by
  /// shared_field() once the cluster has started. Every member's row gets
  /// `init` as the agreed initial value.
  std::size_t add_shared_i64_field(std::string name, std::int64_t init);

  /// Resolve a handle from add_shared_i64_field(). Post-start only.
  sst::FieldId shared_field(std::size_t handle) const;

  /// Protocol-extension point: `hook` runs once per member node while that
  /// node registers its data-plane predicates (Node::setup_predicates), so
  /// an extension can add its own predicate groups to the same scheduler.
  /// Pre-start() mutator.
  void add_predicate_hook(std::function<void(Node&, sst::Predicates&)> hook);

  /// SST rank of a member (row index in every subgroup's SST): the identity
  /// on a standalone cluster, the index into members_ on an epoch cluster.
  std::size_t rank_of(net::NodeId id) const;

  /// Durable-store binding for persistent subgroups. Pre-start() mutator:
  /// calling it after start() throws std::logic_error (the binding could
  /// never take effect — logs are wired during start()). When set, the
  /// provider supplies the versioned log for each (member, subgroup) — how
  /// a ManagedGroup keeps one log per node alive across epochs and
  /// restarts. The log it returns must be opened (VersionedLog::open_epoch)
  /// for the epoch its records belong to: appending to an unopened log
  /// aborts. Without a provider the cluster owns fresh logs (epoch 0),
  /// the standalone-group behaviour.
  void set_store_provider(
      std::function<store::VersionedLog*(net::NodeId, SubgroupId)> p);

  /// Validate the accumulated setup (every subgroup config against the
  /// final membership, with per-subgroup context on errors), then allocate
  /// and connect SST + ring buffers (the per-view memory layout of §2.3)
  /// and start every node's predicate thread. All misordered or invalid
  /// setup fails here loudly at the latest.
  void start();

  /// Wake-and-join: stop all predicate threads and drain the event queue.
  /// Idempotent; called by the destructor.
  void shutdown();

  /// Number of member nodes in this cluster (not the fabric size).
  std::size_t size() const noexcept { return members_.size(); }
  const std::vector<net::NodeId>& members() const noexcept { return members_; }
  bool is_member(net::NodeId id) const {
    return id < nodes_.size() && nodes_[id] != nullptr;
  }
  Node& node(net::NodeId id);
  const Node& node(net::NodeId id) const;
  /// Worker 0's engine in parallel mode (safe for pre-start scheduling at
  /// t=0 and post-run reads); THE engine in serial mode. Parallel runs must
  /// use engine_for() for per-node scheduling and the Cluster-level run
  /// methods below for driving.
  sim::Engine& engine() noexcept { return *engine_; }
  /// The engine that owns `id`'s events — identical to engine() when
  /// serial. All node-local scheduling (fault injection, sender actors)
  /// goes through this.
  sim::Engine& engine_for(net::NodeId id) noexcept {
    return parallel_ ? parallel_->worker(partition_of(id)) : *engine_;
  }
  /// Static block partition of fabric node ids onto workers.
  std::size_t partition_of(net::NodeId id) const noexcept {
    return parallel_ == nullptr
               ? 0
               : (static_cast<std::size_t>(id) * parallel_->workers()) /
                     cfg_.nodes;
  }
  /// Worker threads executing this cluster (1 = serial).
  std::size_t sim_workers() const noexcept {
    return parallel_ ? parallel_->workers() : 1;
  }

  // --- engine-mode-agnostic run interface (use these, not engine().run_*,
  // so the same driver code works serial and parallel) ---
  bool run_until(const std::function<bool()>& stop_condition,
                 sim::Nanos max_virtual = 0) {
    return parallel_ ? parallel_->run_until(stop_condition, max_virtual)
                     : engine_->run_until(stop_condition, max_virtual);
  }
  void run() {
    if (parallel_) {
      parallel_->run();
    } else {
      engine_->run();
    }
  }
  void run_to(sim::Nanos t) {
    if (parallel_) {
      parallel_->run_to(t);
    } else {
      engine_->run_to(t);
    }
  }
  /// Virtual now (max over workers in parallel mode — valid between runs).
  sim::Nanos now() const noexcept {
    return parallel_ ? parallel_->now() : engine_->now();
  }
  /// Events dispatched (summed over workers).
  std::uint64_t steps() const noexcept {
    return parallel_ ? parallel_->steps() : engine_->steps();
  }
  /// Heap-boxed event callables (summed over workers; sim::Engine::boxed).
  std::uint64_t boxed() const noexcept {
    return parallel_ ? parallel_->boxed() : engine_->boxed();
  }

  net::Fabric& fabric() noexcept { return *fabric_; }
  const ClusterConfig& config() const noexcept { return cfg_; }
  const CpuModel& cpu() const noexcept { return cfg_.cpu; }
  const SubgroupConfig& subgroup_config(SubgroupId sg) const {
    return subgroup_configs_[sg];
  }
  std::size_t num_subgroups() const noexcept {
    return subgroup_configs_.size();
  }

  /// Crash a node: isolate it on the fabric and halt its threads. Throws
  /// std::out_of_range when `id` is not a member of this cluster.
  void crash(net::NodeId id);

  /// Total application messages delivered by every member of `sg`
  /// (completion condition helper: equals members * sent when done).
  std::uint64_t total_delivered(SubgroupId sg) const;

  // --- observability ---

  /// One consistent snapshot of everything measurable: merged protocol
  /// counters (NIC statistics and lock waits folded in), with per-node and
  /// per-subgroup drill-down.
  metrics::ClusterStats stats() const { return registry_.snapshot(); }

  /// The snapshot registry behind stats(); extend it to fold additional
  /// counter sources into the same snapshot.
  metrics::Registry& registry() noexcept { return registry_; }

  /// The pipeline event tracer (shared across epochs under a ManagedGroup).
  trace::Tracer& tracer() noexcept { return *tracer_; }
  const trace::Tracer& tracer() const noexcept { return *tracer_; }

 private:
  friend class Node;  // apply_predicate_hooks

  /// Run every registered predicate hook against `n`'s scheduler (called
  /// from Node::setup_predicates, after the data-plane groups exist).
  void apply_predicate_hooks(Node& n, sst::Predicates& p) {
    for (auto& hook : predicate_hooks_) hook(n, p);
  }

  /// start()-time gate over everything the pre-start mutators accumulated:
  /// re-runs SubgroupConfig::validate for each registered subgroup and
  /// wraps failures with which subgroup (index + name) is at fault.
  void validate_setup() const;

  ClusterConfig cfg_;
  std::unique_ptr<sim::ParallelEngine> parallel_;  // sim_threads > 1 only
  std::unique_ptr<sim::Engine> owned_engine_;      // serial standalone only
  std::unique_ptr<net::Fabric> owned_fabric_;
  sim::Engine* engine_;
  net::Fabric* fabric_;
  std::unique_ptr<trace::Tracer> owned_tracer_;
  trace::Tracer* tracer_;
  metrics::Registry registry_;
  sim::Rng rng_;
  std::vector<net::NodeId> members_;
  std::vector<std::unique_ptr<Node>> nodes_;  // indexed by NodeId; null for
                                              // fabric nodes outside members_
  std::vector<SubgroupConfig> subgroup_configs_;
  struct SharedField {
    std::string name;
    std::int64_t init;
    sst::FieldId field;  // resolved by start()
  };
  std::vector<SharedField> shared_fields_;
  std::vector<std::function<void(Node&, sst::Predicates&)>> predicate_hooks_;
  std::function<store::VersionedLog*(net::NodeId, SubgroupId)> store_provider_;
  std::vector<std::unique_ptr<store::VersionedLog>> owned_logs_;
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace spindle::core
