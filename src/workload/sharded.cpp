#include "workload/sharded.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace spindle::workload {

namespace {

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/// Per-node digest slot. Each node's merged handler runs on the worker that
/// owns the node, so every field is written by exactly one thread; the
/// post-run fold reads them after the run.
struct NodeSlot {
  std::uint64_t digest = kFnvOffset;
  metrics::Histogram single_latency;
  metrics::Histogram cross_latency;
};

void fold_delivery(NodeSlot& slot, sim::Engine& eng,
                   const core::DomainDelivery& d) {
  const sim::Nanos now = eng.now();
  std::uint64_t h = slot.digest;
  h = fnv_u64(h, static_cast<std::uint64_t>(d.shard));
  h = fnv_u64(h, d.shard_mask);
  h = fnv_u64(h, static_cast<std::uint64_t>(d.sender));
  h = fnv_u64(h, static_cast<std::uint64_t>(d.seq));
  h = fnv_u64(h, static_cast<std::uint64_t>(d.sender_index));
  h = fnv_u64(h, d.gsn);
  h = fnv_u64(h, d.cross ? 1u : 0u);
  h = fnv_u64(h, d.flags);
  h = fnv_u64(h, static_cast<std::uint64_t>(d.sent_at));
  h = fnv_u64(h, static_cast<std::uint64_t>(now));
  std::uint64_t tag = 0;
  if (d.data.size() >= sizeof tag) std::memcpy(&tag, d.data.data(), sizeof tag);
  slot.digest = fnv_u64(h, tag);
  if (d.sent_at >= 0) {
    const auto lat = static_cast<std::uint64_t>(now - d.sent_at);
    (d.cross ? slot.cross_latency : slot.single_latency).add(lat);
  }
}

/// One sender's stream into one shard: the per-shard slice of its
/// deterministic schedule, in schedule order. Each sender runs one of these
/// per shard (a sharded system's per-shard send queue), so one shard's full
/// window never throttles the others; at shards == 1 the single stream is
/// the whole schedule and the coroutine is line-for-line the plain-arm
/// sender.
sim::Co<> single_stream(core::Cluster* cluster, core::OrderingDomain* dom,
                        net::NodeId id, const ShardedConfig* cfg,
                        std::vector<std::uint64_t> indices) {
  core::Node& node = cluster->node(id);
  for (std::uint64_t i : indices) {
    if (node.stopped()) co_return;
    const std::uint64_t h = sharded_message_hash(cfg->seed, id, i);
    const std::uint64_t tag = (static_cast<std::uint64_t>(id) << 32) | i;
    co_await dom->send(id, h, cfg->message_size,
                       [tag](std::span<std::byte> buf) {
                         if (buf.size() >= sizeof tag) {
                           std::memcpy(buf.data(), &tag, sizeof tag);
                         }
                       });
  }
}

/// One sender's cross-shard stream. Separate from the single streams: a
/// cross blocks on the sequencer round trip (one outstanding gsn per node),
/// and must not stall single-shard sends behind that wait.
sim::Co<> cross_stream(core::Cluster* cluster, core::OrderingDomain* dom,
                       net::NodeId id, const ShardedConfig* cfg,
                       std::vector<std::uint64_t> indices) {
  core::Node& node = cluster->node(id);
  const std::size_t width =
      std::min(std::max<std::size_t>(cfg->cross_width, 2), cfg->shards);
  for (std::uint64_t i : indices) {
    if (node.stopped()) co_return;
    const std::uint64_t h = sharded_message_hash(cfg->seed, id, i);
    const std::uint64_t tag = (static_cast<std::uint64_t>(id) << 32) | i;
    co_await dom->send_multi(id, sharded_cross_mask(h, cfg->shards, width),
                             cfg->message_size,
                             [tag](std::span<std::byte> buf) {
                               if (buf.size() >= sizeof tag) {
                                 std::memcpy(buf.data(), &tag, sizeof tag);
                               }
                             });
  }
}

/// Reference arm of the digest gate: the same schedule driven straight at
/// the subgroup, no OrderingDomain anywhere on the path.
sim::Co<> plain_sender(core::Cluster* cluster, core::SubgroupId sg,
                       net::NodeId id, const ShardedConfig* cfg) {
  core::Node& node = cluster->node(id);
  for (std::uint64_t i = 0; i < cfg->messages_per_sender; ++i) {
    if (node.stopped()) co_return;
    const std::uint64_t tag = (static_cast<std::uint64_t>(id) << 32) | i;
    co_await node.send(sg, cfg->message_size, [tag](std::span<std::byte> buf) {
      if (buf.size() >= sizeof tag) std::memcpy(buf.data(), &tag, sizeof tag);
    });
  }
}

}  // namespace

std::uint64_t sharded_message_hash(std::uint64_t seed, net::NodeId sender,
                                   std::uint64_t i) {
  std::uint64_t h = kFnvOffset;
  h = fnv_u64(h, seed);
  h = fnv_u64(h, static_cast<std::uint64_t>(sender));
  return fnv_u64(h, i);
}

bool sharded_is_cross(std::uint64_t hash, double cross_fraction) {
  if (cross_fraction <= 0) return false;
  const auto threshold = static_cast<std::uint64_t>(
      std::llround(std::min(cross_fraction, 1.0) * 1'000'000.0));
  return (hash >> 12) % 1'000'000 < threshold;
}

std::uint32_t sharded_cross_mask(std::uint64_t hash, std::size_t shards,
                                 std::size_t width) {
  const std::size_t base = (hash >> 33) % shards;
  std::uint32_t mask = 0;
  for (std::size_t j = 0; j < width; ++j) {
    mask |= 1u << ((base + j) % shards);
  }
  return mask;
}

ShardedResult run_sharded(const ShardedConfig& cfg) {
  if (!cfg.use_domain && cfg.shards != 1) {
    throw std::invalid_argument(
        "run_sharded: the plain (use_domain = false) arm models exactly one "
        "subgroup");
  }
  RunHarness harness(cfg.nodes);
  core::ClusterConfig cc = cfg;
  cc.sim_threads = resolve_sim_threads(cfg.sim_threads);
  core::Cluster cluster(cc);

  const std::vector<net::NodeId>& all = cluster.members();

  std::unique_ptr<core::OrderingDomain> dom;
  core::SubgroupId plain_sg = 0;
  if (cfg.use_domain) {
    core::DomainConfig dc;
    dc.shards = cfg.shards;
    dc.members = all;
    dc.opts = cfg.opts;
    dc.sequencer = cfg.sequencer;
    dom = std::make_unique<core::OrderingDomain>(cluster, std::move(dc));
  } else {
    // Mirror the domain's k = 1 subgroup exactly (same name, members,
    // senders, options) so the two arms run identical clusters.
    core::SubgroupConfig sc;
    sc.name = "domain/shard0";
    sc.members = all;
    sc.senders = all;
    sc.opts = cfg.opts;
    plain_sg = cluster.create_subgroup(std::move(sc));
  }
  cluster.start();

  const std::uint64_t sends =
      static_cast<std::uint64_t>(cfg.nodes) * cfg.messages_per_sender;
  const std::uint64_t expected = sends * cfg.nodes;

  std::vector<NodeSlot> slots(cfg.nodes);
  for (net::NodeId m : all) {
    NodeSlot& slot = slots[m];
    sim::Engine& eng = cluster.engine_for(m);
    if (cfg.use_domain) {
      dom->attach(m, [&harness, &slot, &eng, m](const core::DomainDelivery& d) {
        harness.count(m, eng.now());
        fold_delivery(slot, eng, d);
      });
    } else {
      cluster.node(m).set_delivery_handler(
          plain_sg, [&harness, &slot, &eng, m](const core::Delivery& d) {
            core::DomainDelivery dd;
            dd.shard = 0;
            dd.shard_mask = 1u;
            dd.sender = d.sender;
            dd.seq = d.seq;
            dd.sender_index = d.sender_index;
            dd.cross = false;
            dd.data = d.data;
            dd.sent_at = d.sent_at;
            dd.flags = d.flags;
            harness.count(m, eng.now());
            fold_delivery(slot, eng, dd);
          });
    }
  }

  ShardedResult res;

  // Partition each sender's schedule into per-shard single streams plus a
  // cross stream, all spawned concurrently (empty streams are not spawned,
  // so the k = 1 domain arm runs exactly one coroutine per sender — the
  // same actor structure as the plain arm).
  for (net::NodeId s : all) {
    if (!cfg.use_domain) {
      res.singles_sent += cfg.messages_per_sender;
      cluster.engine_for(s).spawn(plain_sender(&cluster, plain_sg, s, &cfg));
      continue;
    }
    std::vector<std::vector<std::uint64_t>> per_shard(cfg.shards);
    std::vector<std::uint64_t> crosses;
    for (std::uint64_t i = 0; i < cfg.messages_per_sender; ++i) {
      const std::uint64_t h = sharded_message_hash(cfg.seed, s, i);
      if (cfg.shards > 1 && sharded_is_cross(h, cfg.cross_fraction)) {
        crosses.push_back(i);
      } else {
        per_shard[dom->shard_of(h)].push_back(i);
      }
    }
    for (auto& indices : per_shard) {
      if (indices.empty()) continue;
      res.singles_sent += indices.size();
      cluster.engine_for(s).spawn(
          single_stream(&cluster, dom.get(), s, &cfg, std::move(indices)));
    }
    if (!crosses.empty()) {
      res.crosses_sent += crosses.size();
      cluster.engine_for(s).spawn(
          cross_stream(&cluster, dom.get(), s, &cfg, std::move(crosses)));
    }
  }

  harness.run(cluster, expected, cfg.max_virtual, res);

  std::uint64_t digest = kFnvOffset;
  for (net::NodeId m : all) {
    digest = fnv_u64(digest, static_cast<std::uint64_t>(m));
    digest = fnv_u64(digest, slots[m].digest);
    res.single_latency_ns.merge(slots[m].single_latency);
    res.cross_latency_ns.merge(slots[m].cross_latency);
  }
  res.delivery_digest = digest;
  if (dom) res.grant_latency_ns = dom->grant_latency();
  res.grants_issued = dom ? dom->grants_issued() : 0;
  harness.finish(cluster, res);
  res.delivered = harness.counted();
  res.set_rates(res.delivered * cfg.message_size, cfg.nodes);
  return res;
}

}  // namespace spindle::workload
