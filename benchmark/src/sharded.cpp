// sharded_x10: one OrderingDomain of 4 shards over 8 nodes; 10% of sends
// span two shards and go through the cross-shard sequencer and merge.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "core/domain.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace spindle::bench {

namespace {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kShards = 4;
constexpr std::uint32_t kMsgSize = 4096;
constexpr std::size_t kMsgsPerSender = 12000;
constexpr double kCrossFraction = 0.10;

std::uint64_t tag_of(std::size_t sender, std::size_t index) {
  return (static_cast<std::uint64_t>(sender) << 32) | index;
}

/// One scheduled send: a single-shard key, or a two-shard mask.
struct Item {
  std::size_t index = 0;
  std::uint64_t key = 0;
  std::uint32_t mask = 0;  // nonzero: cross-shard
};

/// Each sender's schedule: exactly kCrossFraction of its sends are crosses,
/// and crosses (by first shard) and singles (by the shard their key routes
/// to) spread evenly over the shards, in a seeded random order. Fixing the
/// mix keeps the seed from changing how much work a run does.
std::vector<std::vector<Item>> make_schedule(std::uint64_t seed,
                                             std::size_t per,
                                             const core::OrderingDomain& dom) {
  const auto crosses = static_cast<std::size_t>(
      std::llround(kCrossFraction * static_cast<double>(per)));
  std::vector<std::vector<Item>> out(kNodes);
  for (std::size_t s = 0; s < kNodes; ++s) {
    Gen g = Gen(seed).fork(0x5a00 + s);
    std::vector<Item>& items = out[s];
    for (std::size_t i = 0; i < per; ++i) {
      Item it;
      const std::size_t shard = i % kShards;
      if (i < crosses) {
        it.mask = (1u << shard) | (1u << ((shard + 1) % kShards));
      } else {
        do {
          it.key = g.next();
        } while (dom.shard_of(it.key) != shard);
      }
      items.push_back(it);
    }
    for (std::size_t i = per; i > 1; --i) std::swap(items[i - 1], items[g.below(i)]);
    for (std::size_t i = 0; i < per; ++i) items[i].index = i;
  }
  return out;
}

sim::Co<> stream(core::Cluster* cluster, core::OrderingDomain* dom,
                 net::NodeId id, std::int64_t offset, std::vector<Item> items,
                 std::vector<std::int64_t>* calls) {
  sim::Engine& eng = cluster->engine_for(id);
  co_await eng.sleep(offset);
  for (const Item& it : items) {
    (*calls)[it.index] = eng.now();
    const std::uint64_t tag = tag_of(id, it.index);
    auto build = [tag](std::span<std::byte> buf) {
      std::memcpy(buf.data(), &tag, sizeof tag);
    };
    if (it.mask != 0) {
      co_await dom->send_multi(id, it.mask, kMsgSize, build);
    } else {
      co_await dom->send(id, it.key, kMsgSize, build);
    }
  }
}

struct Member {
  std::vector<char> seen;  // [sender * per + index]
  std::vector<std::uint64_t> proj;  // per-shard projection digest
  std::uint64_t digest = kFnvOffset;
  std::uint64_t delivered = 0;
  std::uint64_t crosses = 0;
  std::uint64_t bad = 0;
  bool any_gsn = false;
  std::uint64_t last_gsn = 0;
  std::int64_t last_at = -1;
};

/// A single's merged upcall, matched against its shard delivery in the
/// trace to measure how long the merge held it.
struct SingleUpcall {
  MsgKey shard_delivery;
  std::int64_t at;
};

}  // namespace

Rep run_sharded(const Spec& spec, bool) {
  Rep rep;
  const std::size_t per = spec.smoke ? kMsgsPerSender / 50 : kMsgsPerSender;
  const std::vector<std::int64_t> offsets = start_offsets(spec.seed, kNodes);

  WallTimer setup;
  core::ClusterConfig cc;
  cc.nodes = kNodes;
  cc.trace = trace_config(spec.traced);
  core::Cluster cluster(cc);
  std::vector<net::NodeId> all(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) all[i] = static_cast<net::NodeId>(i);
  core::DomainConfig dc;
  dc.name = "x10";
  dc.shards = kShards;
  dc.members = all;
  dc.opts = core::ProtocolOptions::spindle();
  dc.opts.max_msg_size = kMsgSize + sizeof(core::CrossShardHeader);
  core::OrderingDomain dom(cluster, dc);
  cluster.start();
  rep.setup_s = setup.seconds();

  const auto schedule = make_schedule(spec.seed, per, dom);
  sim::Engine& eng = cluster.engine();
  std::vector<Member> members(kNodes);
  std::vector<std::vector<std::int64_t>> calls(
      kNodes, std::vector<std::int64_t>(per, -1));
  std::vector<std::vector<char>> is_cross(kNodes, std::vector<char>(per, 0));
  std::uint64_t crosses_sent = 0;
  for (std::size_t s = 0; s < kNodes; ++s) {
    for (const Item& it : schedule[s]) {
      is_cross[s][it.index] = it.mask != 0;
      crosses_sent += it.mask != 0;
    }
  }
  Samples single_latency;  // construct -> merged upcall
  Samples cross_latency;   // send_multi() call -> merged upcall
  std::vector<SingleUpcall> singles;
  std::uint64_t total_delivered = 0;
  for (net::NodeId m : all) {
    Member& me = members[m];
    me.seen.assign(kNodes * per, 0);
    me.proj.assign(kShards, kFnvOffset);
    dom.attach(m, [&, m](const core::DomainDelivery& d) {
      Member& self = members[m];
      const std::int64_t now = eng.now();
      std::uint64_t tag = 0;
      if (d.data.size() >= sizeof tag) std::memcpy(&tag, d.data.data(), sizeof tag);
      const std::size_t src = tag >> 32;
      const std::size_t idx = tag & 0xffffffffu;
      if (src >= kNodes || idx >= per || self.seen[src * per + idx] ||
          d.cross != static_cast<bool>(is_cross[src][idx])) {
        ++self.bad;
      } else {
        self.seen[src * per + idx] = 1;
        if (d.cross) {
          cross_latency.add(now - calls[src][idx]);
        } else if (d.sent_at >= 0) {
          single_latency.add(now - d.sent_at);
        }
      }
      if (d.cross) {
        if (self.any_gsn && d.gsn <= self.last_gsn) ++self.bad;
        self.any_gsn = true;
        self.last_gsn = d.gsn;
        ++self.crosses;
      } else if (spec.traced) {
        singles.push_back({{m, dom.shard_subgroup(d.shard),
                            static_cast<std::uint32_t>(d.sender), d.sender_index},
                           now});
      }
      for (std::uint32_t mask = d.shard_mask; mask != 0; mask &= mask - 1) {
        const auto sh = static_cast<std::size_t>(std::countr_zero(mask));
        if (sh < kShards) self.proj[sh] = fnv(self.proj[sh], tag);
      }
      self.digest = fnv(fnv(self.digest, tag), d.gsn);
      self.last_at = now;
      ++self.delivered;
      ++total_delivered;
    });
  }

  const std::uint64_t sends = kNodes * per;
  const std::uint64_t expected = sends * kNodes;
  const std::uint64_t steps0 = cluster.steps();
  std::size_t streams = 0;
  WallTimer run;
  for (net::NodeId s : all) {
    // Per-shard send queues plus one cross queue, as a sharded application
    // would run them: a cross waiting for its gsn must not stall singles.
    std::vector<std::vector<Item>> by_queue(kShards + 1);
    for (const Item& it : schedule[s]) {
      by_queue[it.mask != 0 ? kShards : dom.shard_of(it.key)].push_back(it);
    }
    for (auto& items : by_queue) {
      if (items.empty()) continue;
      ++streams;
      eng.spawn(stream(&cluster, &dom, s, offsets[s],
                       std::move(items), &calls[s]));
    }
  }
  const bool done = cluster.run_until(
      [&] { return total_delivered >= expected; }, kWatchdogNs);
  rep.run_s = run.seconds();
  rep.steps = cluster.steps() - steps0;
  rep.check(done, "run stalled before every member merged every send");

  std::uint64_t everywhere = 0;
  for (std::size_t i = 0; i < kNodes * per; ++i) {
    bool all_seen = true;
    for (const Member& me : members) all_seen = all_seen && me.seen[i];
    everywhere += all_seen;
  }
  for (net::NodeId m : all) {
    const Member& me = members[m];
    const std::string who = "member " + std::to_string(m);
    rep.check(me.bad == 0, who + ": " + std::to_string(me.bad) +
                               " duplicate, misclassified or gsn-regressing upcalls");
    rep.check(me.delivered == sends, who + " merged " +
                                         std::to_string(me.delivered) + " of " +
                                         std::to_string(sends));
    rep.check(me.crosses == crosses_sent, who + " merged " +
                                              std::to_string(me.crosses) +
                                              " crosses of " +
                                              std::to_string(crosses_sent));
    rep.check(me.proj == members[0].proj,
              who + " per-shard projection differs from member 0");
    rep.makespan = std::max(rep.makespan, me.last_at);
    rep.digest = fnv(rep.digest, me.digest);
  }
  rep.check(dom.grants_issued() == crosses_sent,
            "sequencer granted " + std::to_string(dom.grants_issued()) +
                " gsns for " + std::to_string(crosses_sent) + " crosses");
  rep.attempted = sends;
  rep.failed = sends - everywhere;
  rep.sim_ops = total_delivered;

  const double secs = static_cast<double>(rep.makespan) / 1e9;
  rep.e2e["throughput_gbps"] = {
      static_cast<double>(sends) * kMsgSize / secs / 1e9, 0};
  rep.e2e["delivery_p50_us"] = single_latency.us(50);
  rep.e2e["delivery_p99_us"] = single_latency.us(99);
  rep.e2e["cross_p50_us"] = cross_latency.us(50);
  rep.e2e["cross_p99_us"] = cross_latency.us(99);
  mirror_unexercised(rep.e2e, static_cast<double>(sends) / secs);

  LayerContext ctx;
  ctx.makespan = rep.makespan;
  ctx.nodes = kNodes;
  ctx.sending_threads = streams;
  ctx.ops = sends;
  ctx.app_bytes_sent = sends * kMsgSize;
  ctx.crosses = crosses_sent;
  for (std::size_t sh = 0; sh < kShards; ++sh) {
    ctx.active_subgroups.push_back(dom.shard_subgroup(sh));
  }
  CounterLayers counters;
  counters.add(cluster.stats(), ctx);
  counters.emit(rep.layer);
  rep.layer["sim.events_per_op"] = {
      static_cast<double>(rep.steps) / static_cast<double>(sends), 0};
  const metrics::Histogram grants = dom.grant_latency();
  rep.layer["domain.grant_p50_us"] = {
      static_cast<double>(grants.percentile(50)) / 1e3, grants.count()};
  rep.layer["domain.grant_p99_us"] = {
      static_cast<double>(grants.percentile(99)) / 1e3, grants.count()};
  rep.layer["domain.grants_per_cross"] = {
      crosses_sent > 0 ? static_cast<double>(dom.grants_issued()) /
                             static_cast<double>(crosses_sent)
                       : 0,
      crosses_sent};

  if (spec.traced) {
    SpanLayers spans;
    spans.add(cluster.tracer(), rep);
    spans.emit(rep.layer);
    // Merge hold of a single: its merged upcall minus its shard delivery.
    // The fast path upcalls inside the delivery itself, so its hold is 0.
    MsgMap<std::int64_t> shard_delivered;
    for (const trace::Event& e : cluster.tracer().all_events()) {
      if (e.stage == trace::Stage::deliver) {
        shard_delivered[{e.node, e.subgroup, e.sender, e.msg_index}] = e.t;
      }
    }
    Samples hold;
    for (const SingleUpcall& u : singles) {
      const auto it = shard_delivered.find(u.shard_delivery);
      if (it != shard_delivered.end()) hold.add(std::max<std::int64_t>(0, u.at - it->second));
    }
    rep.check(hold.size() == singles.size(),
              "merged singles without a traced shard delivery");
    rep.layer["domain.single_p99_us"] = hold.us(99);
  }
  cluster.shutdown();
  return rep;
}

}  // namespace spindle::bench
