// bulk_10k and hot_cold_1k: closed-loop atomic multicast in one hot
// subgroup, with or without cold subgroups sharing every node's polling
// thread.

#include <algorithm>
#include <cstring>

#include "core/group.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace spindle::bench {

namespace {

struct Shape {
  std::size_t cold_subgroups = 0;
  std::uint32_t msg_size = 0;
  std::uint32_t max_msg_size = 0;  // 0: the default slot size
  std::uint32_t window = 0;        // 0: the default window
  std::size_t msgs_per_sender = 0;
};

constexpr std::size_t kNodes = 16;

/// Payload tag: sender node in the high half, per-sender index in the low.
std::uint64_t tag_of(std::size_t sender, std::size_t index) {
  return (static_cast<std::uint64_t>(sender) << 32) | index;
}

sim::Co<> sender(core::Cluster* cluster, core::SubgroupId sg, net::NodeId id,
                 std::int64_t offset, std::size_t count, std::uint32_t size) {
  co_await cluster->engine_for(id).sleep(offset);
  core::Node& node = cluster->node(id);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t tag = tag_of(id, i);
    co_await node.send(sg, size, [tag](std::span<std::byte> buf) {
      std::memcpy(buf.data(), &tag, sizeof tag);
    });
  }
}

/// What one member observed of the hot subgroup's delivery stream.
struct Member {
  std::vector<std::size_t> next;  // per sender: next expected index
  std::uint64_t digest = kFnvOffset;
  std::uint64_t delivered = 0;
  std::uint64_t bad = 0;  // duplicate, gap or foreign upcalls
  std::int64_t last_at = -1;
};

Rep run_multicast(const Spec& spec, const Shape& sh) {
  Rep rep;
  const std::size_t per =
      spec.smoke ? std::max<std::size_t>(1, sh.msgs_per_sender / 50)
                 : sh.msgs_per_sender;
  const std::vector<std::int64_t> offsets = start_offsets(spec.seed, kNodes);

  WallTimer setup;
  core::ClusterConfig cc;
  cc.nodes = kNodes;
  cc.trace = trace_config(spec.traced);
  core::Cluster cluster(cc);
  std::vector<net::NodeId> all(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) all[i] = static_cast<net::NodeId>(i);
  core::SubgroupConfig hot;
  hot.name = "hot";
  hot.members = all;
  hot.senders = all;
  hot.opts = core::ProtocolOptions::spindle();
  if (sh.max_msg_size > 0) hot.opts.max_msg_size = sh.max_msg_size;
  if (sh.window > 0) hot.opts.window_size = sh.window;
  const core::SubgroupId hot_sg = cluster.create_subgroup(hot);
  for (std::size_t c = 0; c < sh.cold_subgroups; ++c) {
    core::SubgroupConfig cold = hot;
    cold.name = "cold" + std::to_string(c);
    cluster.create_subgroup(std::move(cold));
  }
  cluster.start();
  rep.setup_s = setup.seconds();

  sim::Engine& eng = cluster.engine();
  std::vector<Member> members(kNodes);
  Samples latency;  // construct -> upcall, every member
  std::uint64_t total_delivered = 0;
  for (net::NodeId m : all) {
    Member& me = members[m];
    me.next.assign(kNodes, 0);
    cluster.node(m).set_delivery_handler(
        hot_sg, [&, m](const core::Delivery& d) {
          Member& self = members[m];
          const std::int64_t now = eng.now();
          std::uint64_t tag = 0;
          if (d.data.size() >= sizeof tag) {
            std::memcpy(&tag, d.data.data(), sizeof tag);
          }
          const std::size_t src = tag >> 32;
          const std::size_t idx = tag & 0xffffffffu;
          if (src >= kNodes || d.sender != src || idx != self.next[src]) {
            ++self.bad;
          } else {
            ++self.next[src];
          }
          self.digest = fnv(fnv(self.digest, tag), static_cast<std::uint64_t>(d.seq));
          self.last_at = now;
          ++self.delivered;
          ++total_delivered;
          if (d.sent_at >= 0) latency.add(now - d.sent_at);
        });
  }

  const std::uint64_t sends = kNodes * per;
  const std::uint64_t expected = sends * kNodes;
  const std::uint64_t steps0 = cluster.steps();
  WallTimer run;
  for (net::NodeId s : all) {
    eng.spawn(sender(&cluster, hot_sg, s, offsets[s], per, sh.msg_size));
  }
  const bool done = cluster.run_until(
      [&] { return total_delivered >= expected; }, kWatchdogNs);
  rep.run_s = run.seconds();
  rep.steps = cluster.steps() - steps0;
  rep.check(done, "run stalled before every member delivered every send");

  // Checks: exactly once, per-sender FIFO, one total order everywhere.
  std::uint64_t everywhere = 0;  // sends delivered at every member
  for (std::size_t s = 0; s < kNodes; ++s) {
    std::size_t lowest = per;
    for (const Member& me : members) lowest = std::min(lowest, me.next[s]);
    everywhere += lowest;
  }
  for (net::NodeId m : all) {
    const Member& me = members[m];
    rep.check(me.bad == 0, "member " + std::to_string(m) + ": " +
                               std::to_string(me.bad) +
                               " duplicate or out-of-order upcalls");
    rep.check(me.delivered == sends,
              "member " + std::to_string(m) + " delivered " +
                  std::to_string(me.delivered) + " of " + std::to_string(sends));
    rep.check(me.digest == members[0].digest,
              "member " + std::to_string(m) + " order digest differs");
    rep.makespan = std::max(rep.makespan, me.last_at);
    rep.digest = fnv(rep.digest, me.digest);
  }
  rep.attempted = sends;
  rep.failed = sends - everywhere;
  rep.sim_ops = total_delivered;

  const double secs = static_cast<double>(rep.makespan) / 1e9;
  rep.e2e["throughput_gbps"] = {
      static_cast<double>(sends) * sh.msg_size / secs / 1e9, 0};
  rep.e2e["delivery_p50_us"] = latency.us(50);
  rep.e2e["delivery_p99_us"] = latency.us(99);
  mirror_unexercised(rep.e2e, static_cast<double>(sends) / secs);

  LayerContext ctx;
  ctx.makespan = rep.makespan;
  ctx.nodes = kNodes;
  ctx.sending_threads = kNodes;
  ctx.ops = sends;
  ctx.app_bytes_sent = sends * sh.msg_size;
  ctx.active_subgroups = {hot_sg};
  CounterLayers counters;
  counters.add(cluster.stats(), ctx);
  counters.emit(rep.layer);
  rep.layer["sim.events_per_op"] = {
      static_cast<double>(rep.steps) / static_cast<double>(sends), 0};
  if (spec.traced) {
    SpanLayers spans;
    spans.add(cluster.tracer(), rep);
    spans.emit(rep.layer);
  }
  cluster.shutdown();
  return rep;
}

}  // namespace

// Paper headline (Fig 3/16/17): 16 senders of 10 KB messages, window- and
// NIC-bound.
Rep run_bulk(const Spec& spec, bool) {
  return run_multicast(spec, Shape{.cold_subgroups = 0,
                                   .msg_size = 10240,
                                   .max_msg_size = 0,
                                   .window = 0,
                                   .msgs_per_sender = 2000});
}

// Per-message and per-round cost dominate: 1 KB messages, window 8, and 16
// cold subgroups every polling thread must also scan.
Rep run_hot_cold(const Spec& spec, bool) {
  return run_multicast(spec, Shape{.cold_subgroups = 16,
                                   .msg_size = 1024,
                                   .max_msg_size = 1024,
                                   .window = 8,
                                   .msgs_per_sender = 3000});
}

}  // namespace spindle::bench
