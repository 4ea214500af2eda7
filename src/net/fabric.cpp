#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <tuple>
#include <utility>

namespace spindle::net {

namespace {

/// The last (up to) 8 bytes of [p, p + len): what the stable-source check
/// compares. For an SMC trailer write it is the final slot's monotonic
/// count.
std::uint64_t tail_word(const std::byte* p, std::size_t len) {
  std::uint64_t word = 0;
  const std::size_t n = std::min<std::size_t>(len, sizeof word);
  std::memcpy(&word, p + len - n, n);
  return word;
}

}  // namespace

Fabric::Fabric(sim::Engine& engine, const TimingModel& timing,
               std::size_t n_nodes, std::uint64_t seed)
    : engine_(engine),
      timing_(timing),
      n_(n_nodes),
      isolated_(n_nodes, 0),
      stats_(n_nodes),
      egress_free_(n_nodes, 0),
      ingress_free_(n_nodes, 0),
      control_egress_free_(n_nodes, 0),
      last_post_time_(n_nodes, -1),
      burst_end_(n_nodes, -1),
      egress_paused_(n_nodes, 0),
      egress_queue_(n_nodes),
      link_faults_(n_nodes * n_nodes),
      jitter_seq_(n_nodes * n_nodes, 0),
      jitter_seed_(seed ^ 0xfab51cULL),
      hosts_(n_nodes) {
  doorbells_.reserve(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    doorbells_.push_back(std::make_unique<sim::Signal>(engine));
  }
}

void Fabric::configure_partitions(std::vector<sim::Engine*> engine_of_node,
                                  std::vector<std::uint32_t> part_of_node,
                                  std::size_t n_partitions) {
  assert(engine_of_node.size() == n_ && part_of_node.size() == n_);
  assert(regions_.empty() && "configure_partitions before register_region");
  assert(n_partitions >= 1);
  parallel_ = true;
  n_parts_ = n_partitions;
  engine_of_node_ = std::move(engine_of_node);
  part_of_node_ = std::move(part_of_node);
  staged_.assign(n_parts_ * n_parts_, {});
  merge_scratch_.assign(n_parts_, {});
  // Rebind each doorbell to its node's worker engine, so a delivery
  // signalling it schedules the wake-up on the owning wheel.
  for (std::size_t i = 0; i < n_; ++i) {
    doorbells_[i] = std::make_unique<sim::Signal>(*engine_of_node_[i]);
  }
}

RegionId Fabric::register_region(NodeId node, std::span<std::byte> mem,
                                 Channel channel, std::size_t memoryless) {
  assert(node < n_);
  regions_.push_back(Region{node, mem, mem.size() + memoryless, channel,
                            std::vector<sim::Nanos>(n_, 0), nullptr});
  return RegionId{static_cast<std::uint32_t>(regions_.size() - 1)};
}

sim::Nanos Fabric::post_write(NodeId src_node, RegionId dst,
                              std::size_t dst_offset,
                              std::span<const std::byte> src) {
  if (src.size() > kMaxInline) {
    std::fprintf(stderr,
                 "net::Fabric: inline write of %zu B exceeds the %zu B inline "
                 "limit; post it from a registered source region\n",
                 src.size(), kMaxInline);
    std::abort();
  }
  Write w{dst.index, static_cast<std::uint32_t>(dst_offset),
          static_cast<std::uint32_t>(src.size()), kInlineSrc, {}};
  if (!src.empty()) std::memcpy(w.bytes, src.data(), src.size());
  return post(src_node, w);
}

sim::Nanos Fabric::post_write(RegionId src, std::size_t src_offset,
                              std::size_t len, RegionId dst,
                              std::size_t dst_offset) {
  assert(src.index < regions_.size());
  const Region& source = regions_[src.index];
  assert(src_offset + len <= source.mem.size() &&
         "RDMA write source out of registered region bounds");
  Write w{dst.index, static_cast<std::uint32_t>(dst_offset),
          static_cast<std::uint32_t>(len), src.index, {}};
  w.ref.offset = src_offset;
  w.ref.tail = tail_word(source.mem.data() + src_offset, len);
  return post(source.node, w);
}

sim::Nanos Fabric::post(NodeId src_node, const Write& w) {
  assert(w.dst < regions_.size());
  Region& region = regions_[w.dst];
  assert(w.dst_offset + w.len <= region.size &&
         "RDMA write out of registered region bounds");
  const NodeId dst_node = region.node;
  const sim::Nanos now = node_engine(src_node).now();

  // Burst detection: a post at the same instant as the previous one, or
  // starting exactly where the previous post's CPU cost ended, continues a
  // doorbell-batched burst.
  const bool in_burst =
      (now == last_post_time_[src_node]) || (now == burst_end_[src_node]);
  const sim::Nanos cost =
      in_burst ? timing_.post_cpu_next : timing_.post_cpu_first;
  last_post_time_[src_node] = now;
  burst_end_[src_node] = now + cost;

  auto& st = stats_[src_node];
  ++st.writes_posted;
  st.bytes_posted += w.len;
  st.post_cpu += cost;

  if (isolated_[src_node] || isolated_[dst_node]) {
    return cost;  // traffic silently dropped
  }

  if (src_node == dst_node) {
    // Loopback: the NIC still performs the DMA, but we deliver immediately
    // with no wire latency (Derecho writes to its own row locally and never
    // posts self-writes; this path exists for completeness).
    store(region, w);
    ++st.writes_delivered;
    return cost;
  }

  if (egress_paused_[src_node]) {
    // NIC stall (fault injection): the verb is posted and the CPU cost is
    // paid, but the send queue backs up until resume_egress().
    egress_queue_[src_node].push_back(w);
    return cost;
  }

  // The verb reaches the NIC when the CPU finishes posting it.
  transmit(src_node, w, now + cost);
  return cost;
}

const std::byte* Fabric::payload(const Write& w) const {
  if (w.src == kInlineSrc) return w.bytes;
  // Registered source: the NIC reads it now. A changed last word means the
  // owner rewrote the range while the write was in flight — the
  // stable-source contract is broken and the landed bytes would be wrong.
  const std::byte* p = regions_[w.src].mem.data() + w.ref.offset;
  if (tail_word(p, w.len) != w.ref.tail) {
    std::fprintf(stderr,
                 "net::Fabric: source of a registered-source write changed "
                 "before it landed (source region %u, offset %llu, %u B)\n",
                 w.src, static_cast<unsigned long long>(w.ref.offset), w.len);
    std::abort();
  }
  return p;
}

void Fabric::store(const Region& r, const Write& w) const {
  const std::byte* src = payload(w);
  if (w.dst_offset >= r.mem.size()) return;  // memory-less: nothing to copy
  assert(w.dst_offset + w.len <= r.mem.size() &&
         "RDMA write straddles the end of a region's memory");
  std::memmove(r.mem.data() + w.dst_offset, src, w.len);
}

void Fabric::land(const Write& w) {
  const Region& r = regions_[w.dst];
  if (isolated_[r.node]) return;  // died while in flight
  store(r, w);
  ++stats_[r.node].writes_delivered;
  if (r.doorbell) doorbells_[r.node]->signal();
  if (r.landed != nullptr) r.landed->signal();
}

sim::Nanos Fabric::link_latency(NodeId src, NodeId dst, std::size_t bytes) {
  // Link-fault shaping (fault injection): scaled latency plus jitter.
  const LinkFault& lf = link_faults_[src * n_ + dst];
  sim::Nanos adder = timing_.latency_adder(bytes);
  if (lf.latency_mult != 1.0) {
    adder = static_cast<sim::Nanos>(static_cast<double>(adder) *
                                    lf.latency_mult);
  }
  if (lf.jitter > 0) adder += jitter_draw(src, dst, lf.jitter);
  return adder;
}

sim::Nanos Fabric::jitter_draw(NodeId src, NodeId dst, sim::Nanos jitter) {
  // A hash of (seed, link, per-link draw counter), not one shared RNG: a
  // link's draws happen in its source node's event order, which every
  // engine mode and worker count reproduces, whereas a shared RNG's
  // consumption order depends on the global event interleaving.
  const std::size_t link = src * n_ + dst;
  std::uint64_t x = jitter_seed_ ^ (0x9e3779b97f4a7c15ULL * (link + 1)) ^
                    (++jitter_seq_[link] * 0xd1342543de82ef95ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<sim::Nanos>(x % static_cast<std::uint64_t>(jitter));
}

void Fabric::transmit(NodeId src_node, const Write& w, sim::Nanos ready) {
  const Region& region = regions_[w.dst];
  const NodeId dst_node = region.node;
  const sim::Nanos occ = timing_.occupancy(w.len);
  // The per-QP FIFO clamp keeps writes ordered regardless of the jitter.
  const sim::Nanos adder = link_latency(src_node, dst_node, w.len);

  // Source half: egress serialization at the sender. Control QPs (SST
  // pushes) carry tiny writes and interleave with bulk traffic packet by
  // packet: they serialize only among themselves and are never
  // head-of-line blocked behind an SMC data batch.
  const bool control =
      region.channel == Channel::control && timing_.separate_control_channel;
  sim::Nanos& egress =
      control ? control_egress_free_[src_node] : egress_free_[src_node];
  const sim::Nanos egress_end = std::max(egress, ready) + occ;
  egress = egress_end;
  Arrival a{w, egress_end + adder, occ, src_node, dst_node, control};

  if (!parallel_) {
    deliver_arrival(a);
    return;
  }
  // Parallel: the destination half runs at the next lookahead barrier on
  // the destination's worker — stamped with this event's birth key so the
  // merge can replay the serial global post order.
  sim::Engine& src_engine = *engine_of_node_[src_node];
  const sim::Engine::ContextKey k = src_engine.context_key();
  std::tie(a.del_pu, a.del_s) = src_engine.draw_child_key();
  a.k_at = src_engine.now();
  a.k_b0 = k.b0;
  a.k_b1 = k.b1;
  a.k_d = k.d;
  a.k_pu = k.pu;
  a.k_s = k.s;
  staged_[part_of_node_[src_node] * n_parts_ + part_of_node_[dst_node]]
      .push_back(a);
}

void Fabric::merge_arrivals(std::size_t dst_part) {
  std::vector<Arrival>& scratch = merge_scratch_[dst_part];
  scratch.clear();
  for (std::size_t sp = 0; sp < n_parts_; ++sp) {
    std::vector<Arrival>& cell = staged_[sp * n_parts_ + dst_part];
    scratch.insert(scratch.end(), cell.begin(), cell.end());
    cell.clear();
  }
  if (scratch.empty()) return;
  // Serial-order replay: the serial engine applied the destination half of
  // every transmit at post time, in global event order — which is exactly
  // the worker-count-invariant event key order (sim/sched.hpp). Sorting by
  // the posting event's full key, then by the per-post child index,
  // reproduces it bit for bit.
  std::sort(scratch.begin(), scratch.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.k_at != b.k_at) return a.k_at < b.k_at;
              if (a.k_b0 != b.k_b0) return a.k_b0 < b.k_b0;
              if (a.k_b1 != b.k_b1) return a.k_b1 < b.k_b1;
              if (a.k_d != b.k_d) return a.k_d < b.k_d;
              if (a.k_pu != b.k_pu) return a.k_pu < b.k_pu;
              if (a.k_s != b.k_s) return a.k_s < b.k_s;
              return a.del_s < b.del_s;
            });
  for (const Arrival& a : scratch) deliver_arrival(a);
  scratch.clear();
}

void Fabric::deliver_arrival(const Arrival& a) {
  Region& region = regions_[a.w.dst];
  // Wire + pipelined stages are in a.base; bulk QPs then serialize at the
  // receiver's ingress port.
  sim::Nanos delivery = a.base;
  if (!a.control) {
    const sim::Nanos ingress_start =
        std::max(a.base - a.occ, ingress_free_[a.dst_node]);
    delivery = ingress_start + a.occ;
    ingress_free_[a.dst_node] = delivery;
  }
  // FIFO within (source, region) — one QP (the memory fence of §2.2).
  sim::Nanos& fifo = region.fifo[a.src_node];
  if (delivery <= fifo) delivery = fifo + 1;
  fifo = delivery;

  // A registered-source landing in parallel mode reads the source node's
  // memory on this (the destination's) worker; the lookahead barrier
  // between the post's window and this merge orders that read after the
  // post.
  auto on_land = [this, w = a.w] { land(w); };
  static_assert(sizeof(on_land) <= sim::EventNode::kInlineBytes,
                "the landing event must fit the event node's inline storage");
  if (!parallel_) {
    engine_.schedule_fn(delivery, on_land);
    return;
  }
  // Re-stamp exactly what serial schedule_fn would have: scheduled at the
  // posting time (b0 = k_at) by the posting event (b1 = its b0), into the
  // future (d = 0), with the identity drawn at post time.
  engine_of_node_[a.dst_node]->schedule_fn_keyed(
      delivery, a.k_at, a.k_b0, 0, a.del_pu, a.del_s, on_land);
}

void Fabric::isolate(NodeId node) {
  assert(node < n_);
  // Crash isolation flips a flag read by every other node's posts and
  // in-flight deliveries — inherently cross-partition, so it has no
  // race-free parallel-mode story (Cluster::crash guards this too).
  assert(!parallel_ && "isolate() is serial-mode only");
  isolated_[node] = 1;
  egress_queue_[node].clear();  // a dead NIC's send queue is gone
}

void Fabric::restore(NodeId node) {
  assert(node < n_);
  assert(!parallel_ && "restore() is serial-mode only");
  isolated_[node] = 0;
  egress_paused_[node] = 0;
  assert(egress_queue_[node].empty());
}

void Fabric::pause_egress(NodeId node) {
  assert(node < n_);
  egress_paused_[node] = 1;
}

void Fabric::resume_egress(NodeId node) {
  assert(node < n_);
  if (!egress_paused_[node]) return;
  egress_paused_[node] = 0;
  auto queued = std::move(egress_queue_[node]);
  egress_queue_[node].clear();
  if (isolated_[node]) return;  // crashed while stalled: queue lost
  const sim::Nanos now = node_engine(node).now();
  for (const Write& w : queued) {
    if (isolated_[regions_[w.dst].node]) continue;
    transmit(node, w, now);
  }
}

void Fabric::set_link_fault(NodeId src, NodeId dst, double latency_multiplier,
                            sim::Nanos jitter) {
  assert(src < n_ && dst < n_);
  // A multiplier below 1 could deliver faster than min_remote_delay(), the
  // parallel engine's lookahead bound — soundness, not just determinism.
  assert((!parallel_ || latency_multiplier >= 1.0) &&
         "parallel mode requires link latency multipliers >= 1");
  link_faults_[src * n_ + dst] = LinkFault{latency_multiplier, jitter};
}

std::string HostFaults::open_windows(sim::Nanos now) const {
  std::ostringstream os;
  const char* sep = "";
  const auto open = [&](const char* kind) -> std::ostream& {
    return os << std::exchange(sep, "; ") << kind;
  };
  if (now < cpu_until_) open("slow_cpu") << " until=" << cpu_until_ << "ns";
  if (now < ssd_until_) {
    open("ssd_fault") << " until=" << ssd_until_ << "ns extra=" << ssd_extra_
                      << "ns";
  }
  for (const Delay& w : delays_) {
    if (now >= w.until) continue;
    open("predicate_delay") << " pred=" << w.name << " until=" << w.until
                            << "ns extra=" << w.extra << "ns";
  }
  for (const LaneDrop& w : lane_drops_) {
    if (now >= w.until) continue;
    open("postplan_drop") << " lane=" << w.lane << " until=" << w.until
                          << "ns";
  }
  for (const Spurious& w : spurious_) {
    if (now >= w.until) continue;
    open("spurious_eval") << " until=" << w.until << "ns extra=" << w.extra
                          << "ns";
  }
  return os.str();
}

}  // namespace spindle::net
