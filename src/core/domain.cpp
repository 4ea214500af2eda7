#include "core/domain.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "core/group.hpp"

namespace spindle::core {

/// Per-sender cross-shard request state. One outstanding gsn request per
/// node (the mutex), so the single grant-column pair per sender can never
/// be overwritten before the requester has read it.
struct OrderingDomain::SenderState {
  std::size_t index = 0;  // position in cfg.senders (grant column pair)
  std::unique_ptr<sim::Mutex> gsn_lock;
  std::int64_t requests = 0;  // mirrors the local xreq column
  std::vector<std::size_t> to_sequencer;  // push target: {seq_rank_}
  // Sequencer round trips as seen by this sender (lock wait excluded).
  // Per-sender so parallel-mode workers never share a histogram.
  metrics::Histogram grant_latency;
};

/// Per-member merge stage over the k shard delivery streams.
///
/// Buried-marker release: every cross-shard copy enqueues a *marker* in its
/// shard's queue; singles queue behind markers (or deliver immediately when
/// the queue is empty). A cross releases — exactly once — when the merge
/// frontier reaches its gsn and all involved copies have arrived, even if
/// its markers are buried mid-queue; released markers stay behind as
/// tombstones and pop when they surface at a queue head (gsn < frontier).
/// The merged projection onto any one shard is a deterministic function of
/// that shard's delivery stream and the gsn map, so every member agrees on
/// it regardless of cross-shard arrival interleaving.
struct OrderingDomain::MergeState {
  // A held message keeps the shard delivery that carried it, with `data`
  // re-pointed at its own `payload` copy when it is released.
  struct CrossEntry {
    std::uint32_t expected = 0;  // popcount(shard_mask); 0 = unseen
    std::uint32_t arrived = 0;
    std::uint32_t shard_mask = 0;
    /// The first copy, without an intra-shard position (seq and
    /// sender_index -1); sent_at is the min over the involved copies.
    Delivery msg{};
    std::vector<std::byte> payload;
  };
  struct Queued {
    bool marker = false;
    std::uint64_t gsn = 0;  // marker only
    Delivery msg{};         // single only
    std::vector<std::byte> payload;
  };

  std::map<std::uint64_t, CrossEntry> crosses;  // gsn -> pending cross
  std::vector<std::deque<Queued>> queues;       // one per shard
  std::uint64_t frontier = 0;   // next gsn to release
  std::uint64_t delivered = 0;  // merged upcalls so far
  DomainHandler handler;
};

OrderingDomain::OrderingDomain(Cluster& cluster, DomainConfig cfg)
    : cluster_(cluster), cfg_(std::move(cfg)) {
  if (cfg_.shards == 0 || cfg_.shards > 32) {
    throw std::invalid_argument(
        "OrderingDomain: shards must be in [1, 32] (shard_mask is 32-bit)");
  }
  if (cfg_.senders.empty()) cfg_.senders = cfg_.members;
  for (std::size_t sh = 0; sh < cfg_.shards; ++sh) {
    SubgroupConfig sc;
    sc.name = cfg_.name + "/shard" + std::to_string(sh);
    sc.members = cfg_.members;
    sc.senders = cfg_.senders;
    sc.opts = cfg_.opts;
    shard_sgs_.push_back(cluster_.create_subgroup(std::move(sc)));
  }
  if (cfg_.shards > 1) register_sequencer();
}

OrderingDomain::~OrderingDomain() = default;

void OrderingDomain::register_sequencer() {
  try {
    seq_rank_ = cluster_.rank_of(cfg_.sequencer);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("OrderingDomain \"" + cfg_.name +
                                "\": sequencer must be a cluster member");
  }
  sender_ranks_.reserve(cfg_.senders.size());
  for (net::NodeId id : cfg_.senders) {
    sender_ranks_.push_back(cluster_.rank_of(id));
  }

  // Sequencer SST columns, appended to the shared layout: the requester's
  // own-row request counter, and — in the sequencer's row — one adjacent
  // (count, gsn) column pair per sender, so a grant is a single contiguous
  // range push and the requester can never observe the count without its
  // gsn.
  h_xreq_ = cluster_.add_shared_i64_field(cfg_.name + ".xreq", 0);
  h_gcount_.reserve(cfg_.senders.size());
  h_ggsn_.reserve(cfg_.senders.size());
  for (std::size_t i = 0; i < cfg_.senders.size(); ++i) {
    h_gcount_.push_back(cluster_.add_shared_i64_field(
        cfg_.name + ".xgrant_count[" + std::to_string(i) + "]", 0));
    h_ggsn_.push_back(cluster_.add_shared_i64_field(
        cfg_.name + ".xgrant_gsn[" + std::to_string(i) + "]", -1));
  }

  for (std::size_t i = 0; i < cfg_.senders.size(); ++i) {
    auto st = std::make_unique<SenderState>();
    st->index = i;
    st->gsn_lock =
        std::make_unique<sim::Mutex>(cluster_.engine_for(cfg_.senders[i]));
    st->to_sequencer = {seq_rank_};
    sender_states_[cfg_.senders[i]] = std::move(st);
  }

  // The grant predicate joins the sequencer node's data-plane scheduler as
  // its own group, swept after the shard groups (hooks register last, so
  // existing sweep order is unchanged).
  cluster_.add_predicate_hook([this](Node& n, sst::Predicates& p) {
    if (n.id() != cfg_.sequencer) return;
    resolve_fields();
    sst::Predicates::GroupOptions g;
    g.name = cfg_.name + "/sequencer";
    g.tag = 0xFFFFFFFFu;  // not a subgroup: sentinel tag for trace hooks
    g.lock = &n.lock();
    g.early_release = cfg_.opts.early_lock_release;
    const auto gid = p.add_group(std::move(g));

    sst::Predicates::PredicateOptions po;
    po.name = cfg_.name + ".grant";
    Node* np = &n;
    po.fire = [this, np](sst::TriggerContext& ctx) {
      return sequencer_grant(*np, ctx);
    };
    p.add(gid, std::move(po));
  });
}

void OrderingDomain::resolve_fields() {
  if (fields_resolved_) return;
  fields_resolved_ = true;
  f_xreq_ = cluster_.shared_field(h_xreq_);
  f_gcount_.reserve(h_gcount_.size());
  f_ggsn_.reserve(h_ggsn_.size());
  for (std::size_t i = 0; i < h_gcount_.size(); ++i) {
    f_gcount_.push_back(cluster_.shared_field(h_gcount_[i]));
    f_ggsn_.push_back(cluster_.shared_field(h_ggsn_[i]));
  }
}

bool OrderingDomain::sequencer_grant(Node& n, sst::TriggerContext& ctx) {
  const CpuModel& cpu = cluster_.cpu();
  ctx.work += cpu.predicate_eval;
  sst::Sst& s = n.sst();
  bool any = false;
  // Scan requesters in rank order (deterministic tie-break: a lower-rank
  // sender whose request became visible in the same round wins the lower
  // gsn). At most one grant per sender per round — the requester's mutex
  // guarantees it cannot have a second request in flight anyway.
  for (std::size_t i = 0; i < sender_ranks_.size(); ++i) {
    ctx.work += cpu.per_member_check;
    const std::int64_t req = s.read_i64(sender_ranks_[i], f_xreq_);
    const std::int64_t granted = s.read_i64(s.my_rank(), f_gcount_[i]);
    if (req <= granted) continue;
    s.write_local_i64(f_ggsn_[i], static_cast<std::int64_t>(next_gsn_++));
    s.write_local_i64(f_gcount_[i], granted + 1);
    ctx.work += cpu.per_message_receive;
    if (sender_ranks_[i] != s.my_rank()) {
      Node* np = &n;
      const std::size_t idx = i;
      const std::size_t rank = sender_ranks_[i];
      ctx.plan.add(kLaneDomain, [this, np, idx, rank] {
        const std::size_t targets[1] = {rank};
        return np->sst().push(f_gcount_[idx], f_ggsn_[idx],
                              std::span<const std::size_t>(targets, 1));
      });
    }
    any = true;
  }
  return any;
}

std::size_t OrderingDomain::shard_of(std::uint64_t key) const {
  // FNV-1a over the key's 8 little-endian bytes.
  std::uint64_t h = 14695981039346656037ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (key >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h % shard_sgs_.size());
}

sim::Co<> OrderingDomain::send(net::NodeId node, std::uint64_t key,
                               std::uint32_t len,
                               std::function<void(std::span<std::byte>)> builder,
                               std::uint32_t flags) {
  return cluster_.node(node).send(shard_sgs_[shard_of(key)], len,
                                  std::move(builder), flags);
}

sim::Co<> OrderingDomain::send_multi(
    net::NodeId node, std::uint32_t shard_mask, std::uint32_t len,
    std::function<void(std::span<std::byte>)> builder, std::uint32_t flags) {
  const std::size_t k = shard_sgs_.size();
  if (shard_mask == 0 || (k < 32 && shard_mask >= (1u << k))) {
    throw std::invalid_argument("OrderingDomain::send_multi: shard_mask " +
                                std::to_string(shard_mask) +
                                " outside the domain's " + std::to_string(k) +
                                " shards");
  }
  if (std::popcount(shard_mask) == 1) {
    // One shard involved: no global position needed, plain intra-shard send.
    co_await cluster_.node(node).send(
        shard_sgs_[static_cast<std::size_t>(std::countr_zero(shard_mask))],
        len, std::move(builder), flags);
    co_return;
  }
  if (len + sizeof(CrossShardHeader) > cfg_.opts.max_msg_size) {
    throw std::invalid_argument(
        "OrderingDomain::send_multi: payload + 16-byte header exceeds "
        "max_msg_size");
  }
  const auto it = sender_states_.find(node);
  if (it == sender_states_.end()) {
    throw std::invalid_argument(
        "OrderingDomain::send_multi: node is not a domain sender");
  }
  SenderState& st = *it->second;
  Node& n = cluster_.node(node);
  const CpuModel& cpu = cluster_.cpu();

  // Acquire a global position: bump the own-row request counter, push it to
  // the sequencer, and poll the local mirror of the sequencer's grant pair.
  // The mutex holds until the grant is read, so the per-sender grant column
  // pair is never reused while a request is pending.
  co_await st.gsn_lock->lock();
  const sim::Nanos grant_t0 = n.engine().now();
  ++st.requests;
  n.sst().write_local_i64(f_xreq_, st.requests);
  co_await n.engine().sleep(n.sst().push_field(
      f_xreq_, std::span<const std::size_t>(st.to_sequencer.data(), 1)));
  while (!n.stopped() &&
         n.sst().read_i64(seq_rank_, f_gcount_[st.index]) < st.requests) {
    co_await n.engine().sleep(cpu.sender_poll_interval);
  }
  if (n.stopped()) {
    st.gsn_lock->unlock();
    co_return;
  }
  const auto gsn = static_cast<std::uint64_t>(
      n.sst().read_i64(seq_rank_, f_ggsn_[st.index]));
  st.grant_latency.add(
      static_cast<std::uint64_t>(n.engine().now() - grant_t0));
  st.gsn_lock->unlock();

  // Fan out one header-prefixed copy per involved shard, ascending. A crash
  // mid-fan-out leaves a partial cross: receivers hold the frontier at this
  // gsn (safety over liveness — see the class contract).
  for (std::size_t sh = 0; sh < k; ++sh) {
    if (((shard_mask >> sh) & 1u) == 0) continue;
    co_await n.send(
        shard_sgs_[sh],
        len + static_cast<std::uint32_t>(sizeof(CrossShardHeader)),
        [gsn, shard_mask, &builder](std::span<std::byte> buf) {
          const CrossShardHeader h{gsn, shard_mask, 0};
          std::memcpy(buf.data(), &h, sizeof h);
          builder(buf.subspan(sizeof h));
        },
        flags | kCrossShardFlag);
  }
}

void OrderingDomain::attach(net::NodeId member, DomainHandler h) {
  Node& n = cluster_.node(member);
  auto ms = std::make_unique<MergeState>();
  ms->handler = std::move(h);
  MergeState* m = ms.get();
  merge_states_[member] = std::move(ms);

  if (shard_sgs_.size() == 1) {
    // Single shard: zero-state pass-through. The wrapped handler adds no
    // simulated cost and no queueing, so a k=1 domain run is bit-identical
    // to driving the subgroup directly (shard_test pins this against the
    // determinism-lock goldens).
    n.set_delivery_handler(shard_sgs_[0], [this, m](const Delivery& d) {
      upcall(*m, 1u, d);
    });
    return;
  }

  m->queues.resize(shard_sgs_.size());
  for (std::size_t sh = 0; sh < shard_sgs_.size(); ++sh) {
    n.set_delivery_handler(shard_sgs_[sh], [this, m, sh](const Delivery& d) {
      on_shard_delivery(*m, sh, d);
    });
  }
}

void OrderingDomain::on_shard_delivery(MergeState& m, std::size_t shard,
                                       const Delivery& d) {
  if ((d.flags & kCrossShardFlag) != 0) {
    CrossShardHeader h;
    std::memcpy(&h, d.data.data(), sizeof h);
    MergeState::CrossEntry& e = m.crosses[h.gsn];
    if (e.expected == 0) {  // first copy to arrive (at this member)
      e.expected = static_cast<std::uint32_t>(std::popcount(h.shard_mask));
      e.shard_mask = h.shard_mask;
      e.msg = Delivery{d.subgroup, d.sender, -1, -1, {}, -1,
                       d.flags & ~kCrossShardFlag};
      const auto body = d.data.subspan(sizeof h);
      e.payload.assign(body.begin(), body.end());
    }
    sim::Nanos& sent_at = e.msg.sent_at;
    if (d.sent_at >= 0 && (sent_at < 0 || d.sent_at < sent_at)) {
      sent_at = d.sent_at;
    }
    ++e.arrived;
    MergeState::Queued& q = m.queues[shard].emplace_back();
    q.marker = true;
    q.gsn = h.gsn;
    progress(m);
    return;
  }
  if (m.queues[shard].empty()) {
    // Fast path: nothing ordered ahead in this shard — upcall in place,
    // zero-copy (the common case when crosses are rare).
    upcall(m, 1u << shard, d);
    return;
  }
  MergeState::Queued q;
  q.msg = d;
  q.payload.assign(d.data.begin(), d.data.end());
  m.queues[shard].push_back(std::move(q));
  progress(m);
}

void OrderingDomain::progress(MergeState& m) {
  bool advanced = true;
  while (advanced) {
    advanced = false;
    // Drain BEFORE releasing the next cross: singles unblocked by the last
    // release must deliver ahead of any later-gsn cross. A member that
    // queued a single behind a marker and a member where the same single
    // took the empty-queue fast path would otherwise order it differently
    // around the next release, and their per-shard projections would
    // diverge.
    for (std::size_t sh = 0; sh < m.queues.size(); ++sh) {
      auto& q = m.queues[sh];
      while (!q.empty()) {
        MergeState::Queued& f = q.front();
        if (f.marker) {
          if (f.gsn >= m.frontier) break;  // live marker: holds the shard
          q.pop_front();                   // tombstone of a released cross
          advanced = true;
          continue;
        }
        f.msg.data = f.payload;
        upcall(m, 1u << sh, f.msg);
        q.pop_front();
        advanced = true;
      }
    }
    // Release the frontier cross once every involved copy is here — its
    // markers may still sit buried mid-queue (they tombstone and pop on the
    // next drain pass).
    const auto it = m.crosses.find(m.frontier);
    if (it != m.crosses.end() && it->second.arrived == it->second.expected) {
      MergeState::CrossEntry& e = it->second;
      e.msg.data = e.payload;
      upcall(m, e.shard_mask, e.msg, m.frontier);
      m.crosses.erase(it);
      ++m.frontier;
      advanced = true;
    }
  }
}

void OrderingDomain::upcall(MergeState& m, std::uint32_t shard_mask,
                            const Delivery& d,
                            std::optional<std::uint64_t> gsn) {
  DomainDelivery dd;
  dd.shard = static_cast<std::size_t>(std::countr_zero(shard_mask));
  dd.shard_mask = shard_mask;
  dd.sender = d.sender;
  dd.seq = d.seq;
  dd.sender_index = d.sender_index;
  dd.gsn = gsn.value_or(0);
  dd.cross = gsn.has_value();
  dd.data = d.data;
  dd.sent_at = d.sent_at;
  dd.flags = d.flags;
  ++m.delivered;
  if (m.handler) m.handler(dd);
}

std::uint64_t OrderingDomain::merged_delivered(net::NodeId member) const {
  return merge_states_.at(member)->delivered;
}

std::uint64_t OrderingDomain::merge_frontier(net::NodeId member) const {
  return merge_states_.at(member)->frontier;
}

metrics::Histogram OrderingDomain::grant_latency() const {
  metrics::Histogram merged;
  for (const auto& [id, st] : sender_states_) merged.merge(st->grant_latency);
  return merged;
}

}  // namespace spindle::core
