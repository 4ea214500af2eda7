#include <algorithm>
#include <cassert>
#include <type_traits>
#include <utility>

#include "core/group.hpp"
#include "core/node.hpp"

namespace spindle::core {

namespace {
constexpr sim::Nanos kPerNullCost = 25;  // trailer write + counter bump

// PostPlan lanes: ordering of the deferred RDMA phase across predicates.
// Ring data + trailer writes go first, then received_num (ack) pushes, then
// delivered_num pushes — a receiver must never learn of an acknowledgment
// before the writes it acknowledges are on the wire (per-link FIFO). With
// §3.2's batched acknowledgments (receive and delivery batching both on) a
// service posts one counter write per peer: received_num and delivered_num
// are adjacent columns, so a service that advanced both pushes them as one
// write on the ack lane (Node::plan_counter_push).
// Lane 3 (core::kLaneDomain) is reserved for extension predicates added via
// Cluster::add_predicate_hook (the cross-shard sequencer's grant pushes).
constexpr int kLaneSend = 0;
constexpr int kLaneAck = 1;
constexpr int kLaneDelivered = 2;

// A sender's own trailer row says which of its claimed, not yet recycled
// indices are nulls.
bool announces_null(const SubgroupState& s, std::int64_t idx) {
  return (s.ring->trailer(s.my_sender_idx, idx).flags & smc::kNullFlag) != 0;
}
}  // namespace

void Node::start() {
  assert(!started_);
  started_ = true;
  setup_predicates();
  engine_.spawn(preds_->run());
  for (auto& s : subgroups_) {
    if (s->cfg.opts.persistent) {
      engine_.spawn(persist_logger(*s));
    }
  }
}

/// Register this node's data plane on the predicate framework: one group
/// per subgroup (the unit of one lock acquisition and one two-phase
/// compute/RDMA round), stages of §2.4 as individual predicates. The
/// scheduler's reactive mode reproduces the dedicated polling thread —
/// round-robin over subgroups with quiet, drained ones parked,
/// per-iteration overhead/jitter/hiccups, and the doorbell-backed idle
/// backoff.
void Node::setup_predicates() {
  preds_ = std::make_unique<sst::Predicates>(engine_);
  const CpuModel& cpu = cluster_.cpu();

  sst::Predicates::SchedulerConfig cfg;
  cfg.stopped = [this] { return stopped_; };
  cfg.faults = &cluster_.fabric().host(id_);
  cfg.iteration_pause = [this] {
    const CpuModel& c = cluster_.cpu();
    sim::Nanos over = c.iteration_overhead;
    if (c.iteration_jitter > 0) {
      over += static_cast<sim::Nanos>(
          rng_.below(static_cast<std::uint64_t>(c.iteration_jitter)));
    }
    // An occasional scheduling hiccup (IRQ balancing, NUMA effects) — the
    // kind of real-world delay §3.3 is designed to absorb.
    over += hiccup_penalty(next_hiccup_);
    return over;
  };
  cfg.doorbell = &cluster_.fabric().doorbell(id_);
  cfg.idle_backoff_min = cpu.idle_backoff_min;
  cfg.idle_backoff_max = cpu.idle_backoff_max;
  cfg.on_park = [this](const sst::Predicates::GroupOptions& g, bool parked) {
    cluster_.tracer().record(id_, trace::Stage::sched_park, engine_.now(), 0,
                             g.tag, trace::kNoSender, -1, parked ? 1 : 0);
  };
  cfg.on_predicate_fire = [this](const sst::Predicates::GroupOptions& g,
                                 const sst::PredicateStats&,
                                 std::size_t ordinal, sim::Nanos before,
                                 sim::Nanos after) {
    cluster_.tracer().record(id_, trace::Stage::predicate_fire,
                             engine_.now() + before, after - before,
                             g.tag, trace::kNoSender, -1, ordinal);
  };
  preds_->configure(std::move(cfg));

  for (auto& sp : subgroups_) {
    SubgroupState& s = *sp;
    sst::Predicates::GroupOptions g;
    g.name = s.cfg.name;
    g.tag = s.id;
    g.lock = lock_.get();
    g.early_release = s.cfg.opts.early_lock_release;
    g.park_after = cluster_.config().park_after;
    // Wedged (view change in progress): the subgroup is completely frozen —
    // no sends, nulls, acknowledgments or deliveries. Every value this node
    // pushed before wedging is bounded by its frozen received_num, which is
    // what makes the leader's ragged trim a consistent cut (core/view.hpp).
    g.enabled = [&s] { return !s.wedged; };
    // A parked group's wake is a write landing in its ring region here
    // (the fabric's landing signal) or a claim by this node (wake_group).
    // Nothing else can make a drained group's stage predicates hold
    // (drained()).
    if (g.park_after > 0) g.drained = [this, &s] { return drained(s); };
    g.on_work = [this, &s](sim::Nanos w) {
      s.predicate_cpu += w;
      counters_.predicate_cpu += w;
    };
    g.on_fire = [this, &s](sim::Nanos w) {
      cluster_.tracer().record(id_, trace::Stage::predicate,
                               engine_.now(), w, s.id);
    };
    g.on_post = [this, &s](sim::Nanos post, std::uint64_t arg) {
      cluster_.tracer().record(id_, trace::Stage::rdma_post,
                               engine_.now(), post, s.id,
                               trace::kNoSender, -1, arg);
    };
    const auto gid = preds_->add_group(std::move(g));
    s.sched_group = gid;
    s.ring->set_landing_signal(preds_->wake_signal(gid));

    preds_->add(gid, {"receive", nullptr,
                      [this, &s](sst::TriggerContext& ctx) {
                        return trigger_receive(s, ctx);
                      }});
    if (s.cfg.opts.null_sends && s.is_sender()) {
      preds_->add(gid, {"null_send", [this] { return !stopped_; },
                        [this, &s](sst::TriggerContext& ctx) {
                          return trigger_null_send(s, ctx);
                        }});
    }
    preds_->add(gid, {"send", [&s] { return s.claimed > s.pushed; },
                      [this, &s](sst::TriggerContext& ctx) {
                        return trigger_send(s, ctx);
                      }});
    preds_->add(gid, {"deliver", nullptr,
                      [this, &s](sst::TriggerContext& ctx) {
                        return trigger_deliver(s, ctx);
                      }});
    if (s.cfg.opts.persistent) {
      preds_->add(gid, {"persist_frontier", nullptr,
                        [this, &s](sst::TriggerContext& ctx) {
                          return trigger_persist_frontier(s, ctx);
                        }});
    }
  }

  // Extension predicates (e.g. the cross-shard sequencer of core/domain.hpp)
  // register after the data-plane groups, so the round-robin order — and
  // with it every existing golden digest — is unchanged when no extension is
  // installed.
  cluster_.apply_predicate_hooks(*this, *preds_);
}

/// Why a drained group may park. Its stage predicates read the ring, the
/// local sender counters, and the SST columns of its members; a drained
/// group's predicates stay false until a trailer lands in its ring (a
/// landing signal) or this node claims a slot (wake_group):
///  - receive and send hold only on a new trailer or a new claim.
///  - deliver: stable = min received_num over members <= our own
///    received_num, which is a received seq (received_num + 1 is the first
///    missing one), hence at most the newest seq received from its sender,
///    which is delivered. So stable <= delivered_num.
///  - null_send: for every peer j with kmax = n_received[j] - 1 >= 0,
///    seq_of(j, kmax) <= delivered_num <= received_num <
///    seq_of(me, n_received[me]) <= seq_of(me, claimed), as our own next
///    message is not received yet. Hence kmax < claimed, or kmax ==
///    claimed and j < me: either way the null target is at most
///    `claimed`, and no null is due.
///  - persist_frontier: each member's persisted_num <= its delivered_num
///    <= its view of our received_num <= our delivered_num, which the
///    global frontier has reached.
/// Remote SST pushes (acknowledgments, delivered and persisted columns)
/// can therefore not wake the group; they still move the sender thread's
/// slot wait, which the node's wait signal wakes.
bool Node::drained(const SubgroupState& s) const {
  if (s.claimed != s.pushed) return false;
  for (std::size_t j = 0; j < s.num_senders(); ++j) {
    const std::int64_t n = s.n_received[j];
    if (n > 0 && s.seq_of(j, n - 1) > s.delivered_num) return false;
  }
  return !s.cfg.opts.persistent || s.persisted_global >= s.delivered_num;
}

/// Receive predicate (§2.4 with the §3.2 batching modification): consume
/// contiguous new messages per sender, advance received_num, and plan the
/// acknowledgment pushes. Trace events are stamped at `now + work-so-far`,
/// the same convention the latency histograms use, so spans line up with
/// where the simulated CPU time is actually charged.
bool Node::trigger_receive(SubgroupState& s, sst::TriggerContext& ctx) {
  const ProtocolOptions& opts = s.cfg.opts;
  const CpuModel& cpu = cluster_.cpu();
  const auto S = s.num_senders();
  auto& eng = engine_;
  trace::Tracer& tr = cluster_.tracer();
  sim::Nanos& work = ctx.work;

  // Cache-pressure factor: huge polling areas (large windows, §4.1.2) make
  // every slot probe and message touch a cache miss.
  const auto cold = [&](sim::Nanos t) {
    return static_cast<sim::Nanos>(static_cast<double>(t) *
                                   s.scan_cost_factor);
  };

  work += cpu.predicate_eval;
  std::uint64_t batch_received = 0;
  std::int64_t prior_received_num = s.received_num;
  for (std::size_t j = 0; j < S; ++j) {
    // This node's own trailers were written by its own mark_ready before
    // `claimed` advanced: reading them probes no memory a peer writes, so
    // only peers' rows pay the probe and the per-message bookkeeping.
    const bool peer = j != s.my_sender_idx;
    if (peer) work += cold(cpu.per_sender_scan);
    std::int64_t& n = s.n_received[j];
    for (;;) {
      const smc::SlotTrailer t = s.ring->trailer(j, n);
      if (t.count != n + 1) break;  // first empty slot: stop (§3.2)
      if (peer) work += cold(cpu.per_message_receive);
      const std::int64_t k = n;
      ++n;
      ++batch_received;
      if (!(t.flags & smc::kNullFlag)) {
        tr.record(id_, trace::Stage::receive, eng.now() + work, 0, s.id,
                  static_cast<std::uint32_t>(j), k);
      }
      if (opts.mode == DeliveryMode::unordered && !(t.flags & smc::kNullFlag)) {
        // QoS "unordered": upcall at reception, no stability wait (§4.6).
        work += cpu.upcall_cost + opts.extra_upcall_delay;
        if (opts.memcpy_on_delivery) work += cpu.memcpy_cost(t.len);
        const smc::Message m = s.ring->message(j, k, t.len);
        const Delivery d{s.id, j, -1, k, m.data, m.sent_at,
                         t.flags & ~smc::kNullFlag};
        if (s.delivery_cost_hook) work += s.delivery_cost_hook(d);
        finish_delivery(s, d, eng.now() + work);
      }
      if (!opts.receive_batching) {
        // Baseline: acknowledge every message individually (§3.2 notes the
        // predicate thread spends >30% of its time posting these).
        recompute_received_num(s);
        if (s.received_num != prior_received_num) {
          ctx.plan.add(kLaneAck, [this, &s] {
            return push_counters(s, s.f_received, s.f_received);
          });
          prior_received_num = s.received_num;
        }
        break;  // at most one message per sender per iteration
      }
    }
  }
  if (batch_received == 0) return false;
  counters_.receive_batches.add(batch_received);
  tr.record(id_, trace::Stage::receive_batch, eng.now() + work, 0, s.id,
            trace::kNoSender, -1, batch_received);
  recompute_received_num(s);
  if (opts.receive_batching && s.received_num != prior_received_num) {
    // One batched ack, monotonic advance (§3.2). The deliver stage plans it,
    // with delivered_num when delivery batching is on and that advances in
    // this service.
    s.ack_due = true;
  }
  sst_->write_local_i64(s.f_received, s.received_num);
  return true;
}

/// Null-send check (§3.3). Receiver-side logic, sender-side action: if a
/// message we would send next still precedes (in round-robin order) a
/// message we have already received, inject nulls so the delivery pipeline
/// never stalls on us. Registered only for senders with null_sends on; the
/// wedged case is the group's enabled() guard, the stopped case the
/// predicate's condition.
bool Node::trigger_null_send(SubgroupState& s, sst::TriggerContext& ctx) {
  const auto S = s.num_senders();
  std::int64_t target = 0;
  for (std::size_t j = 0; j < S; ++j) {
    if (j == s.my_sender_idx) continue;
    const std::int64_t kmax = s.n_received[j] - 1;
    if (kmax < 0) continue;
    // M(me, l) < M(j, kmax)  <=>  l < kmax, or l == kmax and me < j.
    const std::int64_t need = kmax + (s.my_sender_idx < j ? 1 : 0);
    target = std::max(target, need);
  }
  std::int64_t nulls = target - s.claimed;
  std::uint64_t sent_nulls = 0;
  while (nulls > 0 && slot_free(s, s.claimed)) {
    const std::int64_t k = s.claimed;
    s.ring->mark_ready(k, 0, smc::kNullFlag);
    ++s.claimed;
    --nulls;
    ++sent_nulls;
  }
  if (sent_nulls == 0) return false;
  ctx.work += kPerNullCost * static_cast<sim::Nanos>(sent_nulls);
  counters_.nulls_sent += sent_nulls;
  ++counters_.null_iterations;
  cluster_.tracer().record(id_, trace::Stage::null_send,
                           engine_.now() + ctx.work, 0, s.id,
                           static_cast<std::uint32_t>(s.my_sender_idx), -1,
                           sent_nulls);
  return true;
}

/// Send predicate. With batching: aggregate every queued message
/// (application data and nulls) into contiguous ring-range writes. Without
/// batching the sender thread posts application messages inline; this
/// predicate then only flushes nulls. Condition: s.claimed > s.pushed.
bool Node::trigger_send(SubgroupState& s, sst::TriggerContext& ctx) {
  sim::Nanos& work = ctx.work;
  work += cluster_.cpu().predicate_eval;
  const std::int64_t first = s.pushed;
  const std::int64_t last = s.claimed;
  std::uint64_t app_msgs = 0;
  for (std::int64_t i = first; i < last; ++i) {
    if (!announces_null(s, i)) ++app_msgs;
  }
  if (app_msgs > 0) {
    counters_.send_batches.add(app_msgs);
    cluster_.tracer().record(id_, trace::Stage::send_batch,
                             engine_.now() + work, 0, s.id,
                             static_cast<std::uint32_t>(s.my_sender_idx),
                             first, app_msgs);
  }
  s.pushed = s.claimed;  // claimed now so no double-push after unlock
  ctx.plan.set_arg(static_cast<std::uint64_t>(last - first));
  // Two words, which std::function stores without allocating. The batch
  // starts at s.posted when it issues: send actions issue in plan order.
  const auto post = [&s, last] { return post_send_range(s, last); };
  static_assert(sizeof(post) <= 2 * sizeof(void*) &&
                std::is_trivially_copyable_v<decltype(post)>);
  ctx.plan.add(kLaneSend, post);
  return true;
}

/// Delivery predicate: everything at or below the stability frontier
/// (min received_num over members) is delivered in global round-robin
/// order, then delivered_num is pushed (§3.2 batching; §3.5 batched
/// upcalls).
bool Node::trigger_deliver(SubgroupState& s, sst::TriggerContext& ctx) {
  const ProtocolOptions& opts = s.cfg.opts;
  const CpuModel& cpu = cluster_.cpu();
  const auto S = s.num_senders();
  auto& eng = engine_;
  trace::Tracer& tr = cluster_.tracer();
  sim::Nanos& work = ctx.work;
  const auto cold = [&](sim::Nanos t) {
    return static_cast<sim::Nanos>(static_cast<double>(t) *
                                   s.scan_cost_factor);
  };

  // This node's own received_num column only ever holds s.received_num, so
  // the minimum checks the peers' columns alone.
  work += cpu.predicate_eval +
          cpu.per_member_check * static_cast<sim::Nanos>(s.peer_ranks.size());
  std::int64_t stable = s.received_num;
  for (std::size_t rank : s.peer_ranks) {
    stable = std::min(stable, sst_->read_i64(rank, s.f_received));
  }
  if (stable <= s.delivered_num) {
    plan_counter_push(s, ctx.plan, /*delivered=*/false);
    return false;
  }

  const std::int64_t limit =
      opts.delivery_batching ? stable : s.delivered_num + 1;
  std::uint64_t batch_delivered = 0;
  const bool batched_upcall =
      static_cast<bool>(s.batch_handler) && opts.mode == DeliveryMode::atomic;
  s.batch_buffer.clear();
  for (std::int64_t seq = s.delivered_num + 1; seq <= limit; ++seq) {
    const auto j = static_cast<std::size_t>(
        seq % static_cast<std::int64_t>(S));
    const std::int64_t k = seq / static_cast<std::int64_t>(S);
    const smc::SlotTrailer t = s.ring->trailer(j, k);
    assert(t.count == k + 1 && "stable message must be present locally");
    work += cold(cpu.per_message_delivery);
    if (!(t.flags & smc::kNullFlag)) {
      if (opts.mode == DeliveryMode::atomic) {
        if (opts.memcpy_on_delivery) work += cpu.memcpy_cost(t.len);
        const smc::Message m = s.ring->message(j, k, t.len);
        const Delivery d{s.id, j, seq, k, m.data, m.sent_at,
                         t.flags & ~smc::kNullFlag};
        if (s.delivery_cost_hook) work += s.delivery_cost_hook(d);
        if (opts.persistent) work += enqueue_persist(s, seq, j, k, d.data);
        if (batched_upcall) {
          // §3.5 mitigation 1: defer to one upcall for the whole batch;
          // only the marginal per-message cost accrues here.
          s.batch_buffer.push_back(d);
        } else {
          work += cpu.upcall_cost + opts.extra_upcall_delay;
        }
        finish_delivery(s, d, eng.now() + work, !batched_upcall);
      }
      // In unordered mode the upcall already happened at reception; the
      // delivery pass only advances delivered_num to recycle slots.
    }
    s.delivered_num = seq;
    ++batch_delivered;
  }
  if (batched_upcall && !s.batch_buffer.empty()) {
    work += cpu.upcall_cost + opts.extra_upcall_delay;  // once per batch
    s.batch_handler(s.batch_buffer);
  }
  sst_->write_local_i64(s.f_delivered, s.delivered_num);
  wait_signal_.signal();  // our own slot wait reads this column too
  plan_counter_push(s, ctx.plan, /*delivered=*/opts.delivery_batching);
  if (!opts.delivery_batching) {
    for (std::uint64_t i = 0; i < batch_delivered; ++i) {
      ctx.plan.add(kLaneDelivered, [this, &s] {
        return push_counters(s, s.f_delivered, s.f_delivered);
      });
    }
  }
  counters_.delivery_batches.add(batch_delivered);
  tr.record(id_, trace::Stage::delivery_batch, eng.now() + work, 0, s.id,
            trace::kNoSender, -1, batch_delivered);
  return true;
}

/// The batched counter pushes of a service, planned by its deliver stage:
/// received_num, when the receive stage advanced it (ack_due, set only
/// under receive batching), and delivered_num, when `delivered` (only
/// under delivery batching; unbatched deliveries push one by one). A
/// service that advanced both posts one write per peer on the ack lane;
/// one that advanced one of them pushes that column on its own lane, so a
/// held ack lane still holds every received_num push.
void Node::plan_counter_push(SubgroupState& s, sst::PostPlan& plan,
                             bool delivered) {
  // Each action captures two pointers, which std::function stores without
  // allocating.
  if (s.ack_due && delivered) {
    plan.add(kLaneAck, [this, &s] {
      return push_counters(s, s.f_received, s.f_delivered);
    });
  } else if (s.ack_due) {
    plan.add(kLaneAck, [this, &s] {
      return push_counters(s, s.f_received, s.f_received);
    });
  } else if (delivered) {
    plan.add(kLaneDelivered, [this, &s] {
      return push_counters(s, s.f_delivered, s.f_delivered);
    });
  }
  s.ack_due = false;
}

sim::Nanos Node::push_counters(SubgroupState& s, sst::FieldId first,
                               sst::FieldId last) {
  const net::Fabric::NicStats& nic = cluster_.fabric().stats(id_);
  const std::uint64_t before = nic.writes_posted;
  const sim::Nanos post = sst_->push(first, last, s.peer_ranks);
  s.counter_writes += nic.writes_posted - before;
  return post;
}

/// Persistence predicate (persistent mode): report advances of the
/// durable-Paxos commit frontier — min persisted_num over members.
bool Node::trigger_persist_frontier(SubgroupState& s,
                                    sst::TriggerContext& ctx) {
  if (!s.persist_handler) return false;
  const CpuModel& cpu = cluster_.cpu();
  ctx.work += cpu.predicate_eval;
  std::int64_t frontier = INT64_MAX;
  for (std::size_t rank : s.member_sst_ranks) {
    frontier = std::min(frontier, sst_->read_i64(rank, s.f_persisted));
  }
  if (frontier <= s.persisted_global) return false;
  s.persisted_global = frontier;
  ctx.work += cpu.upcall_cost;
  s.persist_handler(frontier);
  return true;
}

sim::Nanos Node::post_send_range(SubgroupState& s, std::int64_t last) {
  // Data writes for runs of application messages, then one trailer-range
  // write covering the whole batch (nulls announce through trailers alone —
  // the "k nulls as a single integer" of §3.3).
  const std::int64_t first = std::exchange(s.posted, last);
  sim::Nanos post = 0;
  std::int64_t run_start = -1;
  for (std::int64_t i = first; i <= last; ++i) {
    const bool run_ends = i == last || announces_null(s, i);
    if (!run_ends && run_start < 0) run_start = i;
    if (run_ends && run_start >= 0) {
      post += s.ring->push_data(run_start, i, s.ring_targets);
      run_start = -1;
    }
  }
  post += s.ring->push_trailers(first, last, s.ring_targets);
  return post;
}

sim::Nanos Node::enqueue_persist(SubgroupState& s, std::int64_t seq,
                                 std::size_t sender, std::int64_t index,
                                 std::span<const std::byte> data) {
  // Stage the message out of the ring (the slot will be recycled long
  // before the SSD flush) and wake the write-behind logger.
  s.persist_queue.push_back(SubgroupState::PersistEntry{
      seq, static_cast<std::uint32_t>(sender), index,
      {data.begin(), data.end()}});
  s.persist_signal->signal();
  return cluster_.cpu().memcpy_cost(data.size());
}

void Node::finish_delivery(SubgroupState& s, const Delivery& d, sim::Nanos at,
                           bool upcall) {
  // An unordered delivery has no sequence; its trace arg is 0.
  cluster_.tracer().record(
      id_, trace::Stage::deliver, at, 0, s.id,
      static_cast<std::uint32_t>(d.sender), d.sender_index,
      d.seq < 0 ? 0 : static_cast<std::uint64_t>(d.seq));
  if (upcall && s.handler) s.handler(d);
  ++counters_.messages_delivered;
  counters_.bytes_delivered += d.data.size();
  ++delivered_per_sg_[s.id];
  if (d.sent_at >= 0) {
    counters_.delivery_latency_ns.add(
        static_cast<std::uint64_t>(at - d.sent_at));
  }
}

sim::Co<> Node::persist_logger(SubgroupState& s) {
  auto& eng = engine_;
  const CpuModel& cpu = cluster_.cpu();
  const net::HostFaults& faults = cluster_.fabric().host(id_);
  while (!stopped_) {
    if (s.persist_queue.empty()) {
      co_await s.persist_signal->wait();
      continue;
    }
    // Opportunistic batching on the persistence path too: flush everything
    // queued with one op latency, then publish persisted_num once.
    sim::Nanos cost = cpu.ssd_op_latency + faults.ssd_extra(eng.now());
    std::int64_t last_seq = s.persisted_local;
    while (!s.persist_queue.empty()) {
      auto entry = std::move(s.persist_queue.front());
      s.persist_queue.pop_front();
      cost += cpu.ssd_append_cost(entry.bytes.size());
      last_seq = entry.seq;
      // Staged into the versioned log's write-behind view; durable only
      // once the flush below completes. A crash mid-flush tears the batch
      // at a sector boundary (store/versioned_log.hpp).
      s.dlog->append(entry.seq, entry.sender, entry.index,
                     std::move(entry.bytes));
    }
    s.dlog->flush_begin(eng.now(), cost);
    co_await eng.sleep(cost);
    s.dlog->flush_commit();
    // The frontier covers trailing nulls: everything delivered up to the
    // next queued entry (or delivered_num) is persisted.
    s.persisted_local = s.persist_queue.empty()
                            ? s.delivered_num
                            : s.persist_queue.front().seq - 1;
    if (s.persisted_local < last_seq) s.persisted_local = last_seq;
    cluster_.tracer().record(id_, trace::Stage::persist, eng.now(), cost,
                             s.id, trace::kNoSender, -1,
                             static_cast<std::uint64_t>(s.persisted_local));
    sst_->write_local_i64(s.f_persisted, s.persisted_local);
    const sim::Nanos post = push_counters(s, s.f_persisted, s.f_persisted);
    if (post > 0) co_await eng.sleep(post);
  }
}

void Node::force_deliver_through(SubgroupId sg, std::int64_t trim) {
  SubgroupState* sp = find(sg);
  assert(sp != nullptr);
  SubgroupState& s = *sp;
  assert(s.wedged && "force delivery requires a wedged subgroup");
  const auto S = static_cast<std::int64_t>(s.num_senders());
  for (std::int64_t seq = s.delivered_num + 1; seq <= trim; ++seq) {
    const auto j = static_cast<std::size_t>(seq % S);
    const std::int64_t k = seq / S;
    const smc::SlotTrailer t = s.ring->trailer(j, k);
    assert(t.count == k + 1 && "trimmed message must be present locally");
    if (!(t.flags & smc::kNullFlag) &&
        s.cfg.opts.mode == DeliveryMode::atomic) {
      // A trim redelivery's send time is unknown (sent_at = -1).
      const Delivery d{s.id, j, seq, k, s.ring->message(j, k, t.len).data,
                       -1, t.flags & ~smc::kNullFlag};
      if (s.cfg.opts.persistent) enqueue_persist(s, seq, j, k, d.data);
      finish_delivery(s, d, engine_.now());
    }
    s.delivered_num = seq;
  }
}

}  // namespace spindle::core
