#include "core/view.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace spindle::core {

namespace {
std::uint64_t bit(net::NodeId id) { return 1ull << id; }

/// A doorbell as the watchdog dump prints it.
std::string doorbell_state(const sim::Signal& s) {
  return "doorbell{signals=" + std::to_string(s.signals()) +
         ",waiters=" + std::to_string(s.waiters()) + "}";
}

/// Heartbeat period: each member pushes one heartbeat per period, plus its
/// round's post cost and up to 2 µs of phase jitter. Membership rounds
/// themselves are event-driven: a member also runs one whenever a peer's
/// push lands and at its earliest suspicion deadline.
constexpr sim::Nanos kHeartbeatPeriod = sim::micros(20);
constexpr sim::Nanos kNever = std::numeric_limits<sim::Nanos>::max();
/// The PostPlan lane of every membership push. The membership SST is its
/// own QP, so its lane is negative: no lane-drop window can name it
/// (net::HostFaults::postplan_drop), and a stalled data-plane lane never
/// holds a heartbeat.
constexpr int kLaneMembership = -1;
/// Total-failure recovery: how long after the last restart() the group
/// waits for further rejoiners before computing the common durable prefix
/// and installing the recovery view (never before the halt).
constexpr sim::Nanos kRestartSettle = sim::micros(800);
}  // namespace

ManagedGroup::ManagedGroup(Config cfg, SubgroupLayout layout)
    : cfg_(cfg),
      layout_(std::move(layout)),
      fabric_(engine_, cfg.timing, cfg.nodes, cfg.seed),
      tracer_(cfg.trace, cfg.nodes),
      rng_(cfg.seed ^ 0x5bd1e995u) {
  if (cfg.nodes == 0 || cfg.nodes > 64) {
    throw std::invalid_argument("ManagedGroup supports 1..64 nodes");
  }
  view_.epoch = 0;
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    view_.members.push_back(static_cast<net::NodeId>(i));
  }
  alive_.assign(cfg.nodes, 1);
  num_subgroups_ = layout_(view_).size();
  if (num_subgroups_ == 0) {
    throw std::invalid_argument("layout must define at least one subgroup");
  }
  queues_.resize(cfg.nodes);
  handlers_.resize(cfg.nodes);
  stores_.resize(cfg.nodes);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    queues_[i].resize(num_subgroups_);
    handlers_[i].resize(num_subgroups_);
    stores_[i].resize(num_subgroups_);
  }
}

ManagedGroup::~ManagedGroup() { shutdown(); }

void ManagedGroup::start() {
  // Membership SST: rows for every node that will ever exist; survives
  // across epochs (its memory is registered once).
  sst::Layout layout;
  f_hb_ = layout.add_i64("heartbeat");
  f_susp_ = layout.add_i64("suspected_mask");
  f_wedged_epoch_ = layout.add_i64("wedged_epoch");
  for (std::size_t g = 0; g < num_subgroups_; ++g) {
    f_frozen_.push_back(layout.add_i64("frozen[" + std::to_string(g) + "]"));
  }
  for (std::size_t g = 0; g < num_subgroups_; ++g) {
    f_trim_.push_back(layout.add_i64("trim[" + std::to_string(g) + "]"));
  }
  f_prop_failed_ = layout.add_i64("proposed_failed_mask");
  f_prop_guard_ = layout.add_i64("proposal_guard");
  // Total-failure recovery announcements (trailing fields: existing pushes
  // are per-field-range and do not change cost).
  f_restart_ = layout.add_i64("restart_announce");
  for (std::size_t g = 0; g < num_subgroups_; ++g) {
    f_durable_.push_back(layout.add_i64("durable[" + std::to_string(g) + "]"));
  }
  f_ack_ = layout.add_i64("proposal_ack");

  std::vector<net::NodeId> all = view_.members;
  std::vector<sst::Sst*> ssts;
  for (net::NodeId id : all) {
    member_sst_.push_back(
        std::make_unique<sst::Sst>(fabric_, id, all, layout));
    for (auto f : f_frozen_) member_sst_.back()->init_field_all_rows_i64(f, -1);
    for (auto f : f_trim_) member_sst_.back()->init_field_all_rows_i64(f, -1);
    for (auto f : f_durable_) {
      member_sst_.back()->init_field_all_rows_i64(f, -1);
    }
    ssts.push_back(member_sst_.back().get());
  }
  sst::Sst::connect(ssts);

  mstate_.resize(cfg_.nodes);
  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    MemberState& m = mstate_[i];
    m.last_hb.assign(cfg_.nodes, 0);
    m.last_change.assign(cfg_.nodes, 0);
    m.doorbell = std::make_unique<sim::Signal>(engine_);
    member_sst_[i]->set_landing_signal(m.doorbell.get(),
                                       /*replaces_doorbell=*/true);
  }
  for (std::size_t i = 0; i < cfg_.nodes; ++i) everyone_.push_back(i);
  // Fork the per-member heartbeat jitter streams in member order (the order
  // the membership actors used to draw them).
  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    membership_rng_.push_back(rng_.fork());
  }

  build_epoch_cluster();

  member_preds_.resize(cfg_.nodes);
  for (net::NodeId id : view_.members) {
    setup_membership_predicates(id);
    engine_.spawn(member_preds_[id]->run());
  }

  engine_.set_diagnostics_provider([this] { return diagnostics_dump(); });
}

void ManagedGroup::build_epoch_cluster() {
  ClusterConfig cc;
  cc.nodes = cfg_.nodes;
  cc.timing = cfg_.timing;
  cc.cpu = cfg_.cpu;
  cc.seed = cfg_.seed + view_.epoch + 1;
  cc.trace = cfg_.trace;
  epoch_cluster_ = std::make_unique<Cluster>(engine_, fabric_, cc,
                                             view_.members, &tracer_);
  // Persistent subgroups write through the group-lifetime stores: one
  // versioned log per (node, subgroup) that accumulates across epochs.
  // SubgroupIds are assigned in layout order, so they index stores_[n].
  epoch_cluster_->set_store_provider(
      [this](net::NodeId n, SubgroupId sg) -> store::VersionedLog* {
        auto& slot = stores_[n][sg];
        if (!slot) {
          store::StoreOptions so;
          so.sector_bytes = cfg_.cpu.ssd_sector_bytes;
          slot = std::make_unique<store::VersionedLog>(so);
        }
        slot->open_epoch(view_.epoch);
        return slot.get();
      });

  const auto subgroups = layout_(view_);
  if (subgroups.size() != num_subgroups_) {
    throw std::logic_error("layout must return a fixed number of subgroups");
  }
  epoch_subgroups_.clear();
  for (const auto& sc : subgroups) {
    epoch_subgroups_.push_back(epoch_cluster_->create_subgroup(sc));
  }
  epoch_cluster_->start();

  // Wire delivery handlers: pop the sender's pending queue on
  // self-delivery, then forward to the application handler.
  for (std::size_t g = 0; g < num_subgroups_; ++g) {
    const SubgroupId sg = epoch_subgroups_[g];
    const auto& sc = epoch_cluster_->subgroup_config(sg);
    for (net::NodeId member : sc.members) {
      epoch_cluster_->node(member).set_delivery_handler(
          sg, [this, g, member, sg](const Delivery& d) {
            const auto& senders =
                epoch_cluster_->subgroup_config(sg).senders;
            if (senders[d.sender] == member) {
              auto& sq = queues_[member][g];
              assert(!sq.q.empty() && sq.q.front().in_flight &&
                     "self-delivery without a pending entry");
              sq.q.pop_front();
              ++sq.popped;
            }
            if (handlers_[member][g]) handlers_[member][g](d);
          });
    }
  }

  changing_ = false;
  // Start, install and recovery alike: nothing queued is in flight yet.
  for (net::NodeId id = 0; id < cfg_.nodes; ++id) {
    for (std::size_t g = 0; g < num_subgroups_; ++g) {
      if (!queues_[id][g].q.empty()) start_pump(id, g);
    }
  }
}

void ManagedGroup::check_node(net::NodeId node) const {
  if (node >= cfg_.nodes) {
    throw std::out_of_range("ManagedGroup: node " + std::to_string(node) +
                            " is outside the " + std::to_string(cfg_.nodes) +
                            "-node group");
  }
}

void ManagedGroup::check_subgroup(std::size_t subgroup_index) const {
  if (subgroup_index >= num_subgroups_) {
    throw std::out_of_range("ManagedGroup: subgroup index " +
                            std::to_string(subgroup_index) +
                            " is outside the " +
                            std::to_string(num_subgroups_) +
                            "-subgroup layout");
  }
}

void ManagedGroup::set_delivery_handler(net::NodeId node,
                                        std::size_t subgroup_index,
                                        DeliveryHandler handler) {
  check_node(node);
  check_subgroup(subgroup_index);
  handlers_[node][subgroup_index] = std::move(handler);
}

void ManagedGroup::send(net::NodeId from, std::size_t subgroup_index,
                        std::vector<std::byte> payload) {
  check_node(from);
  check_subgroup(subgroup_index);
  queues_[from][subgroup_index].q.push_back(
      PendingMessage{std::move(payload), false});
  start_pump(from, subgroup_index);
}

void ManagedGroup::start_pump(net::NodeId id, std::size_t sg_index) {
  auto& sq = queues_[id][sg_index];
  if (sq.pump_running) return;
  sq.pump_running = true;
  engine_.spawn(pump_actor(id, sg_index));
}

sim::Co<> ManagedGroup::pump_actor(net::NodeId id, std::size_t sg_index) {
  auto& sq = queues_[id][sg_index];
  const std::uint64_t gen = pred_gen_;
  for (;;) {
    if (gen != pred_gen_) co_return;  // a recovery respawned this pump
    PendingMessage* next = nullptr;
    for (auto& e : sq.q) {
      if (!e.in_flight) {
        next = &e;
        break;
      }
    }
    Cluster* c = epoch_cluster_.get();
    const bool can_send = next != nullptr && !stopped_ && alive_[id] &&
                          !changing_ && c != nullptr && c->is_member(id);
    const SubgroupState* state =
        can_send ? c->node(id).find(epoch_subgroups_[sg_index]) : nullptr;
    if (state == nullptr || !state->is_sender()) {
      // Nothing this epoch can send: the pump ends. send() starts it for
      // new work, and the next epoch's build_epoch_cluster() for work this
      // one could not take. (A stale-generation pump returned above
      // without touching the flag: its replacement owns it.)
      sq.pump_running = false;
      co_return;
    }
    next->in_flight = true;
    // Copy the payload into the ring slot: deque iterators/pointers may be
    // invalidated by concurrent send() calls, so capture the bytes.
    std::vector<std::byte> bytes = next->payload;
    co_await c->node(id).send(
        epoch_subgroups_[sg_index], static_cast<std::uint32_t>(bytes.size()),
        [&bytes](std::span<std::byte> buf) {
          std::memcpy(buf.data(), bytes.data(), bytes.size());
        });
  }
}

void ManagedGroup::setup_membership_predicates(net::NodeId id) {
  member_preds_[id] = std::make_unique<sst::Predicates>(engine_);
  sst::Predicates& preds = *member_preds_[id];

  sst::Predicates::SchedulerConfig cfg;
  cfg.stopped = [this, id, gen = pred_gen_] {
    return stopped_ || !alive_[id] || gen != pred_gen_;
  };
  // Host faults: a slow-CPU window deschedules the membership thread, so
  // heartbeats stop flowing and peers may falsely suspect this live node;
  // predicate delays slow its triggers. Its pushes ride kLaneMembership,
  // which no lane drop can name, and it has no round pause for spurious
  // evals to burn in.
  cfg.faults = &fabric_.host(id);
  // Event-driven rounds: a peer's push landing in the membership SST rings
  // the doorbell, and a quiet member otherwise waits for the next heartbeat
  // or the earliest suspicion deadline, so suspicion fires exactly at the
  // timeout. The backoff is one failure timeout: with any timeout longer
  // than the heartbeat period, only a ring or the deadline ends the wait.
  cfg.doorbell = mstate_[id].doorbell.get();
  cfg.deadline = [this, id] {
    return std::min(mstate_[id].hb_due, suspicion_deadline(id));
  };
  cfg.idle_backoff_min = cfg_.failure_timeout;
  cfg.idle_backoff_max = cfg_.failure_timeout;
  preds.configure(std::move(cfg));

  // Lock-free (membership SST only). A round that heartbeats moves the next
  // heartbeat past its post CPU.
  sst::Predicates::GroupOptions gopts;
  gopts.name = "membership";
  gopts.on_post = [this, id](sim::Nanos post, std::uint64_t) {
    MemberState& ms = mstate_[id];
    if (std::exchange(ms.hb_sent, false)) ms.hb_due += post;
  };
  const auto gid = preds.add_group(std::move(gopts));

  // 1. Heartbeat, once due. One per period from when its push issues, plus
  // the round's post cost (on_post) and a small phase jitter so the members
  // do not push in lockstep.
  preds.add(gid, {"heartbeat",
                  [this, id] { return engine_.now() >= mstate_[id].hb_due; },
                  [this, id](sst::TriggerContext& ctx) {
                    sst::Sst& sst = *member_sst_[id];
                    sst.write_local_i64(f_hb_, ++mstate_[id].hb);
                    mstate_[id].hb_sent = true;
                    ctx.plan.add(kLaneMembership, [this, id] {
                      mstate_[id].hb_due =
                          engine_.now() + kHeartbeatPeriod +
                          static_cast<sim::Nanos>(
                              membership_rng_[id].below(2000));
                      return member_sst_[id]->push_field(f_hb_, everyone_);
                    });
                    return true;
                  }});

  // 2. Failure detection + suspicion adoption.
  preds.add(gid, {"suspicion", nullptr,
                  [this, id](sst::TriggerContext& ctx) {
                    sst::Sst& sst = *member_sst_[id];
                    MemberState& ms = mstate_[id];
                    const sim::Nanos now = engine_.now();
                    bool row_dirty = false;

                    // Suspicions are scoped to the *current* view: bits for
                    // nodes already removed are stale SST contents from the
                    // previous epoch and must be ignored, or every install
                    // would immediately trigger another.
                    const std::uint64_t member_mask = view_mask();
                    ms.suspected_mask &= member_mask;

                    for (net::NodeId peer : view_.members) {
                      if (peer == id) continue;
                      const std::int64_t seen = sst.read_i64(peer, f_hb_);
                      if (seen != ms.last_hb[peer]) {
                        ms.last_hb[peer] = seen;
                        ms.last_change[peer] = now;
                      } else if (now - ms.last_change[peer] >
                                     cfg_.failure_timeout &&
                                 !(ms.suspected_mask & bit(peer))) {
                        ms.suspected_mask |= bit(peer);
                        row_dirty = true;
                      }
                      if (!(ms.suspected_mask & bit(peer))) {
                        const auto theirs = static_cast<std::uint64_t>(
                                                sst.read_i64(peer, f_susp_)) &
                                            member_mask;
                        if ((theirs & ~ms.suspected_mask) != 0) {
                          ms.suspected_mask |= theirs;
                          row_dirty = true;
                        }
                      }
                    }
                    if (!row_dirty) return false;
                    halt_if_all_suspected(id);
                    sst.write_local_i64(
                        f_susp_, static_cast<std::int64_t>(ms.suspected_mask));
                    ctx.plan.add(kLaneMembership, [this, id] {
                      return member_sst_[id]->push_field(f_susp_, everyone_);
                    });
                    return true;
                  }});

  // 3. Wedge on the first suspicion of the epoch: freeze the data plane and
  // publish frozen received_nums (data first, then the wedged_epoch guard).
  preds.add(gid,
            {"wedge",
             [this, id] {
               const MemberState& ms = mstate_[id];
               return ms.suspected_mask != 0 && !ms.wedged;
             },
             [this, id](sst::TriggerContext& ctx) {
               MemberState& ms = mstate_[id];
               ms.wedged = true;
               changing_ = true;
               wedge_node(id);
               ctx.plan.add(kLaneMembership, [this, id] {
                 return member_sst_[id]->push(f_frozen_.front(),
                                              f_frozen_.back(), everyone_);
               });
               member_sst_[id]->write_local_i64(f_wedged_epoch_,
                                                view_.epoch + 1);
               ctx.plan.add(kLaneMembership, [this, id] {
                 return member_sst_[id]->push_field(f_wedged_epoch_,
                                                    everyone_);
               });
               return true;
             }});

  // 4. Leader: once every survivor has wedged, publish the ragged trim.
  preds.add(gid,
            {"propose", [this, id] { return mstate_[id].wedged; },
             [this, id](sst::TriggerContext& ctx) {
               sst::Sst& sst = *member_sst_[id];
               MemberState& ms = mstate_[id];
               if (current_leader(ms.suspected_mask) != id) return false;
               bool all_wedged = true;
               for (net::NodeId peer : view_.members) {
                 if (ms.suspected_mask & bit(peer)) continue;
                 if (sst.read_i64(peer, f_wedged_epoch_) <
                     static_cast<std::int64_t>(view_.epoch + 1)) {
                   all_wedged = false;
                   break;
                 }
               }
               // Propose once every survivor is wedged — and *re-propose*
               // when the suspicion set has grown past the published
               // proposal (a second crash during the view change). Without
               // the re-proposal the old proposal waits forever on a dead
               // member's acknowledgment, and its trim may cover a node
               // that died before freezing its counters.
               const bool proposed =
                   sst.read_i64(id, f_prop_guard_) ==
                   static_cast<std::int64_t>(view_.epoch + 1);
               const bool stale =
                   proposed &&
                   static_cast<std::uint64_t>(
                       sst.read_i64(id, f_prop_failed_)) != ms.suspected_mask;
               if (!all_wedged || (proposed && !stale)) return false;
               for (std::size_t g = 0; g < num_subgroups_; ++g) {
                 std::int64_t trim = INT64_MAX;
                 for (net::NodeId peer : view_.members) {
                   if (ms.suspected_mask & bit(peer)) continue;
                   trim = std::min(trim, sst.read_i64(peer, f_frozen_[g]));
                 }
                 sst.write_local_i64(f_trim_[g], trim);
               }
               sst.write_local_i64(
                   f_prop_failed_,
                   static_cast<std::int64_t>(ms.suspected_mask));
               // Data before guard: both pushes are planned in this order,
               // and the guard value is written locally before the plan is
               // issued, so receivers still observe trim-then-guard.
               ctx.plan.add(kLaneMembership, [this, id] {
                 return member_sst_[id]->push(f_trim_.front(), f_prop_failed_,
                                              everyone_);
               });
               sst.write_local_i64(f_prop_guard_, view_.epoch + 1);
               ctx.plan.add(kLaneMembership, [this, id] {
                 return member_sst_[id]->push_field(f_prop_guard_, everyone_);
               });
               tracer_.record(id, trace::Stage::view_trim, engine_.now(), 0,
                              trace::kNoSubgroup, trace::kNoSender, -1,
                              view_.epoch + 1);
               return true;
             }});

  // 5. Everyone: acknowledge the current leader's proposal in the own row,
  // once per epoch. The ack names the epoch, not the proposal, so it stays
  // valid for a re-proposal with a grown failed mask or by a new leader.
  preds.add(gid,
            {"ack_proposal",
             [this, id] {
               const MemberState& ms = mstate_[id];
               if (!ms.wedged) return false;
               const sst::Sst& sst = *member_sst_[id];
               const auto next = static_cast<std::int64_t>(view_.epoch + 1);
               return sst.read_i64(id, f_ack_) != next &&
                      sst.read_i64(current_leader(ms.suspected_mask),
                                   f_prop_guard_) == next;
             },
             [this, id](sst::TriggerContext& ctx) {
               member_sst_[id]->write_local_i64(f_ack_, view_.epoch + 1);
               ctx.plan.add(kLaneMembership, [this, id] {
                 return member_sst_[id]->push_field(f_ack_, everyone_);
               });
               return true;
             }});

  // 6. Leader: install once its own copy shows every survivor's ack of its
  // proposal. A re-proposal that only grew the failed mask installs in the
  // round that publishes it when every survivor already acknowledged.
  preds.add(gid,
            {"install", [this, id] { return mstate_[id].wedged; },
             [this, id](sst::TriggerContext&) {
               const MemberState& ms = mstate_[id];
               if ((ms.suspected_mask & bit(id)) ||
                   current_leader(ms.suspected_mask) != id) {
                 return false;
               }
               const sst::Sst& sst = *member_sst_[id];
               const auto next = static_cast<std::int64_t>(view_.epoch + 1);
               if (sst.read_i64(id, f_prop_guard_) != next) return false;
               const auto failed_mask =
                   static_cast<std::uint64_t>(sst.read_i64(id, f_prop_failed_));
               for (net::NodeId peer : view_.members) {
                 if (!(failed_mask & bit(peer)) &&
                     sst.read_i64(peer, f_ack_) != next) {
                   return false;
                 }
               }
               std::vector<std::int64_t> trim(num_subgroups_);
               for (std::size_t g = 0; g < num_subgroups_; ++g) {
                 trim[g] = sst.read_i64(id, f_trim_[g]);
               }
               install_next_view(failed_mask, trim);
               return true;
             }});
}

sim::Nanos ManagedGroup::suspicion_deadline(net::NodeId id) const {
  const MemberState& ms = mstate_[id];
  sim::Nanos deadline = kNever;
  for (net::NodeId peer : view_.members) {
    if (peer == id || (ms.suspected_mask & bit(peer))) continue;
    deadline =
        std::min(deadline, ms.last_change[peer] + cfg_.failure_timeout + 1);
  }
  return deadline;
}

std::uint64_t ManagedGroup::view_mask() const {
  std::uint64_t mask = 0;
  for (net::NodeId m : view_.members) mask |= bit(m);
  return mask;
}

void ManagedGroup::halt_if_all_suspected(net::NodeId id) {
  // No leader can emerge and no primary partition exists (mutual suspicion
  // under symmetric NIC stalls, say). Halt the group — Derecho's
  // total-failure outcome — instead of wedging forever. Members' states are
  // frozen where they wedged; restart() can later resume the group from the
  // durable logs.
  if ((view_mask() & ~mstate_[id].suspected_mask) == 0) halt();
}

void ManagedGroup::halt() {
  if (stopped_) return;
  stopped_ = true;
  // Nodes that restarted before the halt recover once their set settles.
  if (restarting_mask_ != 0) arm_settle_timer();
}

void ManagedGroup::arm_settle_timer() {
  engine_.cancel(settle_timer_);
  settle_timer_ = engine_.schedule_fn(
      std::max(engine_.now(), last_restart_at_ + kRestartSettle), [this] {
        if (recovery_pending()) perform_recovery();
      });
}

net::NodeId ManagedGroup::current_leader(std::uint64_t suspected) const {
  for (net::NodeId id : view_.members) {
    if (!(suspected & bit(id))) return id;
  }
  return view_.members.front();
}

void ManagedGroup::wedge_node(net::NodeId id) {
  if (epoch_cluster_ == nullptr || !epoch_cluster_->is_member(id)) return;
  Node& node = epoch_cluster_->node(id);
  tracer_.record(id, trace::Stage::view_wedge, engine_.now(), 0,
                 trace::kNoSubgroup, trace::kNoSender, -1, view_.epoch + 1);
  node.wedge_all();
  sst::Sst& sst = *member_sst_[id];
  for (std::size_t g = 0; g < num_subgroups_; ++g) {
    const SubgroupState* s = node.find(epoch_subgroups_[g]);
    sst.write_local_i64(f_frozen_[g], s != nullptr ? s->received_num : -1);
  }
}

void ManagedGroup::install_next_view(std::uint64_t failed_mask,
                                     const std::vector<std::int64_t>& trim) {
  // Halt the old epoch's data plane, then deliver the ragged trim.
  for (net::NodeId id : view_.members) {
    if (!alive_[id] || !epoch_cluster_->is_member(id)) continue;
    epoch_cluster_->node(id).stop();
  }
  for (net::NodeId id : view_.members) {
    if ((failed_mask & bit(id)) || !alive_[id]) continue;
    if (!epoch_cluster_->is_member(id)) continue;
    Node& node = epoch_cluster_->node(id);
    for (std::size_t g = 0; g < num_subgroups_; ++g) {
      if (node.find(epoch_subgroups_[g]) == nullptr) continue;
      node.force_deliver_through(epoch_subgroups_[g], trim[g]);
    }
    // Survivors finish flushing their persistence queues inside the
    // install: a reconfiguration never loses a survivor's
    // delivered-but-unflushed appends. (A crashed node's queue IS lost —
    // its durable log ends at whatever it had flushed.)
    node.flush_persist_queue();
  }

  // Compose the next view.
  View next;
  next.epoch = view_.epoch + 1;
  for (net::NodeId id : view_.members) {
    if (failed_mask & bit(id)) {
      next.departed.push_back(id);
      if (alive_[id]) {
        // Graceful leave (or false suspicion of a live node): it departs.
        alive_[id] = 0;
        fabric_.isolate(id);
      }
    } else if (alive_[id]) {
      next.members.push_back(id);
    } else {
      // Crashed after the proposal was published (so not in failed_mask):
      // it still departs in this transition.
      next.departed.push_back(id);
    }
  }
  assert(!next.members.empty() && "the installing leader survives");
  // Every survivor runs a membership round at the install instant, so a
  // suspicion a peer's row still holds is adopted in the new epoch at once.
  for (net::NodeId id : next.members) mstate_[id].doorbell->signal();
  enter_view(std::move(next));
  for (net::NodeId id : view_.members) {
    tracer_.record(id, trace::Stage::view_install, engine_.now(), 0,
                   trace::kNoSubgroup, trace::kNoSender, -1, view_.epoch);
    // Only the own row is cleared: a peer's row keeps the mask it last
    // pushed, so a leave() that no proposal covered yet is adopted again
    // in this epoch.
    member_sst_[id]->write_local_i64(f_susp_, 0);
  }
  build_epoch_cluster();
}

void ManagedGroup::enter_view(View next) {
  epoch_cluster_->shutdown();
  retired_.push_back(std::move(epoch_cluster_));
  view_ = std::move(next);
  for (net::NodeId id : view_.members) {
    MemberState& ms = mstate_[id];
    ms.suspected_mask = 0;
    ms.wedged = false;
    std::fill(ms.last_change.begin(), ms.last_change.end(), engine_.now());
  }
  // Requeue undelivered messages: the next epoch re-sends them.
  for (auto& per_node : queues_) {
    for (auto& sq : per_node) {
      for (auto& e : sq.q) e.in_flight = false;
    }
  }
}

void ManagedGroup::crash(net::NodeId node) {
  // Idempotent, and safe at any protocol phase — including while a view
  // change for an earlier failure is already in progress. The membership
  // layer handles the overlap: survivors suspect this node too, the leader
  // re-proposes with the grown failure set, and one install removes both.
  check_node(node);
  if (!alive_[node]) return;
  alive_[node] = 0;
  fabric_.isolate(node);
  if (epoch_cluster_ && epoch_cluster_->is_member(node)) {
    epoch_cluster_->node(node).stop();
  }
  // The view's last live member died: no one is left to detect the total
  // failure, so the group halts here.
  if (std::none_of(view_.members.begin(), view_.members.end(),
                   [this](net::NodeId m) { return alive_[m] != 0; })) {
    halt();
  }
  // The simulated SSD records where the crash cut each in-flight flush.
  // Nothing is truncated yet: a node that never restarts keeps the
  // optimistic device view; restart() resolves the torn tail.
  for (auto& slot : stores_[node]) {
    if (slot) slot->note_crash(engine_.now());
  }
}

bool ManagedGroup::restart(net::NodeId node) {
  check_node(node);
  if (terminated_) return false;
  if (restarting_mask_ & bit(node)) return false;
  if (alive_[node]) {
    // Process restart of a live node: the process dies first — tearing any
    // in-flight flush — exactly like crash().
    crash(node);
  }
  // Restart-time log recovery: truncate the torn tail at the sector
  // boundary the device reached, commit the survivors.
  for (auto& slot : stores_[node]) {
    if (slot) slot->recover();
  }
  fabric_.restore(node);
  // Announce each log's durable record count (committed_size()) through
  // the membership SST (synchronous, like leave(): the node has no
  // scheduler yet).
  sst::Sst& sst = *member_sst_[node];
  for (std::size_t g = 0; g < num_subgroups_; ++g) {
    const auto* st = stores_[node][g].get();
    sst.write_local_i64(
        f_durable_[g],
        st ? static_cast<std::int64_t>(st->committed_size()) : -1);
    sst.push_field(f_durable_[g], everyone_);
  }
  sst.write_local_i64(f_restart_, 1);
  sst.push_field(f_restart_, everyone_);
  restarting_mask_ |= bit(node);
  last_restart_at_ = engine_.now();
  // Late rejoiners push the recovery back; anyone later still misses it.
  arm_settle_timer();
  return true;
}

void ManagedGroup::perform_recovery() {
  const sim::Nanos now = engine_.now();

  // The recovery view's membership: every node that restarted in time.
  std::vector<net::NodeId> members;
  for (net::NodeId id = 0; id < cfg_.nodes; ++id) {
    if (restarting_mask_ & bit(id)) members.push_back(id);
  }

  // An old member that never restarted died with the total failure: record
  // the crash cut for its store so the post-mortem view is honest.
  for (net::NodeId id : view_.members) {
    if (!(restarting_mask_ & bit(id))) crash(id);
  }

  // Longest common durable prefix per subgroup: the minimum announced
  // committed count over the rejoiners, shrunk past any content
  // disagreement (committed prefixes cannot diverge under the protocol,
  // but the rule is defensive — a disagreeing suffix is discarded).
  RecoveryInfo info;
  info.epoch = view_.epoch + 1;
  info.members = members;
  info.pre_logs.resize(num_subgroups_);
  info.common_prefix.assign(num_subgroups_, 0);
  for (std::size_t g = 0; g < num_subgroups_; ++g) {
    info.pre_logs[g].resize(cfg_.nodes);
    for (net::NodeId id = 0; id < cfg_.nodes; ++id) {
      if (stores_[id][g]) info.pre_logs[g][id] = stores_[id][g]->payloads();
    }
    bool any = false;
    std::size_t lcp = SIZE_MAX;
    for (net::NodeId m : members) {
      if (!stores_[m][g]) continue;  // never persisted in g: unconstraining
      any = true;
      const std::int64_t announced = member_sst_[m]->read_i64(m, f_durable_[g]);
      lcp = std::min(lcp, announced < 0
                              ? std::size_t{0}
                              : static_cast<std::size_t>(announced));
    }
    if (!any) continue;
    std::size_t k = 0;
    for (; k < lcp; ++k) {
      const store::Record* ref = nullptr;
      bool agree = true;
      for (net::NodeId m : members) {
        const auto* st = stores_[m][g].get();
        if (!st) continue;
        const store::Record& r = st->records()[k];
        if (ref == nullptr) {
          ref = &r;
        } else if (r.seq != ref->seq || r.sender != ref->sender ||
                   r.index != ref->index || r.payload != ref->payload) {
          agree = false;
          break;
        }
      }
      if (!agree) break;
    }
    info.common_prefix[g] = k;
  }

  for (const RecoveryObserver& obs : recovery_observers_) obs(info);

  // Ragged trim beyond the common prefix, then replay the prefix to the
  // application: a rejoiner's recovered state is exactly the prefix.
  // Delivered-but-not-durable pre-crash messages are lost; messages still
  // in the failure-atomic send queues are re-sent in the recovery view.
  for (net::NodeId m : members) {
    for (std::size_t g = 0; g < num_subgroups_; ++g) {
      auto* st = stores_[m][g].get();
      if (st == nullptr) continue;
      st->truncate_records(info.common_prefix[g]);
      if (!handlers_[m][g]) continue;
      for (const store::Record& r : st->records()) {
        Delivery d;
        d.subgroup = static_cast<SubgroupId>(g);
        d.sender = r.sender;
        d.seq = r.seq;
        d.sender_index = r.index;
        d.data = std::span<const std::byte>(r.payload);
        d.sent_at = -1;  // replay: origin send time is not durable
        handlers_[m][g](d);
      }
    }
  }

  // Drop queued sends the durable prefix already covers: a fast peer may
  // have persisted a message whose sender crashed before self-delivering
  // it (so it was never popped). Re-sending it would duplicate the replay.
  for (net::NodeId m : members) {
    for (std::size_t g = 0; g < num_subgroups_; ++g) {
      const auto* st = stores_[m][g].get();
      if (st == nullptr) continue;
      std::uint64_t durable_own = 0;
      for (const store::Record& r : st->records()) {
        if (r.sender == m) ++durable_own;
      }
      auto& sq = queues_[m][g];
      while (sq.popped < durable_own && !sq.q.empty()) {
        sq.q.pop_front();
        ++sq.popped;
      }
    }
  }

  // Compose and install the recovery view.
  View next;
  next.epoch = view_.epoch + 1;
  next.members = members;
  for (net::NodeId id : view_.members) {
    if (!(restarting_mask_ & bit(id))) next.departed.push_back(id);
  }
  enter_view(std::move(next));
  for (net::NodeId m : view_.members) {
    alive_[m] = 1;
    tracer_.record(m, trace::Stage::recover, now, 0, trace::kNoSubgroup,
                   trace::kNoSender, -1, view_.epoch);
  }

  // New predicate generation: stale schedulers and pumps with one pending
  // wake-up exit on the mismatch instead of running beside their
  // replacements once stopped_ clears. build_epoch_cluster() restarts the
  // pumps.
  ++pred_gen_;
  for (auto& per_node : queues_) {
    for (auto& sq : per_node) sq.pump_running = false;
  }
  for (net::NodeId m : view_.members) {
    MemberState& ms = mstate_[m];
    ms.hb_due = now;  // the respawned scheduler heartbeats at once
    ms.hb_sent = false;
    for (net::NodeId peer = 0; peer < cfg_.nodes; ++peer) {
      ms.last_hb[peer] = member_sst_[m]->read_i64(peer, f_hb_);
    }
    sst::Sst& sst = *member_sst_[m];
    // No suspicions in any row: the recovery view re-admits nodes that
    // masks pushed before the failure name, and members that adopted
    // those would wedge again.
    sst.init_field_all_rows_i64(f_susp_, 0);
    sst.write_local_i64(f_restart_, 0);
  }
  for (net::NodeId m : view_.members) {
    retired_preds_.push_back(std::move(member_preds_[m]));
    setup_membership_predicates(m);
  }

  build_epoch_cluster();
  stopped_ = false;
  restarting_mask_ = 0;
  ++recoveries_;

  for (net::NodeId m : view_.members) {
    engine_.spawn(member_preds_[m]->run());
  }
}

std::vector<std::vector<std::byte>> ManagedGroup::persistent_log(
    net::NodeId node, std::size_t subgroup_index) const {
  check_node(node);
  check_subgroup(subgroup_index);
  const auto& slot = stores_[node][subgroup_index];
  if (!slot) return {};
  return slot->payloads();
}

std::string ManagedGroup::diagnostics_dump() const {
  std::ostringstream os;
  os << "group: epoch=" << view_.epoch
     << " changing=" << (changing_ ? 1 : 0) << " members=[";
  for (std::size_t i = 0; i < view_.members.size(); ++i) {
    os << (i ? "," : "") << view_.members[i];
  }
  os << "]\n";
  for (net::NodeId id = 0; id < cfg_.nodes; ++id) {
    const MemberState& ms = mstate_[id];
    // `acked`: the epoch + 1 of the last proposal this member acknowledged.
    os << "  node" << id << ": alive=" << int(alive_[id])
       << " wedged=" << ms.wedged
       << " acked=" << member_sst_[id]->read_i64(id, f_ack_) << " susp=0x"
       << std::hex << ms.suspected_mask << std::dec
       << " hb_due=" << ms.hb_due << " suspect_at=";
    // What the member's membership round is waiting for: its next
    // heartbeat and the first instant it may suspect a silent peer.
    if (const sim::Nanos d = suspicion_deadline(id); d != kNever) {
      os << d;
    } else {
      os << "-";
    }
    // A parked membership round shows one waiter on its doorbell; the
    // data-plane polling thread waits on the node's fabric doorbell. The
    // host-fault windows still open say what may be holding either.
    os << " faults{" << fabric_.host(id).open_windows(engine_.now())
       << "} membership_" << doorbell_state(*ms.doorbell) << " data_"
       << doorbell_state(fabric_.doorbell(id));
    if (epoch_cluster_ && epoch_cluster_->is_member(id)) {
      const Node& n = epoch_cluster_->node(id);
      for (std::size_t g = 0; g < num_subgroups_; ++g) {
        const SubgroupState* s = n.find(epoch_subgroups_[g]);
        if (s == nullptr) continue;
        os << " sg" << g << "{claimed=" << s->claimed
           << " pushed=" << s->pushed << " recv=" << s->received_num
           << " delv=" << s->delivered_num;
        if (s->cfg.opts.persistent) os << " persisted=" << s->persisted_local;
        // A parked subgroup waits on a landing in its ring or a local
        // claim; no probe will look at it before then.
        const sst::Predicates* preds = n.predicates();
        if (preds != nullptr && preds->group_sched(s->sched_group).parked) {
          os << " parked";
        }
        os << "}";
      }
    }
    os << "\n";
  }
  return os.str();
}

void ManagedGroup::leave(net::NodeId node) {
  // Announced departure: the node suspects itself; the normal wedge/trim
  // machinery runs, and the node is removed at the next view install.
  check_node(node);
  if (!alive_[node]) return;
  mstate_[node].suspected_mask |= bit(node);
  halt_if_all_suspected(node);
  sst::Sst& sst = *member_sst_[node];
  sst.write_local_i64(f_susp_,
                      static_cast<std::int64_t>(mstate_[node].suspected_mask));
  sst.push_field(f_susp_, everyone_);
  mstate_[node].doorbell->signal();  // wedge now, not at the next heartbeat
}

void ManagedGroup::shutdown() {
  if (terminated_) return;
  terminated_ = true;
  stopped_ = true;
  engine_.cancel(settle_timer_);
  if (epoch_cluster_) {
    for (net::NodeId id : view_.members) {
      if (alive_[id] && epoch_cluster_->is_member(id)) {
        epoch_cluster_->node(id).stop();
      }
    }
  }
  // Drain even a halted group: its schedulers and any pump still in a send
  // are queued, and they exit on stopped_. The engine does not own
  // coroutine frames, so undrained ones would leak.
  engine_.run();
}

}  // namespace spindle::core
