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

/// Heartbeat period (each member pushes one heartbeat per period, plus its
/// round's post cost and up to 2 µs of phase jitter), and the backoff of
/// the install and recovery barriers and of the pump's retry loop.
/// Membership rounds themselves are event-driven: a member also runs one
/// whenever a peer's push lands and at its earliest suspicion deadline.
constexpr sim::Nanos kHeartbeatPeriod = sim::micros(20);
constexpr sim::Nanos kNever = std::numeric_limits<sim::Nanos>::max();
/// The PostPlan lane of every membership push. The membership SST is its
/// own QP, so its lane is negative: no lane-drop window can name it
/// (net::HostFaults::postplan_drop), and a stalled data-plane lane never
/// holds a heartbeat.
constexpr int kLaneMembership = -1;
/// Total-failure recovery: how long after the last restart() the recovery
/// coordinator waits for further rejoiners before computing the common
/// durable prefix and installing the recovery view.
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
  f_installed_ = layout.add_i64("installed_epoch");
  for (std::size_t g = 0; g < num_subgroups_; ++g) {
    f_frozen_.push_back(layout.add_i64("frozen[" + std::to_string(g) + "]"));
  }
  for (std::size_t g = 0; g < num_subgroups_; ++g) {
    f_trim_.push_back(layout.add_i64("trim[" + std::to_string(g) + "]"));
  }
  f_prop_epoch_ = layout.add_i64("proposed_epoch");
  f_prop_failed_ = layout.add_i64("proposed_failed_mask");
  f_prop_guard_ = layout.add_i64("proposal_guard");
  // Total-failure recovery announcements (trailing fields: existing pushes
  // are per-field-range and do not change cost).
  f_restart_ = layout.add_i64("restart_announce");
  for (std::size_t g = 0; g < num_subgroups_; ++g) {
    f_durable_.push_back(layout.add_i64("durable[" + std::to_string(g) + "]"));
  }

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
    member_sst_[i]->set_landing_signal(m.doorbell.get());
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
  setup_coordinator_predicates();
  engine_.spawn(coord_preds_->run());

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
  auto& sq = queues_[from][subgroup_index];
  sq.q.push_back(PendingMessage{std::move(payload), false});
  if (!sq.pump_running) {
    sq.pump_running = true;
    engine_.spawn(pump_actor(from, subgroup_index));
  }
}

sim::Co<> ManagedGroup::pump_actor(net::NodeId id, std::size_t sg_index) {
  auto& sq = queues_[id][sg_index];
  const std::uint64_t gen = pred_gen_;
  for (;;) {
    if (gen != pred_gen_) co_return;  // a recovery respawned this pump
    if (stopped_ || !alive_[id]) {
      // Mark the pump stopped so a post-recovery send() can respawn it.
      // (A stale-generation pump must NOT touch the flag: its replacement
      // already owns it.)
      sq.pump_running = false;
      co_return;
    }
    if (changing_ || epoch_cluster_ == nullptr ||
        !epoch_cluster_->is_member(id)) {
      co_await engine_.sleep(kHeartbeatPeriod);
      continue;
    }
    PendingMessage* next = nullptr;
    for (auto& e : sq.q) {
      if (!e.in_flight) {
        next = &e;
        break;
      }
    }
    if (next == nullptr) {
      co_await engine_.sleep(kHeartbeatPeriod);
      continue;
    }
    Cluster* c = epoch_cluster_.get();
    const SubgroupState* state =
        c->node(id).find(epoch_subgroups_[sg_index]);
    if (state == nullptr || !state->is_sender()) {
      co_await engine_.sleep(kHeartbeatPeriod);
      continue;
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
  preds.add(gid, {"heartbeat", sst::PredicateClass::recurrent,
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
  preds.add(gid, {"suspicion", sst::PredicateClass::recurrent, nullptr,
                  [this, id](sst::TriggerContext& ctx) {
                    sst::Sst& sst = *member_sst_[id];
                    MemberState& ms = mstate_[id];
                    const sim::Nanos now = engine_.now();
                    bool row_dirty = false;

                    // Suspicions are scoped to the *current* view: bits for
                    // nodes already removed are stale SST contents from the
                    // previous epoch and must be ignored, or every install
                    // would immediately trigger another.
                    std::uint64_t member_mask = 0;
                    for (net::NodeId m : view_.members) member_mask |= bit(m);
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
                    sst.write_local_i64(
                        f_susp_, static_cast<std::int64_t>(ms.suspected_mask));
                    ctx.plan.add(kLaneMembership, [this, id] {
                      return member_sst_[id]->push_field(f_susp_, everyone_);
                    });
                    return true;
                  }});

  // 3. Wedge on any suspicion: freeze the data plane and publish frozen
  // received_nums (data first, then the wedged_epoch guard). A transition
  // predicate: fires on the rising edge of "some member is suspected";
  // install_next_view() re-arms it for the next epoch.
  preds.add(gid,
            {"wedge", sst::PredicateClass::transition,
             [this, id] { return mstate_[id].suspected_mask != 0; },
             [this, id](sst::TriggerContext& ctx) {
               MemberState& ms = mstate_[id];
               if (ms.wedged) return false;
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
            {"propose", sst::PredicateClass::recurrent,
             [this, id] { return mstate_[id].wedged; },
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
               sst.write_local_i64(f_prop_epoch_, view_.epoch + 1);
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
               // A re-proposal may complete the install barrier by itself
               // (every survivor already acknowledged the first one).
               coord_doorbell_.signal();
               return true;
             }});

  // 5. Everyone: acknowledge the current leader's proposal (a transition on
  // "the proposal for the next epoch is visible"; re-armed at install).
  preds.add(gid,
            {"ack_proposal", sst::PredicateClass::transition,
             [this, id] {
               const MemberState& ms = mstate_[id];
               if (!ms.wedged) return false;
               const net::NodeId leader = current_leader(ms.suspected_mask);
               return member_sst_[id]->read_i64(leader, f_prop_guard_) ==
                      static_cast<std::int64_t>(view_.epoch + 1);
             },
             [this, id](sst::TriggerContext&) {
               mstate_[id].saw_proposal = true;
               coord_doorbell_.signal();  // may complete the install barrier
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

std::uint64_t ManagedGroup::all_suspicions() const {
  std::uint64_t member_mask = 0;
  for (net::NodeId m : view_.members) member_mask |= bit(m);
  std::uint64_t mask = 0;
  for (net::NodeId id : view_.members) {
    if (alive_[id]) mask |= mstate_[id].suspected_mask;
  }
  return mask & member_mask;
}

net::NodeId ManagedGroup::current_leader(std::uint64_t suspected) const {
  for (net::NodeId id : view_.members) {
    if (!(suspected & bit(id))) return id;
  }
  return view_.members.front();
}

void ManagedGroup::setup_coordinator_predicates() {
  // The install barrier, coordinated centrally (see class comment): waits
  // until every survivor has observed the leader's proposal, then performs
  // the trim delivery and installs the next view. Woken by the proposal
  // and acknowledgment triggers; a heartbeat-period backoff catches the
  // total-failure halt, which no push announces.
  coord_preds_ = std::make_unique<sst::Predicates>(engine_);
  sst::Predicates::SchedulerConfig cfg;
  cfg.stopped = [this, gen = pred_gen_] {
    return stopped_ || gen != pred_gen_;
  };
  cfg.doorbell = &coord_doorbell_;
  cfg.idle_backoff_min = kHeartbeatPeriod;
  cfg.idle_backoff_max = kHeartbeatPeriod;
  coord_preds_->configure(std::move(cfg));
  sst::Predicates::GroupOptions gopts;
  gopts.name = "coordinator";
  const auto gid = coord_preds_->add_group(std::move(gopts));

  // Every member is suspected or dead: no leader can emerge and no primary
  // partition exists (mutual suspicion under symmetric NIC stalls, or
  // simply every process crashing). Halt the group — Derecho's
  // total-failure outcome — instead of wedging forever. Members' states
  // are frozen where they wedged; restart() can later resume the group
  // from the durable logs.
  coord_preds_->add(
      gid, {"total_failure_halt", sst::PredicateClass::one_time,
            [this] {
              std::uint64_t member_mask = 0;
              for (net::NodeId id : view_.members) member_mask |= bit(id);
              std::uint64_t covered = all_suspicions();
              for (net::NodeId id : view_.members) {
                if (!alive_[id]) covered |= bit(id);
              }
              if (member_mask == 0 || covered == 0) return false;
              return (member_mask & ~covered) == 0;
            },
            [this](sst::TriggerContext&) {
              stopped_ = true;
              return true;
            }});

  install_pred_ = coord_preds_->add(
      gid, {"install_barrier", sst::PredicateClass::one_time,
            [this] {
              if (stopped_ || !changing_) return false;
              const std::uint64_t suspected = all_suspicions();
              if (suspected == 0) return false;
              std::uint64_t member_mask = 0;
              for (net::NodeId id : view_.members) member_mask |= bit(id);
              if ((member_mask & ~suspected) == 0) return false;
              const net::NodeId leader = current_leader(suspected);
              // Leader crashed: suspicion will spread, check next round.
              if (!alive_[leader]) return false;
              sst::Sst& lsst = *member_sst_[leader];
              if (lsst.read_i64(leader, f_prop_guard_) !=
                  static_cast<std::int64_t>(view_.epoch + 1)) {
                return false;
              }
              const auto failed_mask = static_cast<std::uint64_t>(
                  lsst.read_i64(leader, f_prop_failed_));
              for (net::NodeId id : view_.members) {
                if (failed_mask & bit(id)) continue;
                if (!mstate_[id].saw_proposal || !mstate_[id].wedged) {
                  return false;
                }
              }
              return true;
            },
            [this](sst::TriggerContext&) {
              // Re-read the winning proposal: the guard held in the
              // condition, and nothing ran in between (same engine slot).
              const net::NodeId leader = current_leader(all_suspicions());
              sst::Sst& lsst = *member_sst_[leader];
              const auto failed_mask = static_cast<std::uint64_t>(
                  lsst.read_i64(leader, f_prop_failed_));
              std::vector<std::int64_t> trim(num_subgroups_);
              for (std::size_t g = 0; g < num_subgroups_; ++g) {
                trim[g] = lsst.read_i64(leader, f_trim_[g]);
              }
              install_next_view(failed_mask, trim);
              return true;
            }});
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
    // install barrier: a reconfiguration never loses a survivor's
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
  if (next.members.empty()) {
    stopped_ = true;
    return;
  }
  view_ = std::move(next);
  for (net::NodeId id : view_.members) {
    tracer_.record(id, trace::Stage::view_install, engine_.now(), 0,
                   trace::kNoSubgroup, trace::kNoSender, -1, view_.epoch);
  }

  // Reset per-member view-change state and requeue undelivered messages.
  for (net::NodeId id : view_.members) {
    mstate_[id].suspected_mask = 0;
    mstate_[id].wedged = false;
    mstate_[id].saw_proposal = false;
    for (net::NodeId peer : view_.members) {
      mstate_[id].last_change[peer] = engine_.now();
    }
    sst::Sst& sst = *member_sst_[id];
    sst.write_local_i64(f_susp_, 0);
    sst.write_local_i64(f_installed_, view_.epoch);
  }
  for (auto& per_node : queues_) {
    for (auto& sq : per_node) {
      for (auto& e : sq.q) e.in_flight = false;
    }
  }

  // Fresh epoch, fresh edges: reset the survivors' TRANSITION predicates
  // (wedge, ack) so the next suspicion is a rising edge even if it is
  // raised — e.g. by leave() — before the member's next evaluation round,
  // and re-arm the ONE_TIME install barrier for the next transition.
  for (net::NodeId id : view_.members) {
    if (member_preds_[id]) member_preds_[id]->rearm_all();
  }
  if (coord_preds_) coord_preds_->rearm(install_pred_);

  epoch_cluster_->shutdown();
  retired_.push_back(std::move(epoch_cluster_));
  build_epoch_cluster();
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
  // Announce the durable version vector through the membership SST
  // (synchronous, like leave(): the node has no scheduler yet).
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
  if (!recovery_preds_) {
    setup_recovery_predicates();
    engine_.spawn(recovery_preds_->run());
  }
  return true;
}

void ManagedGroup::setup_recovery_predicates() {
  // The recovery barrier, coordinated centrally like the install barrier
  // and polled once per heartbeat period. Spawned lazily by the first
  // restart() so groups that never restart pay nothing; its scheduler only
  // stops at termination, so it survives the halt it is waiting to resolve.
  recovery_preds_ = std::make_unique<sst::Predicates>(engine_);
  sst::Predicates::SchedulerConfig cfg;
  cfg.stopped = [this] { return terminated_; };
  cfg.idle_backoff_min = kHeartbeatPeriod;
  cfg.idle_backoff_max = kHeartbeatPeriod;
  recovery_preds_->configure(std::move(cfg));
  sst::Predicates::GroupOptions gopts;
  gopts.name = "recovery";
  const auto gid = recovery_preds_->add_group(std::move(gopts));

  // Fires once the group has halted and the restart set has settled: late
  // rejoiners extend the deadline; anyone later still misses the view.
  recovery_preds_->add(
      gid, {"recovery_barrier", sst::PredicateClass::recurrent,
            [this] {
              return stopped_ && !terminated_ && restarting_mask_ != 0 &&
                     engine_.now() - last_restart_at_ >= kRestartSettle;
            },
            [this](sst::TriggerContext&) {
              perform_recovery();
              return true;
            }});
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
    if (restarting_mask_ & bit(id)) continue;
    if (!alive_[id]) continue;
    alive_[id] = 0;
    fabric_.isolate(id);
    if (epoch_cluster_ && epoch_cluster_->is_member(id)) {
      epoch_cluster_->node(id).stop();
    }
    for (auto& slot : stores_[id]) {
      if (slot) slot->note_crash(now);
    }
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

  // Retire the halted epoch's data plane.
  epoch_cluster_->shutdown();
  retired_.push_back(std::move(epoch_cluster_));

  // Compose and install the recovery view.
  View next;
  next.epoch = view_.epoch + 1;
  next.members = members;
  for (net::NodeId id : view_.members) {
    if (!(restarting_mask_ & bit(id))) next.departed.push_back(id);
  }
  view_ = std::move(next);
  for (net::NodeId m : view_.members) {
    alive_[m] = 1;
    tracer_.record(m, trace::Stage::recover, now, 0, trace::kNoSubgroup,
                   trace::kNoSender, -1, view_.epoch);
  }

  // New predicate generation: stale schedulers and pumps with one pending
  // wake-up exit on the mismatch instead of running beside their
  // replacements once stopped_ clears.
  ++pred_gen_;
  for (net::NodeId m : view_.members) {
    MemberState& ms = mstate_[m];
    ms.suspected_mask = 0;
    ms.wedged = false;
    ms.saw_proposal = false;
    ms.hb_due = now;  // the respawned scheduler heartbeats at once
    ms.hb_sent = false;
    for (net::NodeId peer = 0; peer < cfg_.nodes; ++peer) {
      ms.last_hb[peer] = member_sst_[m]->read_i64(peer, f_hb_);
      ms.last_change[peer] = now;
    }
    sst::Sst& sst = *member_sst_[m];
    sst.write_local_i64(f_susp_, 0);
    sst.write_local_i64(f_installed_, view_.epoch);
    sst.write_local_i64(f_restart_, 0);
  }
  for (net::NodeId m : view_.members) {
    retired_preds_.push_back(std::move(member_preds_[m]));
    setup_membership_predicates(m);
  }
  retired_preds_.push_back(std::move(coord_preds_));
  setup_coordinator_predicates();

  // Requeue undelivered messages; pumps are respawned below.
  for (auto& per_node : queues_) {
    for (auto& sq : per_node) {
      sq.pump_running = false;
      for (auto& e : sq.q) e.in_flight = false;
    }
  }

  build_epoch_cluster();
  stopped_ = false;
  restarting_mask_ = 0;
  ++recoveries_;

  for (net::NodeId m : view_.members) {
    engine_.spawn(member_preds_[m]->run());
    for (std::size_t g = 0; g < num_subgroups_; ++g) {
      auto& sq = queues_[m][g];
      if (!sq.q.empty()) {
        sq.pump_running = true;
        engine_.spawn(pump_actor(m, g));
      }
    }
  }
  engine_.spawn(coord_preds_->run());
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
  os << "] suspicions=0x" << std::hex << all_suspicions() << std::dec
     << " install_" << doorbell_state(coord_doorbell_) << "\n";
  for (net::NodeId id = 0; id < cfg_.nodes; ++id) {
    const MemberState& ms = mstate_[id];
    os << "  node" << id << ": alive=" << int(alive_[id])
       << " wedged=" << ms.wedged << " saw_proposal=" << ms.saw_proposal
       << " susp=0x" << std::hex << ms.suspected_mask << std::dec
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
  sst::Sst& sst = *member_sst_[node];
  sst.write_local_i64(f_susp_,
                      static_cast<std::int64_t>(mstate_[node].suspected_mask));
  std::vector<std::size_t> everyone;
  for (std::size_t i = 0; i < cfg_.nodes; ++i) everyone.push_back(i);
  sst.push_field(f_susp_, everyone);
  mstate_[node].doorbell->signal();  // wedge now, not at the next heartbeat
}

void ManagedGroup::shutdown() {
  if (terminated_) return;
  terminated_ = true;
  stopped_ = true;
  if (epoch_cluster_) {
    for (net::NodeId id : view_.members) {
      if (alive_[id] && epoch_cluster_->is_member(id)) {
        epoch_cluster_->node(id).stop();
      }
    }
  }
  // Drain even a halted group: its pump actors and the recovery scheduler
  // are still queued, and they exit on stopped_/terminated_. The engine
  // does not own coroutine frames, so undrained ones would leak.
  engine_.run();
}

}  // namespace spindle::core
