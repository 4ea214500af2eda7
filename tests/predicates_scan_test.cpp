// Parking tests (ctest -L parking): a quiet group that is not drained stays
// in the rotation (and acts on the peer push it waits on as soon as it
// lands), the quiet rule (a group that keeps becoming ready never parks),
// the wake paths (a wake from quiescence, a wake rung mid-round, a claim
// into a group in the rotation), a held push blocks parking and is
// released at its window's end, a parked group costs no evaluation, the
// first message into a parked subgroup, the per-predicate fault-injection
// hook, and the cluster-level wiring (ClusterConfig::park_after ->
// per-subgroup sched counters in stats()).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/group.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/mutex.hpp"
#include "sst/predicates.hpp"
#include "trace/trace.hpp"
#include "workload/experiment.hpp"

namespace spindle::sst {
namespace {

/// One reactive scheduler with a doorbell, so the wake and backoff-kick
/// paths are exercisable, reading its own host-fault table.
struct Harness {
  sim::Engine engine;
  sim::Signal doorbell{engine};
  net::HostFaults faults;
  Predicates preds{engine};
  bool stop = false;

  explicit Harness(sim::Nanos pause = 100) {
    Predicates::SchedulerConfig cfg;
    cfg.stopped = [this] { return stop; };
    cfg.faults = &faults;
    cfg.iteration_pause = [pause] { return pause; };
    cfg.doorbell = &doorbell;
    cfg.idle_backoff_min = 1000;
    cfg.idle_backoff_max = sim::millis(1);
    preds.configure(std::move(cfg));
  }
  void run_for(sim::Nanos t) {
    engine.spawn(preds.run());
    engine.run_to(t);
    stop = true;
    engine.run();
  }
};

Predicates::GroupOptions group(const char* name, sim::Nanos park_after) {
  Predicates::GroupOptions g;
  g.name = name;
  g.park_after = park_after;
  return g;
}

TEST(PredicatesScan, QuietGroupNotDrainedStaysInTheRotation) {
  // A saturating hot group and a never-firing group that is never drained
  // (it waits on a peer's push): long past its park_after it must neither
  // park nor be thinned out. It is evaluated in every round, so whatever
  // it waits on is acted on in the round after it lands.
  constexpr sim::Nanos kPause = 100;
  constexpr sim::Nanos kHotWork = 2000;
  Harness h(kPause);
  const auto hot = h.preds.add_group(group("hot", 0));
  Predicates::GroupOptions opts = group("waiting", sim::micros(20));
  opts.drained = [] { return false; };
  const auto quiet = h.preds.add_group(std::move(opts));
  h.preds.add(hot, {"saturate", nullptr,
                    [](TriggerContext& ctx) {
                      ctx.work += kHotWork;
                      return true;
                    }});
  std::vector<sim::Nanos> quiet_evals;
  h.preds.add(quiet, {"guard",
                      [&] {
                        quiet_evals.push_back(h.engine.now());
                        return false;
                      },
                      [](TriggerContext&) { return true; }});
  h.run_for(sim::millis(5));

  const Predicates::GroupSched& sc = h.preds.group_sched(quiet);
  EXPECT_EQ(sc.parks, 0u) << "a group that is not drained parked";
  EXPECT_FALSE(sc.parked);
  // One service per round: the stop may cut the last round after the hot
  // group's service.
  EXPECT_GE(sc.serviced + 1, h.preds.group_sched(hot).serviced);
  ASSERT_GE(quiet_evals.size(), 1000u);
  sim::Nanos max_gap = 0;
  for (std::size_t i = 1; i < quiet_evals.size(); ++i) {
    max_gap = std::max(max_gap, quiet_evals[i] - quiet_evals[i - 1]);
  }
  EXPECT_LE(max_gap, kHotWork + kPause) << "a round skipped the quiet group";
}

TEST(PredicatesScan, PeriodicGroupNeverDemotesWhileTicking) {
  // A busy peer plus a group that becomes ready every 100us with a 500us
  // park_after, drained between ticks, and no wake at a tick: parked, it
  // would miss every tick (parking is the only way out of the rotation,
  // so here it is what demotion would be). Each tick goes quiet for far
  // more than 8 fast rounds, but never for a whole park_after, so the
  // quiet rule must keep the group in the rotation: every tick fires
  // within one round of becoming ready.
  constexpr sim::Nanos kPause = 100;
  constexpr sim::Nanos kPeerWork = 200;
  constexpr sim::Nanos kRound = kPeerWork + kPause;
  constexpr sim::Nanos kTick = sim::micros(100);
  constexpr int kTicks = 40;
  Harness h(kPause);
  const auto peer = h.preds.add_group(group("peer", sim::micros(500)));
  sim::Nanos ready_at = -1;  // pending tick's readiness time, -1 if none
  Predicates::GroupOptions opts = group("periodic", sim::micros(500));
  opts.drained = [&] { return ready_at < 0; };
  const auto periodic = h.preds.add_group(std::move(opts));
  h.preds.add(peer, {"busy", nullptr,
                     [](TriggerContext& ctx) {
                       ctx.work += kPeerWork;
                       return true;
                     }});
  std::vector<sim::Nanos> lag;
  h.preds.add(periodic, {"tick",
                         [&] { return ready_at >= 0; },
                         [&](TriggerContext&) {
                           lag.push_back(h.engine.now() - ready_at);
                           ready_at = -1;
                           return true;
                         }});
  for (int i = 1; i <= kTicks; ++i) {
    h.engine.schedule_fn(i * kTick, [&] { ready_at = h.engine.now(); });
  }
  std::uint64_t parks_while_ticking = 1;
  h.engine.schedule_fn(kTicks * kTick + kRound, [&] {
    parks_while_ticking = h.preds.group_sched(periodic).parks;
  });
  h.run_for(sim::millis(5));

  EXPECT_EQ(parks_while_ticking, 0u)
      << "a group idle for less than its park_after must not park";
  EXPECT_EQ(h.preds.group_sched(periodic).parks, 1u)
      << "the group did not park once the ticks stopped";
  ASSERT_EQ(lag.size(), static_cast<std::size_t>(kTicks))
      << "ticks were missed";
  for (sim::Nanos l : lag) EXPECT_LE(l, kRound);
}

TEST(PredicatesScan, DoorbellWakePromotesDemotedGroupFromQuiescence) {
  // All-quiet scheduler: the only group, drained, parks once it has been
  // fire-free for its very long park_after (50ms), and the scheduler falls
  // into doorbell backoff. Waking it at T, past the park — wake(), which
  // rings its wake signal and the doorbell, as a local claim does — must
  // return it to the rotation ("promote" it; parked is the only demoted
  // state left) and service it promptly, not after the residual backoff.
  Harness h;
  bool ready = false;
  Predicates::GroupOptions opts = group("lazy", sim::millis(50));
  opts.drained = [&] { return !ready; };
  const auto g = h.preds.add_group(std::move(opts));
  sim::Nanos fired_at = -1;
  h.preds.add(g, {"wake", [&] { return ready; },
                  [&](TriggerContext& ctx) {
                    if (fired_at < 0) fired_at = h.engine.now();
                    ctx.work += 100;
                    return true;
                  }});
  const sim::Nanos kT = sim::millis(55);
  bool parked_at_ring = false;
  h.engine.schedule_fn(kT, [&] {
    parked_at_ring = h.preds.group_sched(g).parked;
    ready = true;
    h.preds.wake(g);
  });
  h.run_for(sim::millis(57));

  ASSERT_TRUE(parked_at_ring);
  ASSERT_GE(fired_at, kT);
  EXPECT_LE(fired_at, kT + sim::micros(5))
      << "a wake from quiescence must unpark and service promptly";
}

TEST(PredicatesScan, WakeRungMidRoundSkipsTheBackoff) {
  // A wake that rings while the loop is mid-round rings the doorbell with
  // no one waiting on it. Before it backs off, the loop must see that the
  // doorbell's ring count moved and start the next round at once, instead
  // of sleeping out a backoff that is 256us deep by then.
  Harness h;
  bool ready = false;
  Predicates::GroupOptions opts = group("parked", sim::micros(20));
  opts.drained = [&] { return !ready; };
  const auto g = h.preds.add_group(std::move(opts));
  sim::Nanos fired_at = -1;
  h.preds.add(g, {"wake", [&] { return ready; },
                  [&](TriggerContext& ctx) {
                    fired_at = h.engine.now();
                    ready = false;
                    ctx.work += 100;
                    return true;
                  }});
  // A full-lap group evaluated every round: its first guard evaluation
  // past 3ms rings the parked group's wake from inside the round, the way
  // a landing does (node doorbell first, then the region's signal).
  const auto ringer = h.preds.add_group(group("ringer", 0));
  sim::Nanos rang_at = -1;
  bool parked_at_ring = false;
  h.preds.add(ringer, {"ring",
                       [&] {
                         if (rang_at < 0 && h.engine.now() >= sim::millis(3)) {
                           rang_at = h.engine.now();
                           parked_at_ring = h.preds.group_sched(g).parked;
                           ready = true;
                           h.doorbell.signal();
                           h.preds.wake_signal(g)->signal();
                         }
                         return false;
                       },
                       [](TriggerContext&) { return true; }});
  h.run_for(sim::millis(5));

  ASSERT_GE(rang_at, sim::millis(3));
  ASSERT_TRUE(parked_at_ring);
  ASSERT_GE(fired_at, rang_at);
  EXPECT_LE(fired_at - rang_at, sim::micros(5))
      << "a wake rung mid-round waited out the idle backoff";
  EXPECT_EQ(h.preds.group_sched(g).parks, 2u) << "parked again afterwards";
}

TEST(PredicatesScan, HeldPushBlocksParkingUntilReleased) {
  // A drained group whose push is held by a lane-drop window must not park:
  // a parked group is never serviced, and only a service releases a held
  // action. It stays in the rotation, and while the action is held the
  // idle backoff ends no later than the window's end, so the push issues
  // within a round of it; only then does the group park.
  constexpr sim::Nanos kUntil = sim::micros(200);
  Harness h;
  Predicates::GroupOptions opts = group("acker", sim::micros(20));
  opts.drained = [] { return true; };
  const auto g = h.preds.add_group(std::move(opts));
  bool armed = true;
  sim::Nanos issued_at = -1;
  std::uint64_t parks_at_issue = 0;
  h.preds.add(g, {"ack", [&] { return armed; },
                  [&](TriggerContext& ctx) {
                    armed = false;
                    ctx.work += 100;
                    ctx.plan.add(1, [&] {
                      issued_at = h.engine.now();
                      parks_at_issue = h.preds.group_sched(g).parks;
                      return sim::Nanos{0};
                    });
                    return true;
                  }});
  h.faults.postplan_drop(1, kUntil);
  h.run_for(sim::millis(1));

  ASSERT_GE(issued_at, kUntil) << "the held push never issued";
  EXPECT_LE(issued_at, kUntil + sim::micros(1))
      << "the release waited out the idle backoff";
  EXPECT_EQ(parks_at_issue, 0u) << "parked while a push was held";
  EXPECT_EQ(h.preds.group_sched(g).parks, 1u) << "never parked after it";
}

TEST(PredicatesFault, InjectedDelayChargesExtraComputeOnFires) {
  Harness h;
  const auto g = h.preds.add_group({});
  int budget = 3;
  const auto slow = h.preds.add(g, {"victim",
                                    [&] { return budget > 0; },
                                    [&](TriggerContext& ctx) {
                                      --budget;
                                      ctx.work += 10;
                                      return true;
                                    }});
  int other_budget = 2;
  const auto fast = h.preds.add(g, {"bystander",
                                    [&] { return other_budget > 0; },
                                    [&](TriggerContext& ctx) {
                                      --other_budget;
                                      ctx.work += 10;
                                      return true;
                                    }});
  h.faults.predicate_delay("victim", sim::millis(1), 500);
  h.run_for(sim::millis(5));
  // Every fire inside the window pays the extra; quiet evals and other
  // predicates do not.
  EXPECT_EQ(h.preds.stats(slow).cpu, 3 * (10 + 500));
  EXPECT_EQ(h.preds.stats(fast).cpu, 2 * 10);
}

TEST(PredicatesFault, ExpiredDelayWindowIsInert) {
  Harness h;
  const auto g = h.preds.add_group({});
  bool armed = false;
  const auto p = h.preds.add(g, {"late",
                                 [&] { return armed; },
                                 [&](TriggerContext& ctx) {
                                   armed = false;
                                   ctx.work += 10;
                                   return true;
                                 }});
  h.faults.predicate_delay("late", sim::micros(10), 5000);
  // Fire only after the window has closed.
  h.engine.schedule_fn(sim::micros(50), [&] {
    armed = true;
    h.doorbell.signal();
  });
  h.run_for(sim::millis(1));
  EXPECT_EQ(h.preds.stats(p).fires, 1u);
  EXPECT_EQ(h.preds.stats(p).cpu, 10);
}

TEST(PredicatesFault, LaneDropOpenedDuringComputeHoldsThatRoundsPosts) {
  // A lane-drop window is judged at the instant the group's service
  // began: one opened while the round sleeps its compute holds that
  // round's posts, even one that closes again before the post phase. The
  // held action issues at the next round's release.
  for (const sim::Nanos until : {sim::Nanos{700}, sim::Nanos{5000}}) {
    Harness h;
    const auto g = h.preds.add_group({});
    bool armed = true;
    sim::Nanos issued_at = -1;
    h.preds.add(g, {"post", [&] { return armed; },
                    [&](TriggerContext& ctx) {
                      armed = false;
                      ctx.work += 1000;
                      ctx.plan.add(2, [&] {
                        issued_at = h.engine.now();
                        return sim::Nanos{0};
                      });
                      return true;
                    }});
    h.engine.schedule_fn(500, [&] { h.faults.postplan_drop(2, until); });
    h.run_for(sim::millis(1));
    EXPECT_GT(issued_at, 1000) << "window until " << until;
    EXPECT_GE(issued_at, until);
  }
}

/// A hot and a cold subgroup over the same four nodes with `park_after`;
/// with `hot_load` every node keeps sending into the hot one until the
/// fixture goes away.
struct HotCold {
  static constexpr std::size_t kNodes = 4;
  core::Cluster cluster;
  core::SubgroupId hot = 0;
  core::SubgroupId cold = 0;
  bool sending = true;

  HotCold(sim::Nanos park_after, bool hot_load, bool traced = false)
      : cluster(config(park_after, traced)) {
    const std::vector<net::NodeId> members{0, 1, 2, 3};
    core::ProtocolOptions opts = core::ProtocolOptions::spindle();
    opts.max_msg_size = 256;
    opts.window_size = 8;
    hot = cluster.create_subgroup({"hot", members, members, opts});
    cold = cluster.create_subgroup({"cold", members, members, opts});
    cluster.start();
    if (!hot_load) return;
    for (net::NodeId m : members) cluster.engine().spawn(send_loop(m));
  }
  ~HotCold() {
    sending = false;
    cluster.shutdown();
  }

  static core::ClusterConfig config(sim::Nanos park_after, bool traced) {
    core::ClusterConfig cc;
    cc.nodes = kNodes;
    cc.seed = 5;
    cc.park_after = park_after;
    cc.trace.enabled = traced;
    return cc;
  }
  sim::Co<> send_loop(net::NodeId m) {
    while (sending && !cluster.node(m).stopped()) {
      co_await cluster.node(m).send(hot, 256, [](std::span<std::byte>) {});
    }
  }
  bool cold_parked_everywhere() const {
    for (net::NodeId m = 0; m < kNodes; ++m) {
      const core::Node& n = cluster.node(m);
      if (!n.predicates()->group_sched(n.find(cold)->sched_group).parked) {
        return false;
      }
    }
    return true;
  }
  std::uint64_t cold_evals() const {
    const metrics::ClusterStats stats = cluster.stats();
    std::uint64_t evals = 0;
    for (const auto& p : stats.subgroup(cold)->predicates) evals += p.evals;
    return evals;
  }
};

TEST(PredicatesScan, ParkedColdSubgroupCostsNoEvaluations) {
  // Once the drained cold subgroup parks at every node, its predicates are
  // never evaluated again while the hot subgroup on the same nodes keeps
  // sending: no doorbell-driven look, no periodic one.
  HotCold hc(sim::micros(100), /*hot_load=*/true);
  hc.cluster.engine().run_to(sim::millis(1));
  ASSERT_TRUE(hc.cold_parked_everywhere());
  const std::uint64_t evals = hc.cold_evals();
  const std::uint64_t hot_before = hc.cluster.total_delivered(hc.hot);
  hc.cluster.engine().run_to(sim::millis(3));
  EXPECT_EQ(hc.cold_evals(), evals) << "a parked group was evaluated";
  EXPECT_GT(hc.cluster.total_delivered(hc.hot), hot_before + 1000)
      << "the hot subgroup stalled";
  const metrics::ClusterStats stats = hc.cluster.stats();
  EXPECT_EQ(stats.subgroup(hc.cold)->sched_parks, HotCold::kNodes)
      << "one park per node, never woken";
}

/// Per-member delay from sending one message into the parked cold
/// subgroup (from node 1) to its delivery there, with a 500us park_after;
/// `wakes`, when given, counts the cold group's wake spans.
std::vector<sim::Nanos> first_message_delays(bool hot_load, bool traced,
                                             std::uint64_t* wakes = nullptr) {
  constexpr sim::Nanos kParkAfter = sim::micros(500);
  std::vector<sim::Nanos> delays(HotCold::kNodes, -1);
  HotCold hc(kParkAfter, hot_load, traced);
  sim::Engine& eng = hc.cluster.engine();
  eng.run_to(sim::millis(2));
  EXPECT_TRUE(hc.cold_parked_everywhere());
  const sim::Nanos sent_at = eng.now();
  for (net::NodeId m = 0; m < HotCold::kNodes; ++m) {
    hc.cluster.node(m).set_delivery_handler(
        hc.cold, [&delays, &eng, sent_at, m](const core::Delivery&) {
          delays[m] = eng.now() - sent_at;
        });
  }
  eng.spawn([](core::Cluster* c, core::SubgroupId sg) -> sim::Co<> {
    co_await c->node(1).send(sg, 64, [](std::span<std::byte>) {});
  }(&hc.cluster, hc.cold));
  eng.run_to(sent_at + kParkAfter);
  if (wakes != nullptr) {
    *wakes = 0;
    for (const trace::Event& e : hc.cluster.tracer().all_events()) {
      *wakes += e.stage == trace::Stage::sched_park && e.arg == 0 &&
                e.subgroup == hc.cold;
    }
  }
  return delays;
}

TEST(PredicatesScan, FirstMessageIntoParkedSubgroupIsDeliveredPromptly) {
  // The first message into a parked subgroup wakes it at the sender (the
  // claim) and at every receiver (the landing in its ring): each member
  // delivers it well inside 500us, under hot load and from quiescence:
  // a parked group gets no other look. Under hot load the bound is the
  // path's round structure: the claim (node 1's own hot sender holds the
  // lock for one 1.56us construct, then the 1.55us cold one), three hops
  // (data, node 0's null, the acks: a post plus the 1.7us wire, ~3.5us
  // each) and four waits for a member's next polling round (node 1's
  // send, the receive, the null's receive and ack, the delivery): three
  // at the 5.6us p90 hot-load cycle and one slipped at the longest,
  // 13.8us (a hiccup): 45us. Measured: 30.1-32.0us. From quiescence
  // 13.6-17.2us: each receiver wakes on the data write, and the trailer
  // lands during that round's pause, a ring the loop reads off the
  // doorbell's count before it backs off (64-68us while such a ring was
  // dropped and one 50us idle backoff was paid).
  for (const bool hot_load : {true, false}) {
    const sim::Nanos bound = sim::micros(45);
    const std::vector<sim::Nanos> delays =
        first_message_delays(hot_load, false);
    std::uint64_t wakes = 0;
    const std::vector<sim::Nanos> traced =
        first_message_delays(hot_load, true, &wakes);
    for (net::NodeId m = 0; m < HotCold::kNodes; ++m) {
      EXPECT_GE(delays[m], 0) << "node " << m << " never delivered";
      EXPECT_LE(delays[m], bound) << "node " << m << ", hot_load " << hot_load;
    }
    EXPECT_EQ(delays, traced) << "wake spans moved the schedule";
    EXPECT_EQ(wakes, HotCold::kNodes) << "one wake per member";
  }
}

TEST(PredicatesScan, ClaimIntoAGroupInTheRotationCutsTheBackoffShort) {
  // On the full lap (park_after 0) a subgroup never parks, so it is always
  // in the rotation. After a quiet millisecond node 0's polling thread
  // backs off idle_backoff_max (50us) at a time. A claim is an input no
  // landing announces; it rings the doorbell, so the send is posted in the
  // round after the sender's construct releases the lock, not when the
  // backoff ends. (No scheduling hiccups: one would deschedule the thread
  // for 8us whatever rang.)
  for (const sim::Nanos at :
       {sim::micros(1003), sim::micros(1017), sim::micros(1029),
        sim::micros(1041)}) {
    core::ClusterConfig cc;
    cc.nodes = 2;
    cc.park_after = 0;
    cc.cpu.hiccup_mean_gap = 0;
    core::Cluster cluster(cc);
    core::ProtocolOptions opts = core::ProtocolOptions::spindle();
    opts.max_msg_size = 256;
    opts.window_size = 8;
    const auto sg = cluster.create_subgroup({"sg", {0, 1}, {0}, opts});
    cluster.start();
    sim::Engine& eng = cluster.engine();
    eng.run_to(at);
    const std::uint64_t before = cluster.fabric().stats(0).writes_posted;
    eng.spawn([](core::Cluster* c, core::SubgroupId id) -> sim::Co<> {
      co_await c->node(0).send(id, 64, [](std::span<std::byte>) {});
    }(&cluster, sg));
    sim::Nanos posted_at = -1;
    while (posted_at < 0 && eng.step_until(at + sim::micros(100))) {
      if (cluster.fabric().stats(0).writes_posted > before) {
        posted_at = eng.now();
      }
    }
    const core::CpuModel& cpu = cluster.cpu();
    const sim::Nanos construct = cpu.send_setup + cpu.construction_cost(64);
    ASSERT_GE(posted_at, at + construct) << "claim at " << at;
    EXPECT_LE(posted_at - at, construct + sim::micros(1)) << "claim at " << at;
    cluster.shutdown();
  }
}

TEST(PredicatesScan, QuietGroupWaitingOnAPeerActsOnTheLanding) {
  // Three members, one sender (node 0), and node 2's egress paused from
  // the start until T: node 1 receives the message at once but cannot
  // deliver it before node 2's acknowledgment lands. Its subgroup is
  // quiet for far longer than park_after, yet not drained, so it stays in
  // the rotation; the landing at T rings node 1's doorbell and the next
  // round delivers. Measured: 1.9us after T at every T below.
  for (const sim::Nanos until :
       {sim::micros(60), sim::micros(97), sim::micros(150), sim::micros(213),
        sim::micros(300), sim::micros(411)}) {
    core::ClusterConfig cc;
    cc.nodes = 3;
    cc.seed = 3;
    core::Cluster cluster(cc);
    core::ProtocolOptions opts = core::ProtocolOptions::spindle();
    opts.max_msg_size = 256;
    opts.window_size = 8;
    const auto sg = cluster.create_subgroup({"sg", {0, 1, 2}, {0}, opts});
    cluster.start();
    sim::Engine& eng = cluster.engine();
    sim::Nanos delivered_at = -1;
    cluster.node(1).set_delivery_handler(
        sg, [&](const core::Delivery&) { delivered_at = eng.now(); });
    cluster.fabric().pause_egress(2);
    eng.schedule_fn(until, [&] { cluster.fabric().resume_egress(2); });
    eng.spawn([](core::Cluster* c, core::SubgroupId id) -> sim::Co<> {
      co_await c->node(0).send(id, 64, [](std::span<std::byte>) {});
    }(&cluster, sg));
    eng.run_to(until + sim::micros(100));
    EXPECT_GE(delivered_at, until) << "delivered before node 2 acknowledged";
    EXPECT_LE(delivered_at - until, sim::micros(6)) << "T = " << until;
    cluster.shutdown();
  }
}

TEST(PredicatesScan, ClusterDeliversIdenticallyAndExportsSchedCounters) {
  // End-to-end wiring: the same workload on the full lap and with the
  // cluster's default park_after must deliver the same messages; with
  // parking the stats() drill-down must expose the per-subgroup scheduler
  // counters (hot subgroup serviced and never parked, cold subgroups
  // parked).
  workload::ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.subgroups = 5;
  cfg.active_subgroups = 1;
  cfg.messages_per_sender = 40;
  cfg.message_size = 256;
  cfg.opts.max_msg_size = 256;
  cfg.opts.window_size = 8;
  cfg.seed = 7;

  cfg.park_after = 0;
  const auto lap = workload::run_experiment(cfg);
  cfg.park_after = core::ClusterConfig{}.park_after;
  const auto park = workload::run_experiment(cfg);

  ASSERT_TRUE(lap.completed);
  ASSERT_TRUE(park.completed);
  EXPECT_EQ(lap.stats.total.messages_delivered,
            park.stats.total.messages_delivered);
  EXPECT_GT(park.stats.total.messages_delivered, 0u);

  const auto* hot = park.stats.subgroup(0);
  ASSERT_NE(hot, nullptr);
  EXPECT_GT(hot->sched_serviced, 0u);
  EXPECT_EQ(hot->sched_parks, 0u);
  std::uint64_t cold_parks = 0;
  for (const auto& s : park.stats.subgroups) {
    if (s.id != 0) cold_parks += s.sched_parks;
  }
  EXPECT_GT(cold_parks, 0u) << "idle subgroups should park";
  // The full lap never parks.
  for (const auto& s : lap.stats.subgroups) {
    EXPECT_GT(s.sched_serviced, 0u);
    EXPECT_EQ(s.sched_parks, 0u);
  }
}

}  // namespace
}  // namespace spindle::sst
