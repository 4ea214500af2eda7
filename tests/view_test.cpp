#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "core/view.hpp"

namespace spindle::core {
namespace {

std::vector<std::byte> payload_of(std::uint64_t tag) {
  std::vector<std::byte> p(64);
  std::memcpy(p.data(), &tag, sizeof tag);
  return p;
}

std::uint64_t tag_of(std::span<const std::byte> data) {
  std::uint64_t t = 0;
  std::memcpy(&t, data.data(), sizeof t);
  return t;
}

/// A managed group over N nodes with one all-member subgroup, recording
/// per-node delivery sequences across views.
struct ManagedFixture {
  explicit ManagedFixture(std::size_t n, std::uint64_t seed = 1,
                          bool trace = false) {
    ManagedGroup::Config cfg;
    cfg.nodes = n;
    cfg.seed = seed;
    cfg.trace.enabled = trace;
    group = std::make_unique<ManagedGroup>(cfg, [](const View& v) {
      SubgroupConfig sc;
      sc.name = "main";
      sc.members = v.members;
      sc.senders = v.members;
      sc.opts = ProtocolOptions::spindle();
      sc.opts.max_msg_size = 64;
      sc.opts.window_size = 16;
      return std::vector<SubgroupConfig>{sc};
    });
    group->start();
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<net::NodeId>(i);
      group->set_delivery_handler(id, 0, [this, id](const Delivery& d) {
        delivered[id].push_back(tag_of(d.data));
      });
    }
  }

  std::unique_ptr<ManagedGroup> group;
  std::map<net::NodeId, std::vector<std::uint64_t>> delivered;

  bool run_until_all_delivered(const std::vector<net::NodeId>& nodes,
                               std::size_t count, sim::Nanos deadline) {
    return group->engine().run_until(
        [&] {
          for (net::NodeId n : nodes) {
            if (delivered[n].size() < count) return false;
          }
          return true;
        },
        deadline);
  }
};

TEST(ManagedGroup, StableViewDeliversNormally) {
  ManagedFixture f(4);
  for (net::NodeId n = 0; n < 4; ++n) {
    for (std::uint64_t i = 0; i < 20; ++i) {
      f.group->send(n, 0, payload_of(n * 100 + i));
    }
  }
  ASSERT_TRUE(f.run_until_all_delivered({0, 1, 2, 3}, 80, sim::millis(50)));
  EXPECT_EQ(f.group->epoch(), 0u);
  // Identical total order at every node.
  for (net::NodeId n = 1; n < 4; ++n) {
    EXPECT_EQ(f.delivered[n], f.delivered[0]);
  }
}

TEST(ManagedGroup, CrashTriggersViewChangeAndSurvivorsAgree) {
  ManagedFixture f(4);
  // Traffic from everyone, then node 3 crashes mid-stream.
  for (net::NodeId n = 0; n < 4; ++n) {
    for (std::uint64_t i = 0; i < 30; ++i) {
      f.group->send(n, 0, payload_of(n * 1000 + i));
    }
  }
  f.group->engine().run_to(sim::micros(150));
  f.group->crash(3);

  // Survivors finish: all messages from 0,1,2 (30 each) are delivered.
  const bool done = f.group->engine().run_until(
      [&] {
        if (f.group->view_change_in_progress()) return false;
        if (f.group->epoch() < 1) return false;
        for (net::NodeId n : {0, 1, 2}) {
          std::size_t mine = 0;
          for (auto t : f.delivered[n]) {
            if (t < 3000) ++mine;
          }
          if (mine < 90) return false;
        }
        return true;
      },
      sim::millis(100));
  ASSERT_TRUE(done);
  EXPECT_GE(f.group->epoch(), 1u);
  EXPECT_EQ(f.group->view().members.size(), 3u);

  // Virtual synchrony: all survivors delivered the identical sequence.
  EXPECT_EQ(f.delivered[1], f.delivered[0]);
  EXPECT_EQ(f.delivered[2], f.delivered[0]);

  // No duplicates, no losses from surviving senders.
  std::multiset<std::uint64_t> seen(f.delivered[0].begin(),
                                    f.delivered[0].end());
  for (net::NodeId n : {0, 1, 2}) {
    for (std::uint64_t i = 0; i < 30; ++i) {
      EXPECT_EQ(seen.count(n * 1000 + i), 1u)
          << "message " << n * 1000 + i << " lost or duplicated";
    }
  }
}

TEST(ManagedGroup, MessagesFromCrashedSenderAreAllOrNothingPrefix) {
  ManagedFixture f(3);
  for (std::uint64_t i = 0; i < 50; ++i) {
    f.group->send(2, 0, payload_of(2000 + i));
  }
  f.group->engine().run_to(sim::micros(100));
  f.group->crash(2);
  f.group->engine().run_until(
      [&] { return f.group->epoch() >= 1 && !f.group->view_change_in_progress(); },
      sim::millis(100));
  // Let the survivors settle.
  f.group->engine().run_to(f.group->engine().now() + sim::millis(1));

  ASSERT_GE(f.group->epoch(), 1u);
  EXPECT_EQ(f.delivered[0], f.delivered[1]);
  // The crashed sender's messages form a FIFO prefix: if 2000+i was
  // delivered, so was every 2000+j for j < i.
  std::vector<std::uint64_t> from2;
  for (auto t : f.delivered[0]) {
    if (t >= 2000) from2.push_back(t);
  }
  for (std::size_t i = 0; i < from2.size(); ++i) {
    EXPECT_EQ(from2[i], 2000 + i);
  }
}

TEST(ManagedGroup, SequentialFailuresShrinkView) {
  ManagedFixture f(5);
  f.group->engine().run_to(sim::micros(50));
  f.group->crash(4);
  ASSERT_TRUE(f.group->engine().run_until(
      [&] { return f.group->epoch() == 1 && !f.group->view_change_in_progress(); },
      sim::millis(100)));
  EXPECT_EQ(f.group->view().members.size(), 4u);

  f.group->crash(3);
  ASSERT_TRUE(f.group->engine().run_until(
      [&] { return f.group->epoch() == 2 && !f.group->view_change_in_progress(); },
      sim::millis(100)));
  EXPECT_EQ(f.group->view().members.size(), 3u);

  // The shrunken view still delivers new traffic.
  for (net::NodeId n = 0; n < 3; ++n) {
    f.group->send(n, 0, payload_of(n * 10));
  }
  ASSERT_TRUE(f.run_until_all_delivered({0, 1, 2}, 3, sim::millis(100)));
}

TEST(ManagedGroup, LeaderCrashElectsNextLeader) {
  // Node 0 is the initial leader; crashing it forces node 1 to lead the
  // view change.
  ManagedFixture f(4);
  for (net::NodeId n = 1; n < 4; ++n) {
    for (std::uint64_t i = 0; i < 10; ++i) {
      f.group->send(n, 0, payload_of(n * 100 + i));
    }
  }
  f.group->engine().run_to(sim::micros(80));
  f.group->crash(0);
  const bool done = f.group->engine().run_until(
      [&] {
        return f.group->epoch() >= 1 && !f.group->view_change_in_progress();
      },
      sim::millis(100));
  ASSERT_TRUE(done);
  EXPECT_EQ(f.group->view().members.front(), 1u);
  EXPECT_EQ(f.delivered[1], f.delivered[2]);
  EXPECT_EQ(f.delivered[2], f.delivered[3]);
}

TEST(ManagedGroup, GracefulLeaveLosesNoMessages) {
  ManagedFixture f(4);
  for (net::NodeId n = 0; n < 4; ++n) {
    for (std::uint64_t i = 0; i < 15; ++i) {
      f.group->send(n, 0, payload_of(n * 100 + i));
    }
  }
  // All messages are queued before the leave announcement; survivors must
  // deliver all of them (leaver's included: it wedges cleanly).
  f.group->engine().run_to(sim::micros(50));
  f.group->leave(3);
  const bool done = f.group->engine().run_until(
      [&] {
        if (f.group->epoch() < 1 || f.group->view_change_in_progress()) {
          return false;
        }
        // 0,1,2's messages all delivered at survivors.
        for (net::NodeId n : {0, 1, 2}) {
          std::size_t cnt = 0;
          for (auto t : f.delivered[n]) {
            if (t < 300) ++cnt;
          }
          if (cnt < 45) return false;
        }
        return true;
      },
      sim::millis(200));
  ASSERT_TRUE(done);
  EXPECT_EQ(f.group->view().members.size(), 3u);
  EXPECT_EQ(f.delivered[0], f.delivered[1]);
  EXPECT_EQ(f.delivered[1], f.delivered[2]);
}

TEST(ManagedGroup, LeaveDuringAViewChangeDepartsByTheNextEpoch) {
  // Node 1 announces its leave while node 3's removal is being installed.
  // When the leader's proposal covers it, node 1 departs in that install.
  // When the install runs first, the peers' copies of node 1's row (or of
  // a row that adopted its bit) still name it, and it departs in the next
  // epoch. A slow 0 -> 1 link makes node 1 the last to see the proposal.
  // When node 1 announces after posting its acknowledgment, the ack lands
  // at the leader first (per-link FIFO) and can complete the install; the
  // sweep of announcement instants covers that window.
  const sim::Nanos crash_at = sim::micros(50);
  const auto run_to_crash = [crash_at](ManagedGroup& g) {
    g.fabric().set_link_fault(0, 1, 4.0, 0);
    g.engine().run_to(crash_at);
    g.crash(3);
  };
  sim::Nanos wedge_at = 0;
  sim::Nanos install_at = 0;
  {
    ManagedFixture probe(4);
    ManagedGroup& g = *probe.group;
    run_to_crash(g);
    ASSERT_TRUE(g.engine().run_until(
        [&] {
          if (wedge_at == 0 && g.view_change_in_progress()) {
            wedge_at = g.engine().now();
          }
          return g.epoch() == 1;
        },
        sim::millis(5)));
    install_at = g.engine().now();
  }
  std::size_t next_epoch = 0;
  for (sim::Nanos t = wedge_at; t < install_at; t += 100) {
    ManagedFixture f(4);
    ManagedGroup& g = *f.group;
    run_to_crash(g);
    g.engine().run_to(t);
    ASSERT_TRUE(g.view_change_in_progress() && g.epoch() == 0) << t;
    g.leave(1);
    const View& v = g.view();
    ASSERT_TRUE(g.engine().run_until(
        [&] {
          return !g.view_change_in_progress() &&
                 std::find(v.members.begin(), v.members.end(), 1) ==
                     v.members.end();
        },
        t + sim::millis(5)))
        << "leave at " << t << " ns: " << g.engine().diagnostics();
    EXPECT_EQ(v.members, (std::vector<net::NodeId>{0, 2})) << t;
    EXPECT_LE(g.epoch(), 2u) << t;
    if (g.epoch() == 2) ++next_epoch;
  }
  EXPECT_GT(next_epoch, 0u);  // some announcements missed the proposal
}

TEST(ManagedGroup, FollowerCrashInstallsOnePushChainAfterTheTimeout) {
  // The membership plane is event-driven: suspicion fires at the failure
  // timeout, and wedge -> trim -> acknowledgment -> install each cost a
  // push, not a wait for the next heartbeat round. The heartbeat rate is
  // unchanged by the extra wake-ups: one push per period.
  constexpr sim::Nanos kPeriod = sim::micros(20);  // kHeartbeatPeriod
  constexpr sim::Nanos kSlack = sim::micros(4);    // jitter + post cost
  ManagedFixture f(4);
  sim::Engine& eng = f.group->engine();
  for (net::NodeId n = 0; n < 4; ++n) {
    for (std::uint64_t i = 0; i < 400; ++i) {
      eng.schedule_fn(static_cast<sim::Nanos>(i) * sim::micros(5), [&f, n, i] {
        f.group->send(n, 0, payload_of(n * 1000 + i));
      });
    }
  }
  const sim::Nanos crash_at = sim::micros(1003);
  eng.run_to(crash_at);
  for (net::NodeId n = 0; n < 4; ++n) {
    EXPECT_LE(f.group->heartbeats(n), crash_at / kPeriod + 1) << "node " << n;
    EXPECT_GE(f.group->heartbeats(n), crash_at / (kPeriod + kSlack))
        << "node " << n;
  }
  f.group->crash(2);
  ASSERT_TRUE(eng.run_until([&] { return f.group->epoch() >= 1; },
                            crash_at + sim::millis(5)))
      << eng.diagnostics();
  const sim::Nanos took = eng.now() - crash_at;
  const sim::Nanos timeout = f.group->config().failure_timeout;
  // The victim's last heartbeat left at most one period before the crash.
  EXPECT_GE(took, timeout - kPeriod - kSlack);
  EXPECT_LE(took, timeout + sim::micros(20));
  EXPECT_EQ(f.group->view().members, (std::vector<net::NodeId>{0, 1, 3}));
}

TEST(ManagedGroup, InstallWaitsForTheSlowestAcknowledgment) {
  // Each survivor acknowledges the leader's proposal by pushing its own
  // row, and the leader installs once its copy shows every ack: the install
  // follows the trim by an ack's trip back to the leader. Slowing one
  // survivor's link to the leader (2 -> 0) delays that survivor's ack, and
  // with it the install.
  const auto trim_to_install = [](bool slow_ack) {
    ManagedFixture f(4, /*seed=*/1, /*trace=*/true);
    ManagedGroup& g = *f.group;
    if (slow_ack) g.fabric().set_link_fault(2, 0, 4.0, 0);
    g.engine().run_to(sim::micros(50));
    g.crash(3);
    EXPECT_TRUE(g.engine().run_until([&] { return g.epoch() == 1; },
                                     sim::millis(5)))
        << g.engine().diagnostics();
    sim::Nanos trim = -1;
    sim::Nanos install = -1;
    for (const trace::Event& e : g.tracer().all_events()) {
      if (e.stage == trace::Stage::view_trim && e.arg == 1) trim = e.t;
      if (e.stage == trace::Stage::view_install && e.arg == 1) install = e.t;
    }
    EXPECT_GE(trim, 0);
    EXPECT_GE(install, trim);
    return install - trim;
  };
  EXPECT_GT(trim_to_install(true), trim_to_install(false));
}

/// The first instant of `stage` at `node` for epoch `arg` in `g`'s trace
/// (-1 when absent).
sim::Nanos traced_at(const ManagedGroup& g, trace::Stage stage,
                     net::NodeId node, std::uint64_t arg) {
  for (const trace::Event& e : g.tracer().all_events()) {
    if (e.stage == stage && e.node == node && e.arg == arg) return e.t;
  }
  return -1;
}

/// A 4-node traced group whose links into the leader (1 -> 0, 2 -> 0) are
/// 40x slow, with node 3 crashed at 50 us: node 0 publishes its proposal
/// well after the survivors wedge, and the survivors' acknowledgments take
/// tens of microseconds to reach it.
std::unique_ptr<ManagedFixture> slow_leader_view_change() {
  auto f = std::make_unique<ManagedFixture>(4, /*seed=*/1, /*trace=*/true);
  ManagedGroup& g = *f->group;
  g.fabric().set_link_fault(1, 0, 40.0, 0);
  g.fabric().set_link_fault(2, 0, 40.0, 0);
  g.engine().run_to(sim::micros(50));
  g.crash(3);
  return f;
}

/// When node 0 publishes the proposal of slow_leader_view_change().
sim::Nanos slow_leader_proposal_at() {
  auto f = slow_leader_view_change();
  ManagedGroup& g = *f->group;
  EXPECT_TRUE(g.engine().run_until([&] { return g.epoch() == 1; },
                                   sim::millis(5)))
      << g.engine().diagnostics();
  return traced_at(g, trace::Stage::view_trim, 0, 1);
}

TEST(ManagedGroup, InstallAdoptsAPeerRowSuspicionAtOnce) {
  // Node 1 leaves after acknowledging the proposal that removes node 3.
  // Its suspicion reaches node 2 at once but reaches the leader only after
  // the install, so the install keeps node 1, while node 2's copy of node
  // 1's row still names it. The install rings every survivor's membership
  // doorbell, so node 2 adopts the suspicion and wedges for the next epoch
  // at the install instant, not at the next push that lands there.
  const sim::Nanos proposed = slow_leader_proposal_at();
  ASSERT_GT(proposed, 0);
  auto f = slow_leader_view_change();
  ManagedGroup& g = *f->group;
  g.engine().run_to(proposed + sim::micros(10));
  ASSERT_EQ(g.epoch(), 0u);
  g.leave(1);
  ASSERT_TRUE(g.engine().run_until([&] { return g.epoch() == 2; },
                                   sim::millis(5)))
      << g.engine().diagnostics();
  const sim::Nanos installed = traced_at(g, trace::Stage::view_install, 0, 1);
  ASSERT_GT(installed, proposed);
  EXPECT_EQ(traced_at(g, trace::Stage::view_wedge, 2, 2), installed);
  EXPECT_EQ(g.view().members, (std::vector<net::NodeId>{0, 2}));
}

TEST(ManagedGroup, NextLeaderInstallsWithTheAcksOfTheCrashedLeader) {
  // The leader crashes after every survivor acknowledged its proposal, but
  // before the acknowledgments reach it. An ack names the epoch, not the
  // proposal: the next leader's copy already shows every survivor's, so it
  // installs one view without both nodes in the round that publishes its
  // re-proposal, with no new ack.
  const sim::Nanos proposed = slow_leader_proposal_at();
  ASSERT_GT(proposed, 0);
  auto f = slow_leader_view_change();
  ManagedGroup& g = *f->group;
  g.engine().run_to(proposed + sim::micros(10));
  ASSERT_EQ(g.epoch(), 0u);
  g.crash(0);
  ASSERT_TRUE(g.engine().run_until([&] { return g.epoch() == 1; },
                                   sim::millis(5)))
      << g.engine().diagnostics();
  EXPECT_EQ(g.view().members, (std::vector<net::NodeId>{1, 2}));
  const sim::Nanos reproposed = traced_at(g, trace::Stage::view_trim, 1, 1);
  ASSERT_GT(reproposed, proposed);
  EXPECT_EQ(traced_at(g, trace::Stage::view_install, 1, 1), reproposed);
  g.engine().run_to(reproposed + sim::millis(2));
  EXPECT_EQ(g.epoch(), 1u);
}

TEST(ManagedGroup, TotalFailureHaltsAtTheLastCrash) {
  // Total failure is known where it happens: the crash of the view's last
  // live member halts the group at that instant. The crashes land 10 us
  // apart, off the 20 us heartbeat grid, long before any suspicion.
  ManagedFixture f(4);
  ManagedGroup& g = *f.group;
  const sim::Nanos first = sim::micros(103);
  const sim::Nanos last = first + sim::micros(30);
  bool halted_early = false;
  for (net::NodeId n = 0; n < 4; ++n) {
    g.engine().schedule_fn(first + sim::micros(10) * n, [&g, &halted_early, n] {
      halted_early |= g.halted();
      g.crash(n);
    });
  }
  ASSERT_TRUE(g.engine().run_until([&] { return g.halted(); },
                                   sim::millis(5)));
  EXPECT_FALSE(halted_early);
  EXPECT_EQ(g.engine().now(), last);
  EXPECT_EQ(g.epoch(), 0u);
}

TEST(ManagedGroup, IdleMembershipPlaneCostIsPinned) {
  // An idle group runs only its membership plane: one heartbeat per member
  // per period, and the rounds the landing pushes wake. The simulator's
  // event count for it is pinned, and the watchdog dump shows every member
  // parked on its membership doorbell, with its idle data-plane subgroup
  // parked too. A membership push rings only the membership SST's landing
  // signal, so no node's data doorbell rings.
  //
  // Re-pinned when the leader began to install from its own SST copy and
  // membership pushes stopped ringing the data doorbell (153/2410/9231
  // before; heartbeats unchanged). At 1 node, where no push lands, the 51
  // steps were the central install barrier's: its spawn and its 20us
  // backoff wakes. At 4 and 8 nodes each heartbeat landing also rang the
  // data doorbell (540 rings in 1ms at 4 nodes, 2464 at 8), and a ring
  // that ended the polling thread's backoff ran an empty round of two
  // events with every data-plane group parked.
  struct Case {
    std::size_t nodes;
    std::uint64_t steps;
    std::int64_t heartbeats;
  };
  for (const Case c : {Case{1, 102, 48}, Case{4, 1569, 45},
                       Case{8, 5549, 44}}) {
    ManagedFixture f(c.nodes, /*seed=*/3);
    sim::Engine& eng = f.group->engine();
    eng.run_to(sim::millis(1));
    EXPECT_EQ(eng.steps(), c.steps) << c.nodes << " nodes";
    EXPECT_EQ(f.group->heartbeats(0), c.heartbeats) << c.nodes << " nodes";
    for (net::NodeId n = 0; n < c.nodes; ++n) {
      EXPECT_EQ(f.group->fabric().doorbell(n).signals(), 0u)
          << "node " << n << " of " << c.nodes;
    }

    const std::string dump = eng.diagnostics();
    const std::regex parked(
        R"(node(\d+):.* membership_doorbell\{signals=\d+,waiters=1\})");
    std::set<std::size_t> members;
    for (auto it = std::sregex_iterator(dump.begin(), dump.end(), parked);
         it != std::sregex_iterator(); ++it) {
      members.insert(std::stoul((*it)[1]));
    }
    EXPECT_EQ(members.size(), c.nodes) << dump;

    const std::regex parked_sg(R"(node(\d+):.* sg0\{[^}]* parked\})");
    std::set<std::size_t> parked_members;
    for (auto it = std::sregex_iterator(dump.begin(), dump.end(), parked_sg);
         it != std::sregex_iterator(); ++it) {
      parked_members.insert(std::stoul((*it)[1]));
    }
    EXPECT_EQ(parked_members.size(), c.nodes) << dump;
  }
}

TEST(ManagedGroup, DrainedQueuesScheduleNoPumpEvent) {
  // A send queue's pump runs only while the queue holds a message it can
  // send, so once every queue has drained the group's idle millisecond is
  // its membership plane and its parked data plane alone: pinned here, and
  // within a few steps of a group that never sent (the traffic shifted a
  // few membership pushes). A pump that idled on a 20 us timer woke 50
  // times per idle ms for each (node, subgroup) that ever sent: 200 more
  // steps here. 1542 before a service that receives and delivers pushed
  // both counters as one write: the traffic now ends at 51.8 us instead of
  // 58.1 us, and five step instants in the window's first 22 us moved
  // (three more, two fewer; 45 heartbeats per node either way), which
  // matched the 1544 of a group that never sent. 1542 since a claim rings
  // the polling thread's doorbell and a ring that lands mid-round skips the
  // backoff: the traffic ends at 56.7 us instead of 51.8 us, and the idle
  // millisecond holds two steps fewer (a group that never sent: 1544).
  // 1543 since the receive and deliver stages stopped charging reads of
  // the node's own trailer row and received_num column: the traffic ends
  // at 51.3 us instead of 56.7 us, and the idle millisecond holds one step
  // more (a group that never sent: 1544 either way).
  const auto idle_ms_steps = [](bool send) {
    ManagedFixture f(4, /*seed=*/3);
    if (send) {
      for (net::NodeId n = 0; n < 4; ++n) {
        for (std::uint64_t i = 0; i < 10; ++i) {
          f.group->send(n, 0, payload_of(n * 100 + i));
        }
      }
      EXPECT_TRUE(f.run_until_all_delivered({0, 1, 2, 3}, 40,
                                            sim::millis(1)));
    }
    sim::Engine& eng = f.group->engine();
    eng.run_to(sim::millis(2));
    const std::uint64_t before = eng.steps();
    eng.run_to(sim::millis(3));
    return eng.steps() - before;
  };
  const std::uint64_t drained = idle_ms_steps(true);
  EXPECT_EQ(drained, 1543u);
  EXPECT_NEAR(static_cast<double>(drained),
              static_cast<double>(idle_ms_steps(false)), 10.0);
}

TEST(ManagedGroup, NoSpuriousViewChangeWithoutFailures) {
  ManagedFixture f(4);
  for (net::NodeId n = 0; n < 4; ++n) {
    for (std::uint64_t i = 0; i < 50; ++i) {
      f.group->send(n, 0, payload_of(n * 100 + i));
    }
  }
  ASSERT_TRUE(f.run_until_all_delivered({0, 1, 2, 3}, 200, sim::millis(200)));
  EXPECT_EQ(f.group->epoch(), 0u);
  EXPECT_FALSE(f.group->view_change_in_progress());
}

}  // namespace
}  // namespace spindle::core
