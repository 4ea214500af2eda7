// Edge cases of the core protocol: degenerate group shapes, extreme
// parameters, API misuse, wedging, and mixed-option subgroups.

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "core/group.hpp"
#include "core/view.hpp"

namespace spindle::core {
namespace {

sim::Co<> burst_sender(Cluster* c, net::NodeId id, SubgroupId sg,
                       std::uint32_t len, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (c->node(id).stopped()) co_return;
    co_await c->node(id).send(sg, len, [i](std::span<std::byte> buf) {
      if (buf.size() >= sizeof i) std::memcpy(buf.data(), &i, sizeof i);
    });
  }
}

TEST(CoreEdge, SingleMemberSubgroupDeliversToItself) {
  ClusterConfig cc;
  cc.nodes = 1;
  Cluster cluster(cc);
  const SubgroupId sg =
      cluster.create_subgroup({"solo", {0}, {0}, ProtocolOptions::spindle()});
  cluster.start();
  std::size_t got = 0;
  cluster.node(0).set_delivery_handler(sg,
                                       [&](const Delivery&) { ++got; });
  cluster.engine().spawn(burst_sender(&cluster, 0, sg, 128, 30));
  ASSERT_TRUE(cluster.engine().run_until([&] { return got >= 30; },
                                         sim::seconds(5)));
  cluster.shutdown();
}

TEST(CoreEdge, PureReceiversGetEverything) {
  ClusterConfig cc;
  cc.nodes = 4;
  Cluster cluster(cc);
  // Only node 0 sends; 1..3 are pure receivers.
  const SubgroupId sg = cluster.create_subgroup(
      {"oneway", {0, 1, 2, 3}, {0}, ProtocolOptions::spindle()});
  cluster.start();
  std::size_t got3 = 0;
  cluster.node(3).set_delivery_handler(sg, [&](const Delivery& d) {
    EXPECT_EQ(d.sender, 0u);
    ++got3;
  });
  cluster.engine().spawn(burst_sender(&cluster, 0, sg, 512, 40));
  ASSERT_TRUE(cluster.engine().run_until([&] { return got3 >= 40; },
                                         sim::seconds(5)));
  cluster.shutdown();
}

TEST(CoreEdge, ZeroLengthApplicationMessagesAreDelivered) {
  // A zero-length *application* message is legal and distinct from a null
  // (nulls carry the null flag and are filtered).
  ClusterConfig cc;
  cc.nodes = 2;
  Cluster cluster(cc);
  const SubgroupId sg = cluster.create_subgroup(
      {"empty", {0, 1}, {0}, ProtocolOptions::spindle()});
  cluster.start();
  std::size_t got = 0;
  cluster.node(1).set_delivery_handler(sg, [&](const Delivery& d) {
    EXPECT_EQ(d.data.size(), 0u);
    ++got;
  });
  cluster.engine().spawn(burst_sender(&cluster, 0, sg, 0, 10));
  ASSERT_TRUE(cluster.engine().run_until([&] { return got >= 10; },
                                         sim::seconds(5)));
  cluster.shutdown();
}

TEST(CoreEdge, MaxSizeMessagesFillTheSlotExactly) {
  ClusterConfig cc;
  cc.nodes = 2;
  Cluster cluster(cc);
  ProtocolOptions opts = ProtocolOptions::spindle();
  opts.max_msg_size = 4096;
  const SubgroupId sg =
      cluster.create_subgroup({"full", {0, 1}, {0}, opts});
  cluster.start();
  std::size_t got = 0;
  cluster.node(1).set_delivery_handler(sg, [&](const Delivery& d) {
    EXPECT_EQ(d.data.size(), 4096u);
    EXPECT_EQ(d.data[4095], std::byte{0xAB});
    ++got;
  });
  cluster.engine().spawn([](Cluster* c, SubgroupId g) -> sim::Co<> {
    for (int i = 0; i < 12; ++i) {
      co_await c->node(0).send(g, 4096, [](std::span<std::byte> buf) {
        buf[4095] = std::byte{0xAB};
      });
    }
  }(&cluster, sg));
  ASSERT_TRUE(cluster.engine().run_until([&] { return got >= 12; },
                                         sim::seconds(5)));
  cluster.shutdown();
}

TEST(CoreEdge, SubgroupsWithDifferentOptionsCoexist) {
  ClusterConfig cc;
  cc.nodes = 3;
  Cluster cluster(cc);
  ProtocolOptions fast = ProtocolOptions::spindle();
  ProtocolOptions slow = ProtocolOptions::baseline();
  slow.window_size = 4;
  slow.max_msg_size = 64;
  const SubgroupId a =
      cluster.create_subgroup({"fast", {0, 1, 2}, {0, 1, 2}, fast});
  const SubgroupId b =
      cluster.create_subgroup({"slow", {0, 1, 2}, {2}, slow});
  cluster.start();
  for (net::NodeId n = 0; n < 3; ++n) {
    cluster.engine().spawn(burst_sender(&cluster, n, a, 256, 30));
  }
  cluster.engine().spawn(burst_sender(&cluster, 2, b, 64, 30));
  ASSERT_TRUE(cluster.engine().run_until(
      [&] {
        return cluster.total_delivered(a) >= 3u * 30 * 3 &&
               cluster.total_delivered(b) >= 30u * 3;
      },
      sim::seconds(10)));
  cluster.shutdown();
}

TEST(CoreEdge, WedgeBlocksNewSendsUntilUnwedged) {
  ClusterConfig cc;
  cc.nodes = 2;
  Cluster cluster(cc);
  const SubgroupId sg = cluster.create_subgroup(
      {"wedge", {0, 1}, {0}, ProtocolOptions::spindle()});
  cluster.start();
  std::size_t got = 0;
  cluster.node(1).set_delivery_handler(sg, [&](const Delivery&) { ++got; });

  cluster.node(0).wedge_all();
  cluster.engine().spawn(burst_sender(&cluster, 0, sg, 64, 5));
  cluster.engine().run_to(sim::millis(1));
  EXPECT_EQ(got, 0u) << "wedged subgroup must not send";

  // No protocol path unwedges in place (a wedged epoch ends when its node
  // stops), so nothing else rings the signal the parked sender waits on.
  cluster.node(0).find(sg)->wedged = false;
  cluster.node(0).wait_signal().signal();
  ASSERT_TRUE(cluster.engine().run_until([&] { return got >= 5; },
                                         sim::seconds(5)));
  cluster.shutdown();
}

TEST(CoreEdge, CreateSubgroupValidatesArguments) {
  ClusterConfig cc;
  cc.nodes = 3;
  Cluster cluster(cc);
  ProtocolOptions opts;
  EXPECT_THROW(cluster.create_subgroup({"x", {}, {}, opts}),
               std::invalid_argument);  // empty
  EXPECT_THROW(cluster.create_subgroup({"x", {0, 1}, {}, opts}),
               std::invalid_argument);  // no senders
  EXPECT_THROW(cluster.create_subgroup({"x", {0, 1}, {2}, opts}),
               std::invalid_argument);  // sender not a member
  EXPECT_THROW(cluster.create_subgroup({"x", {0, 7}, {0}, opts}),
               std::invalid_argument);  // member out of range
  EXPECT_THROW(cluster.create_subgroup({"x", {0, 0}, {0}, opts}),
               std::invalid_argument);  // duplicate member
  ProtocolOptions bad;
  bad.window_size = 0;
  EXPECT_THROW(cluster.create_subgroup({"x", {0, 1}, {0}, bad}),
               std::invalid_argument);
  cluster.create_subgroup({"ok", {0, 1}, {0}, opts});
  cluster.start();
  EXPECT_THROW(cluster.create_subgroup({"late", {0, 1}, {0}, opts}),
               std::logic_error);
  EXPECT_THROW(cluster.start(), std::logic_error);
  cluster.shutdown();
}

TEST(CoreEdge, StartConsolidatesSetupAndRefusesLateMutation) {
  ClusterConfig cc;
  cc.nodes = 3;
  Cluster cluster(cc);
  ProtocolOptions opts;
  cluster.create_subgroup({"ok", {0, 1}, {0}, opts});
  // Every pre-start mutator is validated against the same gate: after
  // start() both fail with errors that say what to do instead.
  cluster.start();
  try {
    cluster.create_subgroup({"late", {0, 1}, {0}, opts});
    FAIL() << "create_subgroup after start() must throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("late"), std::string::npos) << what;
    EXPECT_NE(what.find("before start()"), std::string::npos) << what;
  }
  EXPECT_THROW(
      cluster.set_store_provider([](net::NodeId, SubgroupId) {
        return static_cast<store::VersionedLog*>(nullptr);
      }),
      std::logic_error);
}

TEST(CoreEdge, StartNamesTheNodeWhenAStoreProviderReturnsNull) {
  ClusterConfig cc;
  cc.nodes = 2;
  Cluster cluster(cc);
  ProtocolOptions opts;
  opts.persistent = true;
  cluster.create_subgroup({"durable", {0, 1}, {0}, opts});
  cluster.set_store_provider([](net::NodeId, SubgroupId) {
    return static_cast<store::VersionedLog*>(nullptr);
  });
  EXPECT_THROW(cluster.start(), std::runtime_error);
}

TEST(CoreEdge, CrashedNodeStopsDeliveringButOthersContinueReceiving) {
  // Without the membership service, a crash freezes *stability* (delivery
  // needs everyone's acks) but reception continues — exactly the situation
  // the view-change protocol (core/view.hpp) resolves.
  ClusterConfig cc;
  cc.nodes = 3;
  Cluster cluster(cc);
  const SubgroupId sg = cluster.create_subgroup(
      {"crashy", {0, 1, 2}, {0, 1, 2}, ProtocolOptions::spindle()});
  cluster.start();
  std::size_t delivered0 = 0;
  cluster.node(0).set_delivery_handler(sg,
                                       [&](const Delivery&) { ++delivered0; });
  cluster.engine().spawn(burst_sender(&cluster, 0, sg, 128, 200));
  cluster.engine().run_until([&] { return delivered0 >= 30; },
                             sim::seconds(5));
  cluster.crash(2);
  const std::size_t at_crash = delivered0;
  cluster.engine().run_to(cluster.engine().now() + sim::millis(2));
  // Delivery stalls within a window of the crash point (no more acks from
  // node 2 ever arrive).
  EXPECT_LE(delivered0, at_crash + 100);
  cluster.shutdown();
}

TEST(CoreEdge, CrashRejectsAnOutOfRangeNode) {
  ClusterConfig cc;
  cc.nodes = 3;
  Cluster cluster(cc);
  cluster.create_subgroup({"g", {0, 1, 2}, {0}, ProtocolOptions::spindle()});
  cluster.start();
  EXPECT_THROW(cluster.crash(3), std::out_of_range);
  EXPECT_THROW(cluster.crash(1000), std::out_of_range);
  for (net::NodeId id = 0; id < 3; ++id) {
    EXPECT_FALSE(cluster.fabric().is_isolated(id));
    EXPECT_FALSE(cluster.node(id).stopped());
  }
  cluster.shutdown();
}

TEST(CoreEdge, CrashRejectsANonMemberOfAnEpochCluster) {
  // An epoch cluster spans a subset of the shared fabric's nodes; the
  // others have no Node, so crashing one must throw rather than touch it
  // (and must not isolate it on the shared fabric either).
  sim::Engine engine;
  net::Fabric fabric(engine, net::TimingModel{}, 4);
  ClusterConfig cc;
  cc.nodes = 4;
  Cluster cluster(engine, fabric, cc, {0, 2, 3});
  cluster.create_subgroup({"g", {0, 2, 3}, {0}, ProtocolOptions::spindle()});
  cluster.start();
  EXPECT_THROW(cluster.crash(1), std::out_of_range);
  EXPECT_THROW(cluster.crash(4), std::out_of_range);
  EXPECT_FALSE(fabric.is_isolated(1));
  cluster.crash(2);  // a member still crashes normally
  EXPECT_TRUE(fabric.is_isolated(2));
  EXPECT_TRUE(cluster.node(2).stopped());
  cluster.shutdown();
  engine.run();  // the cluster does not own the engine: drain it here
}

TEST(CoreEdge, ManagedGroupRejectsOutOfRangeIds) {
  // Every ManagedGroup entry point that indexes per-node or per-subgroup
  // state checks its id in every build: one past the end throws and
  // changes nothing.
  ManagedGroup::Config gc;
  gc.nodes = 4;
  ManagedGroup group(gc, [](const View& v) {
    SubgroupConfig sc;
    sc.name = "g";
    sc.members = v.members;
    sc.senders = v.members;
    sc.opts = ProtocolOptions::spindle();
    return std::vector<SubgroupConfig>{sc};
  });
  group.start();
  const net::NodeId node = 4;
  const std::size_t sg = 1;
  EXPECT_THROW(group.send(node, 0, {}), std::out_of_range);
  EXPECT_THROW(group.send(0, sg, {}), std::out_of_range);
  EXPECT_THROW(group.set_delivery_handler(node, 0, {}), std::out_of_range);
  EXPECT_THROW(group.set_delivery_handler(0, sg, {}), std::out_of_range);
  EXPECT_THROW(group.persistent_log(node, 0), std::out_of_range);
  EXPECT_THROW(group.persistent_log(0, sg), std::out_of_range);
  EXPECT_THROW(group.durable_store(node, 0), std::out_of_range);
  EXPECT_THROW(group.durable_store(0, sg), std::out_of_range);
  EXPECT_THROW(group.is_alive(node), std::out_of_range);
  EXPECT_THROW(group.crash(node), std::out_of_range);
  EXPECT_THROW(group.leave(node), std::out_of_range);
  EXPECT_THROW(group.restart(node), std::out_of_range);
  EXPECT_THROW(group.faults(node), std::out_of_range);

  // The group is untouched: every member is alive, and a message still
  // reaches all four in the first view.
  std::size_t delivered = 0;
  for (net::NodeId n = 0; n < 4; ++n) {
    EXPECT_TRUE(group.is_alive(n));
    group.set_delivery_handler(n, 0, [&](const Delivery&) { ++delivered; });
  }
  group.send(0, 0, std::vector<std::byte>(64));
  ASSERT_TRUE(group.engine().run_until([&] { return delivered == 4; },
                                       sim::millis(10)));
  EXPECT_EQ(group.epoch(), 0u);
  group.shutdown();
}

TEST(CoreEdge, BatchedUpcallSeesAllMessagesInOrder) {
  ClusterConfig cc;
  cc.nodes = 3;
  Cluster cluster(cc);
  const SubgroupId sg = cluster.create_subgroup(
      {"batch", {0, 1, 2}, {0, 1, 2}, ProtocolOptions::spindle()});
  cluster.start();
  std::vector<std::int64_t> seqs;
  std::size_t batches = 0;
  cluster.node(1).set_batch_delivery_handler(
      sg, [&](std::span<const Delivery> batch) {
        ++batches;
        EXPECT_FALSE(batch.empty());
        for (const Delivery& d : batch) seqs.push_back(d.seq);
      });
  for (net::NodeId n = 0; n < 3; ++n) {
    cluster.engine().spawn(burst_sender(&cluster, n, sg, 128, 40));
  }
  ASSERT_TRUE(cluster.engine().run_until(
      [&] { return seqs.size() >= 3 * 40; }, sim::seconds(5)));
  // Contiguous total order across batches, fewer upcalls than messages.
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], seqs[i - 1] + 1);
  }
  EXPECT_LT(batches, seqs.size());
  cluster.shutdown();
}

TEST(CoreEdge, BatchedUpcallAmortizesSlowApplications) {
  // With a 2us per-upcall application cost, the batched upcall pays it per
  // batch instead of per message and sustains much higher throughput.
  auto run = [](bool batched) {
    ClusterConfig cc;
    cc.nodes = 4;
    Cluster cluster(cc);
    ProtocolOptions opts = ProtocolOptions::spindle();
    opts.extra_upcall_delay = sim::micros(2);
    const SubgroupId sg =
        cluster.create_subgroup({"slowapp", {0, 1, 2, 3}, {0, 1, 2, 3}, opts});
    cluster.start();
    if (batched) {
      for (net::NodeId n = 0; n < 4; ++n) {
        cluster.node(n).set_batch_delivery_handler(
            sg, [](std::span<const Delivery>) {});
      }
    }
    for (net::NodeId n = 0; n < 4; ++n) {
      cluster.engine().spawn(burst_sender(&cluster, n, sg, 1024, 100));
    }
    EXPECT_TRUE(cluster.engine().run_until(
        [&] { return cluster.total_delivered(sg) >= 4u * 100 * 4; },
        sim::seconds(30)));
    const sim::Nanos makespan = cluster.engine().now();
    cluster.shutdown();
    return makespan;
  };
  const sim::Nanos per_message = run(false);
  const sim::Nanos batched = run(true);
  EXPECT_LT(batched * 2, per_message)
      << "batched upcalls should at least halve the makespan";
}

TEST(CoreEdge, DeclaredInactivityUnblocksTheRound) {
  // §3.3 extension: a sender that announces silence lets the others'
  // messages deliver without it, via pre-claimed nulls.
  ClusterConfig cc;
  cc.nodes = 3;
  Cluster cluster(cc);
  ProtocolOptions opts = ProtocolOptions::spindle();
  opts.null_sends = false;  // isolate the declared-inactivity path
  const SubgroupId sg =
      cluster.create_subgroup({"declare", {0, 1, 2}, {0, 1, 2}, opts});
  cluster.start();
  std::size_t got = 0;
  cluster.node(0).set_delivery_handler(sg, [&](const Delivery&) { ++got; });

  // Sender 2 is silent. Without nulls or a declaration, deliveries stall
  // after the first round boundary.
  cluster.engine().spawn(burst_sender(&cluster, 0, sg, 64, 20));
  cluster.engine().spawn(burst_sender(&cluster, 1, sg, 64, 20));
  cluster.engine().run_to(sim::millis(1));
  EXPECT_LT(got, 5u) << "round-robin should stall behind the silent sender";

  // Node 2 declares 20 rounds of silence: everything flows.
  const std::int64_t declared = cluster.node(2).declare_inactive(sg, 20);
  EXPECT_EQ(declared, 20);
  ASSERT_TRUE(cluster.engine().run_until([&] { return got >= 40; },
                                         sim::seconds(5)));
  // The declared nulls were never upcalled.
  EXPECT_EQ(got, 40u);
  cluster.shutdown();
}

TEST(CoreEdge, SeqOfEncodesRoundRobinOrder) {
  SubgroupState s;
  s.cfg.senders = {0, 1, 2};
  // M(i1,k1) < M(i2,k2) iff k1<k2 or (k1==k2 and i1<i2)  (§3.3).
  EXPECT_LT(s.seq_of(2, 0), s.seq_of(0, 1));
  EXPECT_LT(s.seq_of(0, 1), s.seq_of(1, 1));
  EXPECT_EQ(s.seq_of(0, 0), 0);
  EXPECT_EQ(s.seq_of(2, 1), 5);
}

}  // namespace
}  // namespace spindle::core
