// Persistent atomic multicast (durable Paxos equivalent, paper footnote 2):
// delivered messages flow through a write-behind SSD logger; the global
// persistence frontier (min persisted_num over members) is the durable
// commit point.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/group.hpp"
#include "store/versioned_log.hpp"

namespace spindle::core {
namespace {

struct PersistFixture {
  explicit PersistFixture(std::size_t n, std::uint64_t seed = 1) {
    ClusterConfig cc;
    cc.nodes = n;
    cc.seed = seed;
    cluster = std::make_unique<Cluster>(cc);
    std::vector<net::NodeId> members;
    for (std::size_t i = 0; i < n; ++i) {
      members.push_back(static_cast<net::NodeId>(i));
    }
    ProtocolOptions opts = ProtocolOptions::spindle();
    opts.persistent = true;
    opts.max_msg_size = 256;
    sg = cluster->create_subgroup({"durable", members, members, opts});
    cluster->start();
  }

  std::unique_ptr<Cluster> cluster;
  SubgroupId sg = 0;

  void stream(net::NodeId id, std::size_t count) {
    cluster->engine().spawn(
        [](Cluster* c, net::NodeId node, SubgroupId g,
           std::size_t k) -> sim::Co<> {
          for (std::size_t i = 0; i < k; ++i) {
            if (c->node(node).stopped()) co_return;
            const std::uint64_t tag = node * 1000 + i;
            co_await c->node(node).send(
                g, 64, [tag](std::span<std::byte> buf) {
                  std::memcpy(buf.data(), &tag, sizeof tag);
                });
          }
        }(cluster.get(), id, sg, count));
  }
};

TEST(Persistence, LogsAreIdenticalAndComplete) {
  PersistFixture f(3);
  for (net::NodeId n = 0; n < 3; ++n) f.stream(n, 40);
  ASSERT_TRUE(f.cluster->engine().run_until(
      [&] {
        for (net::NodeId n = 0; n < 3; ++n) {
          if (f.cluster->node(n).persistent_log(f.sg).size() < 120) {
            return false;
          }
        }
        return true;
      },
      sim::seconds(10)));
  const auto& ref = f.cluster->node(0).persistent_log(f.sg);
  ASSERT_EQ(ref.size(), 120u);
  for (net::NodeId n = 1; n < 3; ++n) {
    const auto& log = f.cluster->node(n).persistent_log(f.sg);
    ASSERT_EQ(log.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(log[i], ref[i]) << "log divergence at " << i;
    }
  }
  f.cluster->shutdown();
}

TEST(Persistence, FrontierIsMonotonicTrailsDeliveryAndCompletes) {
  PersistFixture f(3);
  std::vector<std::int64_t> frontiers;
  int violations = 0;
  f.cluster->node(1).set_persistence_handler(
      f.sg, [&](std::int64_t frontier) {
        if (!frontiers.empty() && frontier <= frontiers.back()) ++violations;
        // The global frontier can never exceed this node's delivered_num.
        const SubgroupState* s = f.cluster->node(1).find(f.sg);
        if (frontier > s->delivered_num) ++violations;
        frontiers.push_back(frontier);
      });
  for (net::NodeId n = 0; n < 3; ++n) f.stream(n, 50);
  // Completion: the frontier reaches the last sequence number (149).
  ASSERT_TRUE(f.cluster->engine().run_until(
      [&] { return !frontiers.empty() && frontiers.back() >= 149; },
      sim::seconds(10)));
  EXPECT_EQ(violations, 0);
  f.cluster->shutdown();
}

TEST(Persistence, LocalFrontierCoversTrailingNulls) {
  // One silent sender: nulls fill its rounds. Nulls are not persisted, but
  // the frontier must advance past them.
  ClusterConfig cc;
  cc.nodes = 3;
  Cluster cluster(cc);
  ProtocolOptions opts = ProtocolOptions::spindle();
  opts.persistent = true;
  opts.max_msg_size = 64;
  const SubgroupId sg =
      cluster.create_subgroup({"nully", {0, 1, 2}, {0, 1, 2}, opts});
  cluster.start();
  // Sender 2 silent; 0 and 1 stream.
  for (net::NodeId n = 0; n < 2; ++n) {
    cluster.engine().spawn([](Cluster* c, net::NodeId id,
                              SubgroupId g) -> sim::Co<> {
      for (int i = 0; i < 30; ++i) {
        if (c->node(id).stopped()) co_return;
        co_await c->node(id).send(g, 64, [](std::span<std::byte>) {});
      }
    }(&cluster, n, sg));
  }
  ASSERT_TRUE(cluster.engine().run_until(
      [&] { return cluster.total_delivered(sg) >= 2u * 30 * 3; },
      sim::seconds(10)));
  // Give the loggers time to flush, then check the frontier passed the
  // null-laden sequence range while the log holds only app messages.
  cluster.engine().run_to(cluster.engine().now() + sim::millis(1));
  const auto& log = cluster.node(0).persistent_log(sg);
  EXPECT_EQ(log.size(), 60u);
  EXPECT_GE(cluster.node(0).persisted_frontier(sg), 88);  // ~90 seqs total
  cluster.shutdown();
}

TEST(Persistence, ProviderOwnedStoresAnnounceConsistentVersionVectors) {
  // Wire caller-owned versioned logs in through the store provider (the
  // ManagedGroup arrangement that keeps logs alive across restarts) and
  // check the durable bookkeeping the recovery protocol reads: once the
  // write-behind loggers drain, every record is committed, the version
  // vector matches the log, and the store's payloads equal what
  // persistent_log() serves.
  ClusterConfig cc;
  cc.nodes = 3;
  Cluster cluster(cc);
  std::vector<std::unique_ptr<store::VersionedLog>> logs;
  for (int i = 0; i < 3; ++i) {
    logs.push_back(std::make_unique<store::VersionedLog>());
  }
  // A provider hands out opened logs (epoch 0: a standalone cluster has
  // no views), as ManagedGroup's opens each log for the current epoch.
  cluster.set_store_provider([&logs](net::NodeId n, SubgroupId) {
    logs[n]->open_epoch(0);
    return logs[n].get();
  });
  ProtocolOptions opts = ProtocolOptions::spindle();
  opts.persistent = true;
  opts.max_msg_size = 64;
  const SubgroupId sg =
      cluster.create_subgroup({"vv", {0, 1, 2}, {0, 1, 2}, opts});
  cluster.start();
  for (net::NodeId n = 0; n < 3; ++n) {
    cluster.engine().spawn([](Cluster* c, net::NodeId id,
                              SubgroupId g) -> sim::Co<> {
      for (int i = 0; i < 40; ++i) {
        if (c->node(id).stopped()) co_return;
        co_await c->node(id).send(g, 64, [](std::span<std::byte>) {});
      }
    }(&cluster, n, sg));
  }
  ASSERT_TRUE(cluster.engine().run_until(
      [&] {
        for (const auto& log : logs) {
          if (log->committed_size() < 120 || log->flush_in_flight()) {
            return false;
          }
        }
        return true;
      },
      sim::seconds(10)));
  for (net::NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(logs[n]->size(), 120u);
    EXPECT_EQ(logs[n]->committed_size(), 120u);
    const auto vv = logs[n]->version_vector();
    ASSERT_EQ(vv.size(), 1u);
    EXPECT_EQ(vv[0].second, 120u);
    EXPECT_EQ(cluster.node(n).persistent_log(sg), logs[n]->payloads())
        << "persistent_log must serve the provider-owned store's records";
  }
  cluster.shutdown();
}

TEST(Persistence, RequiresAtomicMode) {
  ClusterConfig cc;
  cc.nodes = 2;
  Cluster cluster(cc);
  ProtocolOptions opts;
  opts.persistent = true;
  opts.mode = DeliveryMode::unordered;
  EXPECT_THROW(cluster.create_subgroup({"bad", {0, 1}, {0}, opts}),
               std::invalid_argument);
}

TEST(Persistence, WriteBehindBeatsSynchronousAppend) {
  // The write-behind logger keeps the delivery path fast: compare against
  // charging the SSD append synchronously in the upcall (the conservative
  // DDS logged-storage model).
  auto run = [](bool write_behind) {
    ClusterConfig cc;
    cc.nodes = 4;
    Cluster cluster(cc);
    ProtocolOptions opts = ProtocolOptions::spindle();
    opts.max_msg_size = 10240;
    opts.persistent = write_behind;
    const SubgroupId sg =
        cluster.create_subgroup({"p", {0, 1, 2, 3}, {0, 1, 2, 3}, opts});
    cluster.start();
    if (!write_behind) {
      const CpuModel& cpu = cluster.cpu();
      for (net::NodeId n = 0; n < 4; ++n) {
        cluster.node(n).set_delivery_cost_hook(
            sg, [&cpu](const Delivery& d) {
              return cpu.ssd_op_latency + cpu.ssd_append_cost(d.data.size());
            });
      }
    }
    for (net::NodeId n = 0; n < 4; ++n) {
      cluster.engine().spawn([](Cluster* c, net::NodeId id,
                                SubgroupId g) -> sim::Co<> {
        for (int i = 0; i < 100; ++i) {
          if (c->node(id).stopped()) co_return;
          co_await c->node(id).send(g, 10240, [](std::span<std::byte>) {});
        }
      }(&cluster, n, sg));
    }
    EXPECT_TRUE(cluster.engine().run_until(
        [&] { return cluster.total_delivered(sg) >= 4u * 100 * 4; },
        sim::seconds(30)));
    const sim::Nanos makespan = cluster.engine().now();
    cluster.shutdown();
    return makespan;
  };
  const sim::Nanos behind = run(true);
  const sim::Nanos sync = run(false);
  EXPECT_LT(behind, sync)
      << "write-behind persistence should beat synchronous appends";
}

}  // namespace
}  // namespace spindle::core
