#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "workload/experiment.hpp"

namespace spindle::core {
namespace {

using workload::ExperimentConfig;
using workload::SenderPattern;

/// Runs a small cluster and records the delivery sequence at each node.
struct DeliveryRecorder {
  struct Record {
    std::size_t sender;
    std::int64_t seq;
    std::int64_t sender_index;
    std::uint64_t tag;  // first 8 bytes of payload
  };
  std::map<net::NodeId, std::vector<Record>> per_node;

  DeliveryHandler handler_for(net::NodeId id) {
    return [this, id](const Delivery& d) {
      std::uint64_t tag = 0;
      if (d.data.size() >= sizeof tag) {
        std::memcpy(&tag, d.data.data(), sizeof tag);
      }
      per_node[id].push_back(Record{d.sender, d.seq, d.sender_index, tag});
    };
  }
};

struct SmallRun {
  SmallRun(std::size_t n, std::size_t s, std::size_t m, ProtocolOptions o,
           std::uint64_t sd = 1)
      : nodes(n), senders(s), messages(m), opts(o), seed(sd) {}
  std::size_t nodes;
  std::size_t senders;
  std::size_t messages;
  ProtocolOptions opts;
  std::uint64_t seed;

  DeliveryRecorder rec;
  bool completed = false;

  void run() {
    ClusterConfig cc;
    cc.nodes = nodes;
    cc.seed = seed;
    Cluster cluster(cc);
    std::vector<net::NodeId> members;
    for (std::size_t i = 0; i < nodes; ++i) {
      members.push_back(static_cast<net::NodeId>(i));
    }
    std::vector<net::NodeId> snd(members.begin(),
                                 members.begin() + static_cast<long>(senders));
    const SubgroupId sg =
        cluster.create_subgroup({"test", members, snd, opts});
    cluster.start();
    for (net::NodeId m : members) {
      cluster.node(m).set_delivery_handler(sg, rec.handler_for(m));
    }
    for (std::size_t s = 0; s < senders; ++s) {
      cluster.engine().spawn(
          [](Cluster* c, net::NodeId id, SubgroupId g, std::size_t count,
             std::uint64_t base) -> sim::Co<> {
            for (std::size_t i = 0; i < count; ++i) {
              if (c->node(id).stopped()) co_return;
              const std::uint64_t tag = base + i;
              co_await c->node(id).send(
                  g, 128, [tag](std::span<std::byte> buf) {
                    std::memcpy(buf.data(), &tag, sizeof tag);
                  });
            }
          }(&cluster, snd[s], sg, messages, 1000 * (s + 1)));
    }
    const std::uint64_t expect = senders * messages * nodes;
    completed = cluster.engine().run_until(
        [&] { return cluster.total_delivered(sg) >= expect; },
        sim::seconds(30));
    cluster.shutdown();
  }
};

TEST(Multicast, SingleSenderDeliversEverywhereInOrder) {
  SmallRun r{3, 1, 50, ProtocolOptions::spindle()};
  r.run();
  ASSERT_TRUE(r.completed);
  for (auto& [node, recs] : r.rec.per_node) {
    ASSERT_EQ(recs.size(), 50u) << "node " << node;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].tag, 1000 + i);
      EXPECT_EQ(recs[i].sender, 0u);
    }
  }
}

/// Total order: every member delivers exactly the same sequence.
void expect_identical_sequences(DeliveryRecorder& rec) {
  ASSERT_FALSE(rec.per_node.empty());
  const auto& reference = rec.per_node.begin()->second;
  for (auto& [node, recs] : rec.per_node) {
    ASSERT_EQ(recs.size(), reference.size()) << "node " << node;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].sender, reference[i].sender) << "pos " << i;
      EXPECT_EQ(recs[i].tag, reference[i].tag) << "pos " << i;
      EXPECT_EQ(recs[i].seq, reference[i].seq) << "pos " << i;
    }
  }
}

/// FIFO per sender and round-robin global order (§2.1 / §3.3 ordering).
void expect_round_robin(DeliveryRecorder& rec, std::size_t n_senders) {
  for (auto& [node, recs] : rec.per_node) {
    std::vector<std::int64_t> next_index(n_senders, 0);
    std::int64_t last_seq = -1;
    for (const auto& r : recs) {
      EXPECT_GT(r.seq, last_seq) << "node " << node;
      last_seq = r.seq;
      // seq encodes (round, sender): check consistency.
      EXPECT_EQ(static_cast<std::size_t>(r.seq %
                                         static_cast<std::int64_t>(n_senders)),
                r.sender);
      EXPECT_EQ(r.seq / static_cast<std::int64_t>(n_senders), r.sender_index);
      EXPECT_EQ(r.sender_index, next_index[r.sender]) << "FIFO violation";
      ++next_index[r.sender];
    }
  }
}

TEST(Multicast, TotalOrderAllSendersBaseline) {
  SmallRun r{4, 4, 40, ProtocolOptions::baseline()};
  r.run();
  ASSERT_TRUE(r.completed);
  expect_identical_sequences(r.rec);
  expect_round_robin(r.rec, 4);
}

TEST(Multicast, TotalOrderAllSendersSpindle) {
  SmallRun r{4, 4, 40, ProtocolOptions::spindle()};
  r.run();
  ASSERT_TRUE(r.completed);
  expect_identical_sequences(r.rec);
  expect_round_robin(r.rec, 4);
}

TEST(Multicast, BaselineAndSpindleDeliverSameSequence) {
  SmallRun a{3, 3, 30, ProtocolOptions::baseline(), 7};
  SmallRun b{3, 3, 30, ProtocolOptions::spindle(), 7};
  a.run();
  b.run();
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  // Without nulls both deliver the identical round-robin sequence of tags.
  // (With nulls the application sequence is still identical because nulls
  // are filtered; sender indices may shift.)
  const auto& sa = a.rec.per_node[0];
  const auto& sb = b.rec.per_node[0];
  ASSERT_EQ(sa.size(), sb.size());
  std::multiset<std::uint64_t> ta, tb;
  for (auto& x : sa) ta.insert(x.tag);
  for (auto& x : sb) tb.insert(x.tag);
  EXPECT_EQ(ta, tb);
}

TEST(Multicast, ExperimentHarnessCompletesSmallRun) {
  ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.senders = SenderPattern::all;
  cfg.messages_per_sender = 100;
  cfg.message_size = 1024;
  cfg.opts = ProtocolOptions::spindle();
  auto res = workload::run_experiment(cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.stats.total.messages_delivered, 4u * 4u * 100u);
  EXPECT_GT(res.throughput_gbps, 0.0);
  EXPECT_GT(res.stats.total.rdma_writes_posted, 0u);
  EXPECT_GT(res.median_latency_us, 0.0);
}

TEST(Multicast, StatsReportRingMemory) {
  // A run's ring footprint reads from its stats snapshot, per node and in
  // total: registered (the modelled senders × window × (slot + trailer))
  // and allocated (a node's own slots and their 8-byte send-time words,
  // plus every sender's trailers).
  ExperimentConfig cfg;
  cfg.nodes = 16;
  cfg.messages_per_sender = 5;
  cfg.message_size = 10240;
  cfg.opts.window_size = 100;
  cfg.opts.max_msg_size = 10240;
  const auto res = workload::run_experiment(cfg);
  ASSERT_TRUE(res.completed);
  const std::uint64_t registered = 16 * 100 * (10240 + 16);
  const std::uint64_t allocated = 100 * (10240 + 8) + 16 * 100 * 16;
  for (const auto& n : res.stats.nodes) {
    EXPECT_EQ(n.counters.ring_bytes_registered, registered);
    EXPECT_EQ(n.counters.ring_bytes_allocated, allocated);
  }
  EXPECT_EQ(res.stats.total.ring_bytes_registered, 16 * registered);
  EXPECT_EQ(res.stats.total.ring_bytes_allocated, 16 * allocated);
}

TEST(Multicast, DeterministicForSameSeed) {
  ExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.messages_per_sender = 50;
  cfg.message_size = 512;
  cfg.seed = 42;
  auto a = workload::run_experiment(cfg);
  auto b = workload::run_experiment(cfg);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.stats.total.rdma_writes_posted, b.stats.total.rdma_writes_posted);
  EXPECT_EQ(a.stats.total.nulls_sent, b.stats.total.nulls_sent);
}

TEST(Multicast, SentAtIsTheInstantTheBuilderRan) {
  // Every delivery's sent_at is the virtual time its sender's builder ran,
  // in an atomic, an unordered and a batched-upcall subgroup alike. The
  // builder stamps that time into the payload; every delivery compares.
  ClusterConfig cc;
  cc.nodes = 3;
  Cluster cluster(cc);
  const std::vector<net::NodeId> all{0, 1, 2};
  ProtocolOptions unordered = ProtocolOptions::spindle();
  unordered.mode = DeliveryMode::unordered;
  const SubgroupId atomic = cluster.create_subgroup(
      {"atomic", all, all, ProtocolOptions::spindle()});
  const SubgroupId unord =
      cluster.create_subgroup({"unordered", all, all, unordered});
  const SubgroupId batched = cluster.create_subgroup(
      {"batched", all, all, ProtocolOptions::spindle()});
  cluster.start();
  std::uint64_t checked = 0, mismatched = 0;
  const auto check = [&](const Delivery& d) {
    sim::Nanos built;
    std::memcpy(&built, d.data.data(), sizeof built);
    ++checked;
    if (d.sent_at != built) {
      ADD_FAILURE()
          << "subgroup " << d.subgroup << " sender " << d.sender
          << " message " << d.sender_index << ": sent_at " << d.sent_at
          << ", built at " << built;
      ++mismatched;
    }
  };
  for (net::NodeId m : all) {
    cluster.node(m).set_delivery_handler(atomic, check);
    cluster.node(m).set_delivery_handler(unord, check);
    cluster.node(m).set_batch_delivery_handler(
        batched, [&](std::span<const Delivery> ds) {
          for (const Delivery& d : ds) check(d);
        });
  }
  constexpr int kMessages = 40;
  for (SubgroupId sg : {atomic, unord, batched}) {
    for (net::NodeId s : all) {
      // Senders at different paces, so nulls fill the gaps.
      cluster.engine().spawn(
          [](Cluster* c, net::NodeId id, SubgroupId g,
             sim::Nanos gap) -> sim::Co<> {
            sim::Engine& eng = c->node(id).engine();
            for (int i = 0; i < kMessages; ++i) {
              co_await c->node(id).send(
                  g, 64, [&eng](std::span<std::byte> buf) {
                    const sim::Nanos now = eng.now();
                    std::memcpy(buf.data(), &now, sizeof now);
                  });
              co_await eng.sleep(gap);
            }
          }(&cluster, s, sg, sim::micros(1 + 3 * s)));
    }
  }
  const std::uint64_t expect = 3 * all.size() * all.size() * kMessages;
  ASSERT_TRUE(cluster.engine().run_until([&] { return checked >= expect; },
                                         sim::seconds(1)));
  EXPECT_EQ(checked, expect);
  EXPECT_EQ(mismatched, 0u);
  EXPECT_GT(cluster.stats().total.nulls_sent, 0u);
  cluster.shutdown();
}

/// A 4-node group, every member sending `messages` 1 KB messages, stepped
/// one engine event at a time: per node, the data-plane services that
/// advanced received_num, delivered_num, or both (a service is one event,
/// so both counters move in the same step). Stepping goes on 50 us past the
/// last delivery, so the last service's pushes have issued.
struct CounterRun {
  static constexpr std::size_t kNodes = 4;
  struct Services {
    std::uint64_t received = 0;
    std::uint64_t delivered = 0;
    std::uint64_t both = 0;
  };
  std::vector<Services> services = std::vector<Services>(kNodes);
  metrics::ClusterStats stats;
  sim::Nanos makespan = 0;

  explicit CounterRun(const ProtocolOptions& opts, std::size_t messages = 60) {
    ClusterConfig cc;
    cc.nodes = kNodes;
    cc.seed = 3;
    Cluster cluster(cc);
    const std::vector<net::NodeId> members{0, 1, 2, 3};
    const SubgroupId sg =
        cluster.create_subgroup({"sg", members, members, opts});
    cluster.start();
    for (net::NodeId m : members) {
      cluster.engine().spawn(
          [](Cluster* c, net::NodeId id, SubgroupId g,
             std::size_t count) -> sim::Co<> {
            for (std::size_t i = 0; i < count; ++i) {
              co_await c->node(id).send(g, 1024, [](std::span<std::byte>) {});
            }
          }(&cluster, m, sg, messages));
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> last(kNodes, {-1, -1});
    const auto observe = [&] {
      for (net::NodeId m : members) {
        const SubgroupState& s = *cluster.node(m).find(sg);
        const bool r = s.received_num != last[m].first;
        const bool d = s.delivered_num != last[m].second;
        last[m] = {s.received_num, s.delivered_num};
        services[m].received += r;
        services[m].delivered += d;
        services[m].both += r && d;
      }
    };
    sim::Engine& eng = cluster.engine();
    const std::uint64_t expect = kNodes * kNodes * messages;
    while (cluster.total_delivered(sg) < expect &&
           eng.now() < sim::millis(50)) {
      if (!eng.step()) break;
      observe();
    }
    makespan = eng.now();
    while (eng.step_until(makespan + sim::micros(50))) observe();
    stats = cluster.stats();
    cluster.shutdown();
  }
};

TEST(Multicast, ServiceThatReceivesAndDeliversPostsOneCounterWritePerPeer) {
  // §3.2's batched acknowledgments: received_num and delivered_num are
  // adjacent SST columns, so a service that advanced both pushes them as
  // one write per peer. Each node's counter writes are then 3 peers times
  // its services that advanced either counter; one push per counter would
  // post 3 x (received + delivered).
  const CounterRun run(ProtocolOptions::spindle());
  std::uint64_t total = 0;
  for (net::NodeId m = 0; m < CounterRun::kNodes; ++m) {
    const CounterRun::Services& sv = run.services[m];
    EXPECT_GT(sv.both, 0u) << "node " << m
                           << " never received and delivered in one service";
    const metrics::NodeStats& ns = *run.stats.node(m);
    EXPECT_EQ(ns.counters.counter_writes,
              3 * (sv.received + sv.delivered - sv.both))
        << "node " << m;
    EXPECT_EQ(ns.subgroups.at(0).counter_writes, ns.counters.counter_writes);
    total += ns.counters.counter_writes;
  }
  EXPECT_EQ(run.stats.subgroup(0)->counter_writes, total);
  EXPECT_EQ(run.stats.total.counter_writes, total);
}

TEST(Multicast, UnbatchedAcknowledgmentsKeepTheirWrites) {
  // With receive or delivery batching off, each counter goes out on its own
  // lane as before the two shared a write: every run posts exactly the
  // writes, and ends at exactly the time, it did then (pinned). The third
  // run's makespan was 293850 before a sender waiting for a ring slot
  // resumed at the counter landing that frees it instead of at the next
  // 300ns poll; its writes held, and so did the other two runs. All three
  // moved when the receive and deliver stages stopped charging reads of
  // the node's own trailer row and received_num column: makespans 630896
  // -> 610757, 577807 -> 547529 and 293542 -> 279076; writes 4803 -> 4815
  // (12 more ring writes: the send batches split differently) and 3999 ->
  // 3972 (33 fewer counter writes), 2616 held.
  struct Case {
    bool receive, delivery;
    std::uint64_t writes;
    sim::Nanos makespan;
  };
  for (const Case& c : {Case{false, false, 4815, 610757},
                        Case{true, false, 3972, 547529},
                        Case{false, true, 2616, 279076}}) {
    ProtocolOptions opts = ProtocolOptions::spindle();
    opts.receive_batching = c.receive;
    opts.delivery_batching = c.delivery;
    const CounterRun run(opts);
    EXPECT_EQ(run.stats.total.rdma_writes_posted, c.writes)
        << "receive " << c.receive << ", delivery " << c.delivery;
    EXPECT_EQ(run.makespan, c.makespan)
        << "receive " << c.receive << ", delivery " << c.delivery;
    EXPECT_GT(run.stats.total.counter_writes, 0u);
  }
}

TEST(Multicast, SilentSenderDoesNotStallDelivery) {
  // Correctness property 3 of §3.3: one declared sender never sends; with
  // null-sends the others' messages are still delivered.
  ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.senders = SenderPattern::all;
  cfg.messages_per_sender = 100;
  cfg.message_size = 1024;
  cfg.delayed_senders = 1;
  cfg.delayed_forever = true;
  cfg.opts = ProtocolOptions::spindle();
  auto res = workload::run_experiment(cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(res.stats.total.nulls_sent, 0u);
}

TEST(Multicast, SenderParkedBehindAFullWindowSchedulesNoEvent) {
  // Window 1: node 0's second send needs its first message's slot, which
  // is free once both members delivered it. Node 1 charges 200us to that
  // delivery, so its delivered_num (and the received_num riding with it)
  // lands at node 0 about 200us later. Meanwhile the parked sender
  // schedules nothing: the only events are node 0's polling thread backing
  // off and node 1's one compute sleep (pinned). A sender that re-checked
  // every 300ns added about 333 steps per 100us. The §4.1.1 sender-wait
  // counter still measures the wait's time.
  constexpr sim::Nanos kDeliveryCost = 200'000;
  ClusterConfig cc;
  cc.nodes = 2;
  Cluster cluster(cc);
  ProtocolOptions opts = ProtocolOptions::spindle();
  opts.max_msg_size = 64;
  opts.window_size = 1;
  const SubgroupId sg = cluster.create_subgroup({"full", {0, 1}, {0}, opts});
  cluster.start();
  cluster.node(1).set_delivery_cost_hook(
      sg, [](const Delivery&) { return kDeliveryCost; });
  sim::Engine& eng = cluster.engine();
  sim::Nanos second_claimed = -1;
  eng.spawn([](Cluster* c, SubgroupId g, sim::Nanos* at) -> sim::Co<> {
    for (int i = 0; i < 2; ++i) {
      co_await c->node(0).send(g, 64, [](std::span<std::byte>) {});
    }
    *at = c->engine().now();
  }(&cluster, sg, &second_claimed));

  eng.run_to(sim::micros(50));
  const std::uint64_t before = eng.steps();
  eng.run_to(sim::micros(150));
  EXPECT_EQ(eng.steps() - before, 4u) << "events while the sender waits";
  ASSERT_LT(second_claimed, 0) << "the window freed early";

  ASSERT_TRUE(eng.run_until([&] { return cluster.total_delivered(sg) == 4; },
                            sim::millis(5)));
  EXPECT_GT(second_claimed, kDeliveryCost);
  EXPECT_GE(cluster.node(0).counters().sender_wait, kDeliveryCost);
  cluster.shutdown();
}

TEST(Multicast, QuietServiceChargesOnlyPeerRowsAndColumns) {
  // One quiet service of an n-member, n-sender group: the receive stage
  // probes each peer's trailer row and the deliver stage checks each peer's
  // received_num column. The node's own row holds trailers its own
  // mark_ready wrote, and its own column only ever holds its received_num,
  // so neither costs a read. (A ring this small is hot: scan factor 1.)
  constexpr std::size_t kNodes = 4;
  ClusterConfig cc;
  cc.nodes = kNodes;
  Cluster cluster(cc);
  const std::vector<net::NodeId> members{0, 1, 2, 3};
  const SubgroupId sg = cluster.create_subgroup(
      {"quiet", members, members, ProtocolOptions::spindle()});
  cluster.start();
  ASSERT_EQ(cluster.node(0).find(sg)->scan_cost_factor, 1.0);

  const auto stage = [&](const std::string& name) {
    sst::PredicateStats out;
    cluster.node(0).predicates()->visit(
        [&](const sst::Predicates::GroupOptions& g,
            const sst::PredicateStats& p) {
          if (g.tag == sg && p.name == name) out = p;
        });
    return out;
  };
  sim::Engine& eng = cluster.engine();
  while (stage("receive").evals == 0 && eng.step()) {
  }
  const sst::PredicateStats receive = stage("receive");
  const sst::PredicateStats deliver = stage("deliver");
  ASSERT_EQ(receive.evals, 1u);
  ASSERT_EQ(deliver.evals, 1u);
  EXPECT_EQ(receive.fires + deliver.fires, 0u) << "the service was not quiet";

  const CpuModel& cpu = cluster.cpu();
  const auto peers = static_cast<sim::Nanos>(kNodes - 1);
  EXPECT_EQ(receive.cpu + deliver.cpu,
            2 * cpu.predicate_eval +
                peers * (cpu.per_sender_scan + cpu.per_member_check));
  cluster.shutdown();
}

TEST(Multicast, QuiescenceNoNullsWhenNobodySends) {
  // Quiescence property 4 of §3.3: with no application traffic, no nulls.
  ClusterConfig cc;
  cc.nodes = 3;
  Cluster cluster(cc);
  const SubgroupId sg = cluster.create_subgroup(
      {"quiet", {0, 1, 2}, {0, 1, 2}, ProtocolOptions::spindle()});
  cluster.start();
  cluster.engine().run_to(sim::millis(5));
  const auto totals = cluster.stats().total;
  EXPECT_EQ(totals.nulls_sent, 0u);
  EXPECT_EQ(totals.messages_delivered, 0u);
  (void)sg;
  cluster.shutdown();
}

}  // namespace
}  // namespace spindle::core
