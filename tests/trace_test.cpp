// Tier-1 tests for the spindle::trace pipeline tracing layer: determinism
// of the Chrome/Perfetto export, agreement between trace-derived batch
// statistics and the hand-maintained counter histograms, the disabled path
// recording nothing, and the observability config validation.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/view.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "workload/experiment.hpp"
#include "workload/sharded.hpp"

namespace spindle {
namespace {

workload::ExperimentConfig traced_config() {
  workload::ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.senders = workload::SenderPattern::all;
  cfg.messages_per_sender = 60;
  cfg.message_size = 1024;
  cfg.opts = core::ProtocolOptions::spindle();
  cfg.seed = 7;
  cfg.trace.enabled = true;
  cfg.trace.ring_capacity = 1 << 16;  // ample: no wrap on this run
  return cfg;
}

/// FNV-1a over what a run observably did: makespan, the merged counters
/// and delivery-latency histogram, and every subgroup's scheduler counters.
std::uint64_t run_digest(const workload::ExperimentResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const metrics::ProtocolCounters& c = r.stats.total;
  mix(static_cast<std::uint64_t>(r.makespan));
  mix(c.messages_delivered);
  mix(c.rdma_writes_posted);
  mix(static_cast<std::uint64_t>(c.predicate_cpu));
  for (const auto& b : c.delivery_latency_ns.buckets()) {
    mix(b.low);
    mix(b.count);
  }
  for (const auto& sg : r.stats.subgroups) {
    mix(sg.sched_serviced);
    mix(sg.sched_demotions);
    mix(sg.sched_parks);
  }
  return h;
}

TEST(Trace, DisabledTracingRecordsNothing) {
  workload::ExperimentConfig cfg = traced_config();
  cfg.trace.enabled = false;
  std::uint64_t recorded = 1;
  cfg.trace_sink = [&](const trace::Tracer& tr) {
    recorded = tr.total_recorded();
    EXPECT_FALSE(tr.enabled());
  };
  const auto res = workload::run_experiment(cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.trace_events, 0u);
  EXPECT_EQ(recorded, 0u);
}

TEST(Trace, SameSeedExportsByteIdenticalJson) {
  auto run = [] {
    workload::ExperimentConfig cfg = traced_config();
    std::string json;
    cfg.trace_sink = [&](const trace::Tracer& tr) {
      json = trace::to_chrome_json(tr);
    };
    const auto res = workload::run_experiment(cfg);
    EXPECT_TRUE(res.completed);
    return json;
  };
  const std::string a = run();
  const std::string b = run();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Trace, EnablingTracingDoesNotPerturbVirtualTime) {
  workload::ExperimentConfig off = traced_config();
  off.trace.enabled = false;
  workload::ExperimentConfig on = traced_config();
  const auto r_off = workload::run_experiment(off);
  const auto r_on = workload::run_experiment(on);
  ASSERT_TRUE(r_off.completed);
  ASSERT_TRUE(r_on.completed);
  EXPECT_EQ(r_off.makespan, r_on.makespan);
  EXPECT_EQ(r_off.stats.total.rdma_writes_posted,
            r_on.stats.total.rdma_writes_posted);
  EXPECT_GT(r_on.trace_events, 0u);

  // run_sharded honours the inherited ClusterConfig::trace the same way
  // (the delivery digest covers every upcall's virtual time).
  workload::ShardedConfig sh;
  sh.nodes = 4;
  sh.messages_per_sender = 40;
  sh.cross_fraction = 0.2;
  const auto s_off = workload::run_sharded(sh);
  sh.trace.enabled = true;
  const auto s_on = workload::run_sharded(sh);
  ASSERT_TRUE(s_on.completed);
  EXPECT_EQ(s_off.delivery_digest, s_on.delivery_digest);
  EXPECT_EQ(s_off.trace_events, 0u);
  EXPECT_GT(s_on.trace_events, 0u);

  // One hot plus four cold subgroups on the default scan lane: the cold
  // groups demote drained and park (and are never woken: nothing is sent
  // to them), and the traced run's park spans must not move the schedule.
  // PredicatesScan.FirstMessageIntoParkedSubgroup covers wake spans.
  workload::ExperimentConfig hc = traced_config();
  hc.subgroups = 5;
  hc.scan_interval = core::ClusterConfig{}.scan_interval;
  hc.trace.enabled = false;
  const auto hc_off = workload::run_experiment(hc);
  hc.trace.enabled = true;
  std::uint64_t parks = 0, wakes = 0;
  hc.trace_sink = [&](const trace::Tracer& tr) {
    for (const trace::Event& e : tr.all_events()) {
      if (e.stage != trace::Stage::sched_park) continue;
      (e.arg == 1 ? parks : wakes) += 1;
    }
  };
  const auto hc_on = workload::run_experiment(hc);
  ASSERT_TRUE(hc_off.completed);
  ASSERT_TRUE(hc_on.completed);
  EXPECT_GT(parks, 0u) << "no park spans recorded";
  EXPECT_LE(wakes, parks) << "a wake span without a park";
  std::uint64_t sched_parks = 0;
  for (const auto& sg : hc_on.stats.subgroups) sched_parks += sg.sched_parks;
  EXPECT_EQ(parks, sched_parks) << "one park span per counted park";
  EXPECT_EQ(hc_off.makespan, hc_on.makespan);
  EXPECT_EQ(run_digest(hc_off), run_digest(hc_on));
}

TEST(Trace, BatchStatsAgreeWithCounterHistograms) {
  workload::ExperimentConfig cfg = traced_config();
  trace::BatchStats bs;
  std::uint64_t dropped = 0;
  cfg.trace_sink = [&](const trace::Tracer& tr) {
    bs = trace::batch_stats(tr);
    for (std::uint32_t n = 0; n < tr.nodes(); ++n) dropped += tr.dropped(n);
  };
  const auto res = workload::run_experiment(cfg);
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(dropped, 0u) << "ring wrapped; grow ring_capacity for this test";

  const metrics::ProtocolCounters& t = res.stats.total;
  EXPECT_EQ(bs.send.count(), t.send_batches.count());
  EXPECT_EQ(bs.send.min(), t.send_batches.min());
  EXPECT_EQ(bs.send.max(), t.send_batches.max());
  EXPECT_DOUBLE_EQ(bs.send.mean(), t.send_batches.mean());
  EXPECT_EQ(bs.receive.count(), t.receive_batches.count());
  EXPECT_EQ(bs.receive.min(), t.receive_batches.min());
  EXPECT_EQ(bs.receive.max(), t.receive_batches.max());
  EXPECT_DOUBLE_EQ(bs.receive.mean(), t.receive_batches.mean());
  EXPECT_EQ(bs.delivery.count(), t.delivery_batches.count());
  EXPECT_EQ(bs.delivery.min(), t.delivery_batches.min());
  EXPECT_EQ(bs.delivery.max(), t.delivery_batches.max());
  EXPECT_DOUBLE_EQ(bs.delivery.mean(), t.delivery_batches.mean());
}

TEST(Trace, LifecycleCoversEveryDeliveredMessage) {
  workload::ExperimentConfig cfg = traced_config();
  trace::LifecycleReport life;
  cfg.trace_sink = [&](const trace::Tracer& tr) {
    life = trace::lifecycle(tr);
  };
  const auto res = workload::run_experiment(cfg);
  ASSERT_TRUE(res.completed);
  // 4 senders x 60 messages, each delivered at 4 nodes.
  EXPECT_EQ(life.messages, 4u * 60u);
  EXPECT_EQ(life.construct_to_deliver_ns.count(), res.expected_deliveries);
  EXPECT_GT(life.construct_to_receive_ns.mean(), 0.0);
  EXPECT_GE(life.construct_to_deliver_ns.min(),
            life.construct_to_receive_ns.min());
  EXPECT_FALSE(trace::format(life).empty());
}

TEST(Trace, ExportHasPerNodeProcessesAndStageTracks) {
  workload::ExperimentConfig cfg = traced_config();
  std::string json;
  cfg.trace_sink = [&](const trace::Tracer& tr) {
    json = trace::to_chrome_json(tr);
  };
  ASSERT_TRUE(workload::run_experiment(cfg).completed);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* name : {"node 0", "node 3"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  // Distinct send / receive / delivery stage tracks (acceptance criterion).
  for (const char* stage :
       {"send_batch", "receive", "deliver", "construct", "rdma_post"}) {
    EXPECT_NE(json.find(std::string("\"") + stage + "\""), std::string::npos)
        << stage;
  }
}

TEST(Trace, RingWrapKeepsNewestAndCountsDropped) {
  trace::Tracer tr(trace::TraceConfig{true, 4}, 1);
  for (int i = 0; i < 10; ++i) {
    tr.record(0, trace::Stage::receive, 100 * i, 0, 0, 0, i);
  }
  EXPECT_EQ(tr.total_recorded(), 10u);
  EXPECT_EQ(tr.dropped(0), 6u);
  const auto evs = tr.events(0);
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().msg_index, 6);
  EXPECT_EQ(evs.back().msg_index, 9);
}

TEST(Trace, ViewChangeEventsLandInSharedStream) {
  core::ManagedGroup::Config cfg;
  cfg.nodes = 4;
  cfg.seed = 3;
  cfg.trace.enabled = true;
  core::ManagedGroup group(cfg, [](const core::View& v) {
    core::SubgroupConfig sc;
    sc.name = "main";
    sc.members = v.members;
    sc.senders = v.members;
    sc.opts = core::ProtocolOptions::spindle();
    sc.opts.max_msg_size = 64;
    sc.opts.window_size = 16;
    return std::vector<core::SubgroupConfig>{sc};
  });
  group.start();
  std::vector<std::byte> payload(64);
  for (int i = 0; i < 10; ++i) group.send(0, 0, payload);
  group.engine().run_to(sim::millis(1));
  group.crash(3);
  ASSERT_TRUE(group.engine().run_until(
      [&] { return group.epoch() == 1; }, sim::millis(50)));

  bool wedge = false, trim = false, install = false, data = false;
  for (const trace::Event& e : group.tracer().all_events()) {
    wedge |= e.stage == trace::Stage::view_wedge;
    trim |= e.stage == trace::Stage::view_trim;
    install |= e.stage == trace::Stage::view_install && e.arg == 1;
    data |= e.stage == trace::Stage::deliver;
  }
  EXPECT_TRUE(wedge);
  EXPECT_TRUE(trim);
  EXPECT_TRUE(install);
  EXPECT_TRUE(data);
}

TEST(TraceConfigValidation, RejectsBadConfigs) {
  core::ClusterConfig cc;
  cc.nodes = 0;
  EXPECT_THROW(cc.validate(), std::invalid_argument);
  cc.nodes = 2;
  cc.trace.enabled = true;
  cc.trace.ring_capacity = 0;
  EXPECT_THROW(cc.validate(), std::invalid_argument);
  cc.trace.ring_capacity = 16;
  EXPECT_NO_THROW(cc.validate());
}

TEST(SubgroupValidation, DescriptiveErrorsOnPublicBoundary) {
  core::ClusterConfig cc;
  cc.nodes = 3;
  core::Cluster cluster(cc);
  const auto opts = core::ProtocolOptions::spindle();

  auto expect_error = [&](core::SubgroupConfig sc, const char* needle) {
    try {
      cluster.create_subgroup(std::move(sc));
      FAIL() << "expected invalid_argument containing: " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  expect_error({"s", {}, {}, opts}, "member list is empty");
  expect_error({"s", {0, 1, 1}, {0}, opts}, "duplicates");
  expect_error({"s", {0, 7}, {0}, opts}, "not a member of the cluster");
  expect_error({"s", {0, 1}, {}, opts}, "sender list is empty");
  expect_error({"s", {0, 1}, {2}, opts}, "not a subgroup member");
  auto bad_window = opts;
  bad_window.window_size = 0;
  expect_error({"s", {0, 1}, {0}, bad_window}, "window_size");
  auto bad_persist = opts;
  bad_persist.persistent = true;
  bad_persist.mode = core::DeliveryMode::unordered;
  expect_error({"s", {0, 1}, {0}, bad_persist}, "persistent");

  EXPECT_THROW(cluster.node(5), std::out_of_range);
}

}  // namespace
}  // namespace spindle
