#include <gtest/gtest.h>

#include <cstdlib>

#include "workload/client_swarm.hpp"
#include "workload/experiment.hpp"
#include "workload/sharded.hpp"
#include "workload/table.hpp"

namespace spindle::workload {
namespace {

TEST(Workload, SenderCountPatterns) {
  EXPECT_EQ(sender_count(SenderPattern::all, 16), 16u);
  EXPECT_EQ(sender_count(SenderPattern::half, 16), 8u);
  EXPECT_EQ(sender_count(SenderPattern::half, 5), 2u);
  EXPECT_EQ(sender_count(SenderPattern::half, 1), 1u);
  EXPECT_EQ(sender_count(SenderPattern::one, 16), 1u);
}

TEST(Workload, HalfSendersDeliverExpectedCount) {
  ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.senders = SenderPattern::half;  // 2 senders
  cfg.messages_per_sender = 50;
  cfg.message_size = 256;
  auto r = run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.stats.total.messages_delivered, 2u * 50u * 4u);
  EXPECT_EQ(r.expected_deliveries, 2u * 50u * 4u);
}

TEST(Workload, InactiveSubgroupsCarryNoTraffic) {
  ExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.subgroups = 4;
  cfg.active_subgroups = 1;
  cfg.messages_per_sender = 40;
  cfg.message_size = 256;
  auto r = run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.stats.total.messages_delivered, 3u * 40u * 3u);
  EXPECT_GT(r.active_predicate_fraction, 0.2);
  EXPECT_LE(r.active_predicate_fraction, 1.0);
}

TEST(Workload, MultipleActiveSubgroupsMultiplyTraffic) {
  ExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.subgroups = 2;
  cfg.active_subgroups = 2;
  cfg.messages_per_sender = 30;
  cfg.message_size = 256;
  auto r = run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.stats.total.messages_delivered, 2u * 3u * 30u * 3u);
}

TEST(Workload, DelayedForeverSendersAreExcludedFromTarget) {
  ExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.messages_per_sender = 40;
  cfg.message_size = 256;
  cfg.delayed_senders = 1;
  cfg.delayed_forever = true;
  auto r = run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.expected_deliveries, 2u * 40u * 3u);
}

TEST(Workload, DelayedSenderLatencySplitIsRecorded) {
  ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.messages_per_sender = 40;
  cfg.message_size = 1024;
  cfg.delayed_senders = 1;
  cfg.post_send_delay = sim::micros(20);
  auto r = run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.continuous_sender_latency_ns.count(), 0u);
  EXPECT_GT(r.delayed_sender_latency_ns.count(), 0u);
}

TEST(Workload, UnorderedModeDeliversEverythingToo) {
  ExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.messages_per_sender = 50;
  cfg.message_size = 512;
  cfg.opts.mode = core::DeliveryMode::unordered;
  auto r = run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.stats.total.messages_delivered, 3u * 50u * 3u);
}

TEST(Workload, WatchdogReportsIncompleteRuns) {
  ExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.messages_per_sender = 1000000;  // cannot finish in the tiny budget
  cfg.message_size = 10240;
  cfg.max_virtual = sim::micros(200);
  auto r = run_experiment(cfg);
  EXPECT_FALSE(r.completed);
}

TEST(Workload, BenchScaleDefaultsToOne) {
  ::unsetenv("SPINDLE_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  ::setenv("SPINDLE_BENCH_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 0.25);
  ::setenv("SPINDLE_BENCH_SCALE", "bogus", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  ::unsetenv("SPINDLE_BENCH_SCALE");
}

TEST(Workload, AveragedRunsUseDistinctSeeds) {
  ExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.messages_per_sender = 40;
  cfg.message_size = 1024;
  auto avg = run_averaged(cfg, 3);
  EXPECT_GT(avg.throughput_gbps, 0.0);
  // Different seeds give (slightly) different runs, hence nonzero stddev.
  EXPECT_GT(avg.stddev_gbps, 0.0);
  EXPECT_TRUE(avg.completed);
}

TEST(Workload, EveryRunnerFillsTheSharedRecord) {
  const auto expect_record = [](const RunRecord& r, const char* runner) {
    SCOPED_TRACE(runner);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.makespan, 0);
    EXPECT_GT(r.engine_steps, 0u);
    EXPECT_GT(r.wall_seconds, 0.0);
    EXPECT_EQ(r.sim_workers, 1u);
    EXPECT_EQ(r.engine_boxed, 0u);  // every event fits inline storage
  };
  ExperimentConfig exp;
  exp.nodes = 3;
  exp.messages_per_sender = 40;
  exp.sim_threads = 1;
  expect_record(run_experiment(exp), "experiment");

  ShardedConfig sh;
  sh.nodes = 4;
  sh.messages_per_sender = 40;
  sh.cross_fraction = 0.25;
  sh.sim_threads = 1;
  expect_record(run_sharded(sh), "sharded");

  SwarmConfig sw;
  sw.sessions_per_relay = 16;
  sw.duration = sim::millis(1);
  expect_record(run_client_swarm(sw), "swarm");
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::integer(1234), "1234");
}

}  // namespace
}  // namespace spindle::workload
