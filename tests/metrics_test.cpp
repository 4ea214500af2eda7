#include <gtest/gtest.h>

#include "metrics/metrics.hpp"

namespace spindle::metrics {
namespace {

TEST(Histogram, EmptyIsZeroed) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_TRUE(h.buckets().empty());
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (std::uint64_t v : {1u, 2u, 3u, 3u, 3u}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 12.0 / 5.0);
  EXPECT_EQ(h.median(), 3u);
  EXPECT_EQ(h.percentile(0), 1u);
}

TEST(Histogram, PercentilesOnUniformRange) {
  Histogram h;
  for (std::uint64_t v = 0; v < 10000; ++v) h.add(v);
  // Log-linear buckets: relative error bounded by the sub-bucket width
  // (1/16 of the value).
  EXPECT_NEAR(static_cast<double>(h.median()), 5000.0, 5000.0 / 12);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 9900.0, 9900.0 / 12);
  EXPECT_EQ(h.percentile(100), 9999u);
}

TEST(Histogram, LargeValuesKeepRelativePrecision) {
  Histogram h;
  const std::uint64_t big = 1ull << 40;
  h.add(big);
  EXPECT_NEAR(static_cast<double>(h.median()), static_cast<double>(big),
              static_cast<double>(big) / 12);
}

TEST(Histogram, MergeCombinesCounts) {
  Histogram a, b;
  a.add(10);
  a.add(20);
  b.add(30);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 30u);
  EXPECT_DOUBLE_EQ(a.mean(), 20.0);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.add(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(h.buckets().empty());
}

TEST(Histogram, BucketsCoverAllSamples) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; v *= 3) h.add(v);
  std::uint64_t total = 0;
  for (const auto& b : h.buckets()) {
    EXPECT_LE(b.low, b.high);
    total += b.count;
  }
  EXPECT_EQ(total, h.count());
}

TEST(Histogram, LastExactBucketEndsAtSixteen) {
  // 15 is the last exactly-bucketed value; 16 opens the log-linear range.
  Histogram h;
  h.add(15);
  h.add(16);
  EXPECT_EQ(h.percentile(0), 15u);
  EXPECT_EQ(h.percentile(100), 16u);
  const auto b = h.buckets();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0].low, 15u);
  EXPECT_EQ(b[0].high, 15u);
  EXPECT_EQ(b[1].low, 16u);
  EXPECT_EQ(b[1].high, 16u);
}

TEST(Summary, EmptyReportsZeroNotInfinity) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.min(), 0.0);  // not +inf
  EXPECT_EQ(s.max(), 0.0);  // not -inf
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Summary, TracksMinMaxMean) {
  Summary s;
  for (double v : {4.0, 1.0, 7.0}) s.add(v);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

TEST(RunStats, MeanAndStddev) {
  RunStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
}

TEST(RunStats, SingleSampleHasZeroStddev) {
  RunStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(ProtocolCounters, MergeAddsEverything) {
  ProtocolCounters a, b;
  a.rdma_writes_posted = 5;
  a.nulls_sent = 1;
  a.send_batches.add(4);
  b.rdma_writes_posted = 7;
  b.nulls_sent = 2;
  b.send_batches.add(8);
  b.bytes_delivered = 100;
  a.merge(b);
  EXPECT_EQ(a.rdma_writes_posted, 12u);
  EXPECT_EQ(a.nulls_sent, 3u);
  EXPECT_EQ(a.bytes_delivered, 100u);
  EXPECT_EQ(a.send_batches.count(), 2u);
  EXPECT_DOUBLE_EQ(a.send_batches.mean(), 6.0);
}

}  // namespace
}  // namespace spindle::metrics
