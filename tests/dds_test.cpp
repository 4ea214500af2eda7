#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "dds/dds.hpp"
#include "dds/marshal.hpp"

namespace spindle::dds {
namespace {

struct DomainFixture : ::testing::Test {
  core::ClusterConfig cc;
  std::unique_ptr<Domain> domain;

  void make_domain(std::size_t nodes) {
    cc.nodes = nodes;
    domain = std::make_unique<Domain>(cc);
  }

  static std::vector<std::byte> sample_bytes(std::uint64_t tag,
                                             std::size_t size = 256) {
    std::vector<std::byte> s(size);
    std::memcpy(s.data(), &tag, sizeof tag);
    return s;
  }
  static std::uint64_t tag_of(std::span<const std::byte> d) {
    std::uint64_t t = 0;
    std::memcpy(&t, d.data(), sizeof t);
    return t;
  }
};

TEST_F(DomainFixture, PubSubDeliversToAllSubscribers) {
  make_domain(4);
  TopicConfig tc;
  tc.name = "telemetry";
  tc.topic_id = 7;
  tc.publishers = {0};
  tc.subscribers = {1, 2, 3};
  domain->create_topic(tc);
  domain->start();

  std::map<net::NodeId, std::vector<std::uint64_t>> got;
  for (net::NodeId s : {1, 2, 3}) {
    domain->reader(s, 7).set_listener(
        [&got, s](const Sample& smp) { got[s].push_back(tag_of(smp.data)); });
  }

  domain->engine().spawn([](Domain* d) -> sim::Co<> {
    auto w = d->writer(0, 7);
    for (std::uint64_t i = 0; i < 25; ++i) {
      co_await w.publish(128, [i](std::span<std::byte> buf) {
        std::memcpy(buf.data(), &i, sizeof i);
      });
    }
  }(domain.get()));

  ASSERT_TRUE(domain->engine().run_until(
      [&] { return domain->total_samples(7) >= 75; }, sim::millis(50)));
  for (net::NodeId s : {1, 2, 3}) {
    ASSERT_EQ(got[s].size(), 25u);
    for (std::uint64_t i = 0; i < 25; ++i) EXPECT_EQ(got[s][i], i);
  }
}

TEST_F(DomainFixture, TopicsAreIsolated) {
  make_domain(3);
  TopicConfig a;
  a.name = "a";
  a.topic_id = 1;
  a.publishers = {0};
  a.subscribers = {1, 2};
  TopicConfig b;
  b.name = "b";
  b.topic_id = 2;
  b.publishers = {1};
  b.subscribers = {2};
  domain->create_topic(a);
  domain->create_topic(b);
  domain->start();

  std::vector<std::uint8_t> topics_at_2;
  domain->reader(2, 1).set_listener(
      [&](const Sample& s) { topics_at_2.push_back(s.topic_id); });
  domain->reader(2, 2).set_listener(
      [&](const Sample& s) { topics_at_2.push_back(s.topic_id); });

  domain->engine().spawn([](Domain* d) -> sim::Co<> {
    co_await d->writer(0, 1).publish_bytes(sample_bytes(11));
    co_await d->writer(1, 2).publish_bytes(sample_bytes(22));
  }(domain.get()));
  domain->engine().run_until(
      [&] { return topics_at_2.size() >= 2; }, sim::millis(10));

  ASSERT_EQ(topics_at_2.size(), 2u);
  EXPECT_NE(topics_at_2[0], topics_at_2[1]);
}

TEST_F(DomainFixture, VolatileStorageKeepsHistoryForCatchUp) {
  make_domain(3);
  TopicConfig tc;
  tc.name = "log";
  tc.topic_id = 3;
  tc.qos = Qos::volatile_storage;
  tc.publishers = {0};
  tc.subscribers = {1, 2};
  domain->create_topic(tc);
  domain->start();

  domain->engine().spawn([](Domain* d) -> sim::Co<> {
    for (std::uint64_t i = 0; i < 10; ++i) {
      co_await d->writer(0, 3).publish_bytes(sample_bytes(100 + i));
    }
  }(domain.get()));
  ASSERT_TRUE(domain->engine().run_until(
      [&] { return domain->total_samples(3) >= 20; }, sim::millis(50)));

  // A late reader can inspect the full history (the catch-up use case).
  const auto& hist = domain->reader(1, 3).history();
  ASSERT_EQ(hist.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(tag_of(hist[i]), 100 + i);
  }
  // Non-storing QoS has no history.
  EXPECT_EQ(domain->reader(1, 3).logged_bytes(), 0u);
}

TEST_F(DomainFixture, LoggedStorageRecordsBytesAndCostsTime) {
  make_domain(2);
  TopicConfig tc;
  tc.name = "blackbox";
  tc.topic_id = 4;
  tc.qos = Qos::logged_storage;
  tc.publishers = {0};
  tc.subscribers = {1};
  domain->create_topic(tc);
  domain->start();

  domain->engine().spawn([](Domain* d) -> sim::Co<> {
    for (std::uint64_t i = 0; i < 8; ++i) {
      co_await d->writer(0, 4).publish_bytes(sample_bytes(i, 512));
    }
  }(domain.get()));
  ASSERT_TRUE(domain->engine().run_until(
      [&] { return domain->total_samples(4) >= 8; }, sim::millis(50)));
  EXPECT_EQ(domain->reader(1, 4).logged_bytes(), 8u * 512u);
  EXPECT_EQ(domain->reader(1, 4).history().size(), 8u);
}

TEST_F(DomainFixture, LoggedStorageChargesTheClusterSsdModel) {
  // The logged QoS pays the cluster's SSD op latency on every delivered
  // sample: raising CpuModel::ssd_op_latency from 8 us to 1 ms must show up
  // in the subscriber's predicate-thread time, once per sample.
  const auto subscriber_cpu = [](sim::Nanos op_latency) {
    core::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.cpu.ssd_op_latency = op_latency;
    Domain d(cfg);
    TopicConfig tc;
    tc.name = "blackbox";
    tc.topic_id = 4;
    tc.qos = Qos::logged_storage;
    tc.publishers = {0};
    tc.subscribers = {1};
    d.create_topic(tc);
    d.start();
    d.engine().spawn([](Domain* dom) -> sim::Co<> {
      for (std::uint64_t i = 0; i < 8; ++i) {
        co_await dom->writer(0, 4).publish_bytes(sample_bytes(i, 512));
      }
    }(&d));
    d.engine().run_to(sim::millis(50));
    EXPECT_EQ(d.reader(1, 4).logged_bytes(), 8u * 512u);
    return d.cluster().node(1).counters().predicate_cpu;
  };
  const sim::Nanos fast = subscriber_cpu(sim::micros(8));
  const sim::Nanos slow = subscriber_cpu(sim::millis(1));
  EXPECT_GE(slow - fast, 7 * (sim::millis(1) - sim::micros(8)));
}

TEST_F(DomainFixture, UnorderedQosDeliversWithoutStability) {
  make_domain(3);
  TopicConfig tc;
  tc.name = "fast";
  tc.topic_id = 5;
  tc.qos = Qos::unordered;
  tc.publishers = {0, 1};
  tc.subscribers = {2};
  domain->create_topic(tc);
  domain->start();

  std::vector<std::int64_t> seqs;
  domain->reader(2, 5).set_listener(
      [&](const Sample& s) { seqs.push_back(s.sequence); });
  domain->engine().spawn([](Domain* d) -> sim::Co<> {
    co_await d->writer(0, 5).publish_bytes(sample_bytes(1));
    co_await d->writer(1, 5).publish_bytes(sample_bytes(2));
  }(domain.get()));
  domain->engine().run_until([&] { return seqs.size() >= 2; },
                             sim::millis(10));
  ASSERT_EQ(seqs.size(), 2u);
  // Unordered QoS does not assign a total-order sequence.
  EXPECT_EQ(seqs[0], -1);
  EXPECT_EQ(seqs[1], -1);
}

TEST_F(DomainFixture, RejectsInvalidTopics) {
  make_domain(2);
  TopicConfig tc;
  tc.name = "x";
  tc.topic_id = 1;
  tc.publishers = {0};
  tc.subscribers = {1};
  domain->create_topic(tc);
  EXPECT_THROW(domain->create_topic(tc), std::invalid_argument);  // dup id
  TopicConfig none;
  none.name = "none";
  none.topic_id = 9;
  none.subscribers = {1};
  EXPECT_THROW(domain->create_topic(none), std::invalid_argument);
  domain->start();
  EXPECT_THROW(domain->writer(1, 1), std::invalid_argument);  // not a pub
  EXPECT_THROW(domain->reader(0, 1), std::invalid_argument);  // not a sub
  EXPECT_THROW(domain->reader(1, 42), std::invalid_argument); // no topic
}

TEST(Marshal, RoundTripsScalarsStringsSequences) {
  Encoder enc;
  enc.put<std::uint8_t>(7)
      .put<std::uint32_t>(0xdeadbeef)
      .put<double>(3.25)
      .put_string("avionics")
      .put_sequence(std::vector<std::byte>{std::byte{1}, std::byte{2}});

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get<std::uint8_t>(), 7);
  EXPECT_EQ(dec.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(dec.get<double>(), 3.25);
  EXPECT_EQ(dec.get_string(), "avionics");
  const Sequence seq = dec.get_sequence();
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq[1], std::byte{2});
}

TEST(Marshal, AlignmentIsNatural) {
  Encoder enc;
  enc.put<std::uint8_t>(1).put<std::uint64_t>(2);
  EXPECT_EQ(enc.size(), 16u);  // 1 byte + 7 pad + 8
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get<std::uint8_t>(), 1);
  EXPECT_EQ(dec.get<std::uint64_t>(), 2u);
}

TEST(Marshal, DecoderRejectsTruncatedBuffers) {
  Encoder enc;
  enc.put<std::uint32_t>(100);  // length prefix promising 100 bytes
  Decoder dec(enc.bytes());
  EXPECT_THROW(dec.get_sequence(), std::out_of_range);
  std::vector<std::byte> tiny(2);
  Decoder dec2(tiny);
  EXPECT_THROW(dec2.get<std::uint64_t>(), std::out_of_range);
}

}  // namespace
}  // namespace spindle::dds
