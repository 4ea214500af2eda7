#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "net/fabric.hpp"
#include "sim/mutex.hpp"

namespace spindle::net {
namespace {

struct FabricFixture : ::testing::Test {
  sim::Engine engine;
  TimingModel timing;
  Fabric fabric{engine, timing, 4};

  std::vector<std::byte> mem_a = std::vector<std::byte>(4096);
  std::vector<std::byte> mem_b = std::vector<std::byte>(4096);
  RegionId region_a, region_b;

  void SetUp() override {
    region_a = fabric.register_region(0, mem_a);
    region_b = fabric.register_region(1, mem_b);
  }

  static std::vector<std::byte> bytes(std::initializer_list<int> v) {
    std::vector<std::byte> out;
    for (int x : v) out.push_back(static_cast<std::byte>(x));
    return out;
  }
};

TEST_F(FabricFixture, WriteLandsAtDestinationAfterLatency) {
  auto payload = bytes({1, 2, 3, 4});
  const sim::Nanos cost = fabric.post_write(0, region_b, 100, payload);
  EXPECT_EQ(cost, timing.post_cpu_first);
  EXPECT_EQ(mem_b[100], std::byte{0});  // not yet visible
  engine.run();
  EXPECT_EQ(mem_b[100], std::byte{1});
  EXPECT_EQ(mem_b[103], std::byte{4});
  // Delivery time ~ post cost + isolated latency.
  const sim::Nanos expect = cost + timing.isolated_latency(4);
  EXPECT_NEAR(static_cast<double>(engine.now()), static_cast<double>(expect),
              static_cast<double>(timing.nic_min_occupancy));
}

TEST_F(FabricFixture, LatencyModelMatchesPaperFigure1) {
  // Paper: 1.73 us at 1 B, 2.46 us at 4 KB, nearly flat in between.
  const double lat_1b = static_cast<double>(timing.isolated_latency(1));
  const double lat_4k = static_cast<double>(timing.isolated_latency(4096));
  EXPECT_NEAR(lat_1b, 1730.0, 60.0);
  EXPECT_NEAR(lat_4k, 2460.0, 80.0);
  EXPECT_LT(lat_4k / lat_1b, 1.6);  // "nearly constant"
}

TEST_F(FabricFixture, PerLinkFifoEvenWhenSmallFollowsLarge) {
  // A large write followed by a tiny one on the same link must not be
  // overtaken (RDMA memory-fence guarantee the SST depends on).
  std::vector<std::byte> big(3000, std::byte{7});
  const RegionId big_src = fabric.register_region(0, big);
  auto small = bytes({9});
  fabric.post_write(big_src, 0, big.size(), region_b, 0);
  fabric.post_write(0, region_b, 4000, small);
  bool small_after_big = false;
  engine.run_until([&] {
    if (mem_b[4000] == std::byte{9}) {
      small_after_big = mem_b[2999] == std::byte{7};
      return true;
    }
    return false;
  });
  EXPECT_TRUE(small_after_big);
}

TEST_F(FabricFixture, BurstPostsAreCheaper) {
  auto payload = bytes({1});
  const sim::Nanos first = fabric.post_write(0, region_b, 0, payload);
  const sim::Nanos second = fabric.post_write(0, region_b, 8, payload);
  EXPECT_EQ(first, timing.post_cpu_first);
  EXPECT_EQ(second, timing.post_cpu_next);
  engine.run();
  // After the burst, a fresh post is expensive again.
  const sim::Nanos later = fabric.post_write(0, region_b, 16, payload);
  EXPECT_EQ(later, timing.post_cpu_first);
  engine.run();
}

TEST_F(FabricFixture, EgressSerializesAtLineRate) {
  // Two 10 KB writes back to back: second delivery roughly one occupancy
  // later than the first.
  std::vector<std::byte> buf(10240, std::byte{5});
  const RegionId src = fabric.register_region(0, buf);
  fabric.post_write(src, 0, 1024, region_b, 0);
  std::vector<sim::Nanos> deliveries;
  // Track deliveries via doorbell signals.
  engine.spawn([](sim::Engine& e, Fabric& f,
                  std::vector<sim::Nanos>& d) -> sim::Co<> {
    while (d.size() < 2) {
      if (co_await f.doorbell(1).wait_for(sim::millis(1))) {
        d.push_back(e.now());
      } else {
        co_return;
      }
    }
  }(engine, fabric, deliveries));
  fabric.post_write(src, 0, 1024, region_b, 2048);
  engine.run();
  ASSERT_EQ(deliveries.size(), 2u);
  const sim::Nanos gap = deliveries[1] - deliveries[0];
  EXPECT_GE(gap, timing.occupancy(1024) - 5);
}

TEST_F(FabricFixture, IsolatedNodeTrafficIsDropped) {
  auto payload = bytes({42});
  fabric.isolate(1);
  fabric.post_write(0, region_b, 0, payload);
  engine.run();
  EXPECT_EQ(mem_b[0], std::byte{0});
  EXPECT_TRUE(fabric.is_isolated(1));
  EXPECT_FALSE(fabric.is_isolated(0));
}

TEST_F(FabricFixture, InFlightWriteToCrashedNodeDropped) {
  auto payload = bytes({42});
  fabric.post_write(0, region_b, 0, payload);
  fabric.isolate(1);  // crash while in flight
  engine.run();
  EXPECT_EQ(mem_b[0], std::byte{0});
}

TEST_F(FabricFixture, StatsCountPostsAndDeliveries) {
  auto payload = bytes({1, 2});
  fabric.post_write(0, region_b, 0, payload);
  fabric.post_write(0, region_b, 8, payload);
  engine.run();
  EXPECT_EQ(fabric.stats(0).writes_posted, 2u);
  EXPECT_EQ(fabric.stats(0).bytes_posted, 4u);
  EXPECT_EQ(fabric.stats(1).writes_delivered, 2u);
  EXPECT_GT(fabric.stats(0).post_cpu, 0);
}

TEST_F(FabricFixture, DoorbellSignalsOnDelivery) {
  bool rang = false;
  engine.spawn([](Fabric& f, bool& r) -> sim::Co<> {
    r = co_await f.doorbell(1).wait_for(sim::millis(1));
  }(fabric, rang));
  auto payload = bytes({1});
  fabric.post_write(0, region_b, 0, payload);
  engine.run();
  EXPECT_TRUE(rang);
}

TEST_F(FabricFixture, LandingSignalRingsOnlyForItsRegion) {
  // Node 1 owns two regions; only region_b carries a landing signal. A
  // write into the other one rings node 1's doorbell but not the signal.
  sim::Signal landed(engine);
  fabric.set_landing_signal(region_b, &landed);
  std::vector<std::byte> other(64);
  const RegionId region_other = fabric.register_region(1, other);
  auto payload = bytes({1});
  fabric.post_write(0, region_other, 0, payload);
  engine.run();
  EXPECT_EQ(fabric.doorbell(1).signals(), 1u);
  EXPECT_EQ(landed.signals(), 0u);
  fabric.post_write(0, region_b, 0, payload);
  engine.run();
  EXPECT_EQ(fabric.doorbell(1).signals(), 2u);
  EXPECT_EQ(landed.signals(), 1u);
  fabric.set_landing_signal(region_b, nullptr);
  fabric.post_write(0, region_b, 0, payload);
  engine.run();
  EXPECT_EQ(landed.signals(), 1u);
}

TEST_F(FabricFixture, LoopbackWriteIsImmediate) {
  auto payload = bytes({5});
  auto region_self = fabric.register_region(0, mem_a);
  fabric.post_write(0, region_self, 7, payload);
  EXPECT_EQ(mem_a[7], std::byte{5});  // visible without running the engine
}

TEST_F(FabricFixture, ControlWritesOvertakeBulkData) {
  // A tiny control write (its own QP) posted after a large bulk write to
  // the same destination arrives first — the Derecho SST/SMC separation.
  std::vector<std::byte> bulk_dst(512 * 1024);
  std::vector<std::byte> ctl_dst(64);
  auto bulk_region = fabric.register_region(1, bulk_dst);
  auto control_region = fabric.register_region(1, ctl_dst, Channel::control);
  std::vector<std::byte> big(512 * 1024, std::byte{7});
  const RegionId big_src = fabric.register_region(0, big);
  fabric.post_write(big_src, 0, big.size(), bulk_region, 0);  // ~41us on wire
  auto small = bytes({9});
  fabric.post_write(0, control_region, 0, small);
  bool control_first = false;
  engine.run_until([&] {
    if (ctl_dst[0] == std::byte{9}) {
      control_first = bulk_dst[1000] != std::byte{7};
      return true;
    }
    return bulk_dst[1000] == std::byte{7};  // bulk landed first: fail
  });
  EXPECT_TRUE(control_first);
  engine.run();
}

TEST_F(FabricFixture, SharedChannelAblationDisablesOvertaking) {
  TimingModel shared = timing;
  shared.separate_control_channel = false;
  sim::Engine eng2;
  Fabric fab2(eng2, shared, 2);
  std::vector<std::byte> dst_bulk(1 << 20), dst_ctl(64);
  auto rb = fab2.register_region(1, dst_bulk, Channel::bulk);
  auto rc = fab2.register_region(1, dst_ctl, Channel::control);
  std::vector<std::byte> big(512 * 1024, std::byte{7});
  const RegionId big_src = fab2.register_region(0, big);
  fab2.post_write(big_src, 0, big.size(), rb, 0);
  auto small = std::vector<std::byte>{std::byte{9}};
  fab2.post_write(0, rc, 0, small);
  bool bulk_first = false;
  eng2.run_until([&] {
    if (dst_bulk[1000] == std::byte{7}) {
      bulk_first = dst_ctl[0] != std::byte{9};
      return true;
    }
    return dst_ctl[0] == std::byte{9};
  });
  EXPECT_TRUE(bulk_first) << "without separate QPs the ack must queue";
  eng2.run();
}

TEST_F(FabricFixture, InlineSnapshotsAtPostRegisteredSourceReadsAtLanding) {
  // The inline verb copies its bytes when posted; the registered-source
  // verb reads the source region when the write lands.
  auto inline_buf = bytes({1});
  fabric.post_write(0, region_b, 0, inline_buf);
  inline_buf[0] = std::byte{2};

  std::vector<std::byte> src(64, std::byte{3});
  const RegionId src_region = fabric.register_region(0, src);
  fabric.post_write(src_region, 0, src.size(), region_b, 8);
  src[0] = std::byte{4};  // not the tail word: the stable-source check passes

  engine.run();
  EXPECT_EQ(mem_b[0], std::byte{1});
  EXPECT_EQ(mem_b[8], std::byte{4});
  EXPECT_EQ(mem_b[8 + 63], std::byte{3});
  EXPECT_EQ(fabric.stats(0).bytes_posted, 65u);
  EXPECT_EQ(fabric.stats(1).writes_delivered, 2u);
}

TEST_F(FabricFixture, InlineAndRegisteredSourceWritesStayFifoOnOneQp) {
  // One (source, region) QP carrying both verbs: an inline write, a large
  // registered-source write, then another inline write land in post order.
  std::vector<std::byte> big(3000, std::byte{7});
  const RegionId big_src = fabric.register_region(0, big);
  fabric.post_write(0, region_b, 4000, bytes({1}));
  fabric.post_write(big_src, 0, big.size(), region_b, 0);
  fabric.post_write(0, region_b, 4001, bytes({2}));
  std::vector<int> order;
  const auto note = [&](int id, bool landed) {
    if (landed && std::find(order.begin(), order.end(), id) == order.end()) {
      order.push_back(id);
    }
  };
  while (engine.step()) {
    note(0, mem_b[4000] == std::byte{1});
    note(1, mem_b[2999] == std::byte{7});
    note(2, mem_b[4001] == std::byte{2});
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(FabricFixture, IsolationDropsRegisteredSourceWrites) {
  std::vector<std::byte> src(64, std::byte{7});
  const RegionId src_region = fabric.register_region(0, src);
  fabric.post_write(src_region, 0, src.size(), region_b, 0);
  fabric.isolate(1);  // destination crashes while the write is in flight
  fabric.post_write(src_region, 0, src.size(), region_b, 64);
  engine.run();
  EXPECT_EQ(mem_b[0], std::byte{0});
  EXPECT_EQ(mem_b[64], std::byte{0});
  EXPECT_EQ(fabric.stats(1).writes_delivered, 0u);
}

TEST_F(FabricFixture, ResumeEgressReplaysQueuedRegisteredSourceWrites) {
  std::vector<std::byte> src(2048, std::byte{7});
  const RegionId src_region = fabric.register_region(0, src);
  fabric.pause_egress(0);
  fabric.post_write(src_region, 0, src.size(), region_b, 0);
  fabric.post_write(0, region_b, 3000, bytes({9}));
  engine.run();
  EXPECT_EQ(mem_b[0], std::byte{0});  // stalled in the send queue
  EXPECT_EQ(mem_b[3000], std::byte{0});

  src[0] = std::byte{8};  // still queued: the NIC has not read it yet
  fabric.resume_egress(0);
  engine.run();
  EXPECT_EQ(mem_b[0], std::byte{8});
  EXPECT_EQ(mem_b[2047], std::byte{7});
  EXPECT_EQ(mem_b[3000], std::byte{9});
  EXPECT_EQ(fabric.stats(1).writes_delivered, 2u);
}

TEST_F(FabricFixture, InlineWriteOverTheLimitIsRejected) {
  const std::vector<std::byte> at_limit(Fabric::kMaxInline, std::byte{1});
  fabric.post_write(0, region_b, 0, at_limit);
  engine.run();
  EXPECT_EQ(mem_b[Fabric::kMaxInline - 1], std::byte{1});
  const std::vector<std::byte> over(Fabric::kMaxInline + 1);
  EXPECT_DEATH(fabric.post_write(0, region_b, 0, over), "inline limit");
}

TEST_F(FabricFixture, SourceChangedBeforeLandingAborts) {
  // The stable-source check: rewriting the last word of a registered
  // source range while its write is in flight aborts at landing, naming
  // the source region and offset. A memory-less destination copies
  // nothing, but its landing still reads the source and checks it.
  std::vector<std::byte> src(64, std::byte{7});
  const RegionId src_region = fabric.register_region(0, src);
  const RegionId memoryless =
      fabric.register_region(1, {}, Channel::bulk, 4096);
  for (const RegionId dst : {region_b, memoryless}) {
    EXPECT_DEATH(
        {
          fabric.post_write(src_region, 16, 48, dst, 0);
          src[63] = std::byte{8};
          engine.run();
        },
        "changed before it landed \\(source region 2, offset 16, 48 B\\)");
  }
}

TEST_F(FabricFixture, MemorylessDestinationLandsLikeABackedOne) {
  // One sequence of registered-source posts, from two sources and over a
  // jittered link, into a backed region and into a memory-less one: every
  // landing happens at the same instant with the same counts and signals.
  // Only the bytes differ: the memory-less range keeps none.
  struct Landing {
    sim::Nanos at;
    std::uint64_t delivered, doorbells, landed;
    bool operator==(const Landing&) const = default;
  };
  const auto run = [&](bool memoryless) {
    sim::Engine eng;
    Fabric fab(eng, timing, 3, /*seed=*/11);
    std::vector<std::byte> src0(8192, std::byte{1});
    std::vector<std::byte> src2(512, std::byte{2});
    std::vector<std::byte> dst(memoryless ? 0 : 8192);
    const RegionId s0 = fab.register_region(0, src0);
    const RegionId s2 = fab.register_region(2, src2);
    const RegionId d = fab.register_region(1, dst, Channel::bulk,
                                           memoryless ? 8192 : 0);
    sim::Signal landed(eng);
    fab.set_landing_signal(d, &landed);
    fab.set_link_fault(0, 1, 1.0, 700);
    fab.post_write(s0, 0, 6000, d, 0);
    fab.post_write(s0, 6000, 16, d, 6000);
    fab.post_write(s2, 0, 512, d, 7000);
    fab.post_write(s0, 6016, 48, d, 6016);
    std::vector<Landing> out;
    const auto step_all = [&] {
      while (eng.step()) {
        out.push_back({eng.now(), fab.stats(1).writes_delivered,
                       fab.doorbell(1).signals(), landed.signals()});
      }
    };
    step_all();
    fab.post_write(s0, 64, 1024, d, 64);
    fab.post_write(s2, 0, 32, d, 7600);
    step_all();
    EXPECT_EQ(std::count(dst.begin(), dst.end(), std::byte{1}),
              memoryless ? 0 : 6000 + 16 + 48);
    return out;
  };
  const std::vector<Landing> backed = run(false);
  const std::vector<Landing> memoryless = run(true);
  EXPECT_EQ(backed.back().delivered, 6u);
  EXPECT_EQ(backed.back().landed, 6u);
  EXPECT_EQ(backed, memoryless);
}

TEST(TimingModel, OccupancyScalesWithSize) {
  TimingModel t;
  EXPECT_EQ(t.occupancy(1), t.nic_min_occupancy);
  EXPECT_GT(t.occupancy(1 << 20), t.occupancy(10240));
  // 1 MB at 12.5 GB/s is 80 us of line time.
  EXPECT_NEAR(static_cast<double>(t.occupancy(1 << 20)), 83886.0, 200.0);
}

}  // namespace
}  // namespace spindle::net
