#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "smc/ring.hpp"

namespace spindle::smc {
namespace {

struct RingFixture : ::testing::Test {
  sim::Engine engine;
  net::TimingModel timing;
  net::Fabric fabric{engine, timing, 3};
  std::vector<std::unique_ptr<RingGroup>> rings;
  static constexpr std::uint32_t kWindow = 4;
  static constexpr std::uint32_t kMsg = 64;

  void SetUp() override {
    std::vector<net::NodeId> members{0, 1, 2};
    // Nodes 0 and 1 are senders (sender indices 0 and 1); node 2 receives.
    for (net::NodeId id : members) {
      const std::size_t sender_idx = id < 2 ? id : SIZE_MAX;
      rings.push_back(std::make_unique<RingGroup>(
          fabric, id, members, sender_idx, 2, kWindow, kMsg));
    }
    std::vector<RingGroup*> ptrs;
    for (auto& r : rings) ptrs.push_back(r.get());
    RingGroup::connect(ptrs);
  }

  std::vector<std::size_t> peers_of_0{1, 2};

  void write_msg(RingGroup& ring, std::int64_t idx, char fill,
                 std::uint32_t len = kMsg, sim::Nanos sent_at = -1) {
    auto slot = ring.slot_data(idx);
    std::memset(slot.data(), fill, len);
    ring.mark_ready(idx, len, 0, sent_at);
  }
};

TEST_F(RingFixture, TrailerAnnouncesMessageMonotonically) {
  EXPECT_EQ(rings[0]->trailer(0, 0).count, 0);
  write_msg(*rings[0], 0, 'a');
  const SlotTrailer t = rings[0]->trailer(0, 0);
  EXPECT_EQ(t.count, 1);
  EXPECT_EQ(t.len, kMsg);
  EXPECT_EQ(t.flags, 0u);
}

TEST_F(RingFixture, PushDataThenTrailersDeliversMessage) {
  write_msg(*rings[0], 0, 'x', 10, /*sent_at=*/1234);
  sim::Nanos cost = rings[0]->push_data(0, 1, peers_of_0);
  cost += rings[0]->push_trailers(0, 1, peers_of_0);
  EXPECT_GT(cost, 0);
  engine.run();
  // Receiver (node 2) sees the announcement and the payload.
  EXPECT_EQ(rings[2]->trailer(0, 0).count, 1);
  EXPECT_EQ(rings[2]->trailer(0, 0).len, 10u);
  const Message msg = rings[2]->message(0, 0, 10);
  EXPECT_EQ(msg.data[0], static_cast<std::byte>('x'));
  EXPECT_EQ(msg.data[9], static_cast<std::byte>('x'));
  // The construct time is read from beside the sender's own slot.
  EXPECT_EQ(msg.sent_at, 1234);
  // Sender index 1's row is untouched.
  EXPECT_EQ(rings[2]->trailer(1, 0).count, 0);
}

TEST_F(RingFixture, BatchedPushIsOneWritePairPerTarget) {
  for (std::int64_t i = 0; i < 3; ++i) write_msg(*rings[0], i, 'b');
  const auto before = fabric.stats(0).writes_posted;
  rings[0]->push_data(0, 3, peers_of_0);
  rings[0]->push_trailers(0, 3, peers_of_0);
  // 3 messages, 2 targets: 2 data writes + 2 trailer writes, not 12.
  EXPECT_EQ(fabric.stats(0).writes_posted, before + 4);
  engine.run();
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rings[1]->trailer(0, i).count, i + 1);
  }
}

TEST_F(RingFixture, WraparoundSplitsIntoTwoWritesPerTarget) {
  // Fill indices 2..5: slots 2,3,0,1 — wraps after slot 3.
  for (std::int64_t i = 0; i < 6; ++i) write_msg(*rings[0], i, 'c');
  std::vector<std::size_t> one_peer{2};
  const auto before = fabric.stats(0).writes_posted;
  rings[0]->push_data(2, 6, one_peer);
  EXPECT_EQ(fabric.stats(0).writes_posted, before + 2);
  rings[0]->push_trailers(2, 6, one_peer);
  EXPECT_EQ(fabric.stats(0).writes_posted, before + 4);
  engine.run();
  for (std::int64_t i = 2; i < 6; ++i) {
    EXPECT_EQ(rings[2]->trailer(0, i).count, i + 1);
  }
}

TEST_F(RingFixture, SlotReuseOverwritesOldTrailer) {
  write_msg(*rings[0], 0, 'o');
  write_msg(*rings[0], static_cast<std::int64_t>(kWindow), 'n');  // same slot
  const SlotTrailer t = rings[0]->trailer(0, kWindow);
  EXPECT_EQ(t.count, kWindow + 1);
  // Reading the old index maps to the same slot and shows the *new* count —
  // exactly why the protocol must not reuse a slot before delivery.
  EXPECT_EQ(rings[0]->trailer(0, 0).count, kWindow + 1);
}

TEST_F(RingFixture, NullAnnouncementIsTrailerOnly) {
  rings[0]->mark_ready(0, 0, kNullFlag);
  const auto before_bytes = fabric.stats(0).bytes_posted;
  rings[0]->push_trailers(0, 1, peers_of_0);
  // 16-byte trailer per target, no payload bytes.
  EXPECT_EQ(fabric.stats(0).bytes_posted, before_bytes + 2 * sizeof(SlotTrailer));
  engine.run();
  const SlotTrailer t = rings[2]->trailer(0, 0);
  EXPECT_EQ(t.count, 1);
  EXPECT_EQ(t.flags, kNullFlag);
  EXPECT_EQ(t.len, 0u);
  EXPECT_EQ(rings[2]->message(0, 0, 0).sent_at, -1)
      << "a null records no send time";
}

TEST_F(RingFixture, MemoryAccountingMatchesPaperFormula) {
  // §4.1.2: total slot space per node ~ senders * w * (m + 16 here).
  // Our layout separates trailers, so row = w*stride + w*16.
  const std::size_t expected = 2 * (kWindow * kMsg + kWindow * 16);
  EXPECT_EQ(rings[0]->memory_bytes(), expected);
  EXPECT_EQ(rings[2]->memory_bytes(), expected);
  // Host memory is less: a receiver reads a peer's message from the
  // sender's own slot, so a node allocates its own slots and their 8-byte
  // send-time words (if it sends) and every sender's trailers.
  EXPECT_EQ(rings[0]->allocated_bytes(),
            kWindow * (kMsg + 8) + 2 * kWindow * 16);
  EXPECT_EQ(rings[2]->allocated_bytes(), 2 * kWindow * 16);
}

TEST_F(RingFixture, ReadOfARecycledSlotAborts) {
  write_msg(*rings[0], 0, 'o', kMsg, /*sent_at=*/1234);
  rings[0]->push_data(0, 1, peers_of_0);
  rings[0]->push_trailers(0, 1, peers_of_0);
  engine.run();
  const Message msg = rings[2]->message(0, 0, kMsg);
  EXPECT_EQ(msg.data[0], static_cast<std::byte>('o'));
  EXPECT_EQ(msg.sent_at, 1234);
  // The sender re-claims slot 0 for message kWindow: message 0's bytes and
  // send time are gone from the only copy, so reading them must abort, not
  // return the new message's.
  write_msg(*rings[0], kWindow, 'n', kMsg, /*sent_at=*/5678);
  EXPECT_DEATH(rings[2]->message(0, 0, kMsg),
               "sender 0's slot 0 no longer holds its message 0");
  EXPECT_EQ(rings[2]->message(0, kWindow, kMsg).sent_at, 5678);
  // A message its sender has not announced yet is no safer to read.
  EXPECT_DEATH(rings[2]->message(1, 0, kMsg),
               "sender 1's slot 0 no longer holds its message 0");
}

TEST_F(RingFixture, OneByteMessagesKeepTrailersAligned) {
  std::vector<net::NodeId> members{0, 1};
  sim::Engine eng2;
  net::Fabric fab2(eng2, timing, 2);
  RingGroup a(fab2, 0, members, 0, 1, 3, 1);
  RingGroup b(fab2, 1, members, SIZE_MAX, 1, 3, 1);
  RingGroup* ptrs[] = {&a, &b};
  RingGroup::connect(ptrs);
  auto slot = a.slot_data(0);
  slot[0] = static_cast<std::byte>(7);
  a.mark_ready(0, 1, 0);
  std::vector<std::size_t> target{1};
  a.push_data(0, 1, target);
  a.push_trailers(0, 1, target);
  eng2.run();
  EXPECT_EQ(b.trailer(0, 0).count, 1);
  EXPECT_EQ(b.message(0, 0, 1).data[0], static_cast<std::byte>(7));
}

TEST_F(RingFixture, EmptyRangePushIsFree) {
  EXPECT_EQ(rings[0]->push_data(5, 5, peers_of_0), 0);
  EXPECT_EQ(rings[0]->push_trailers(5, 5, peers_of_0), 0);
}

}  // namespace
}  // namespace spindle::smc
