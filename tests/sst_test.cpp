#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sst/sst.hpp"

namespace spindle::sst {
namespace {

struct SstFixture : ::testing::Test {
  sim::Engine engine;
  net::TimingModel timing;
  net::Fabric fabric{engine, timing, 3};
  std::vector<std::unique_ptr<Sst>> tables;
  FieldId f_count, f_list, f_guard;

  void SetUp() override {
    Layout layout;
    f_count = layout.add_i64("count");
    f_list = layout.add_bytes("list", 256);  // multi-cache-line payload
    f_guard = layout.add_i64("guard");

    std::vector<net::NodeId> members{0, 1, 2};
    for (net::NodeId id : members) {
      tables.push_back(std::make_unique<Sst>(fabric, id, members, layout));
    }
    std::vector<Sst*> ptrs;
    for (auto& t : tables) ptrs.push_back(t.get());
    Sst::connect(ptrs);
  }

  std::vector<std::size_t> everyone{0, 1, 2};
};

TEST_F(SstFixture, LayoutIsAlignedAndOrdered) {
  const Layout& l = tables[0]->layout();
  EXPECT_EQ(l.field_offset(f_count), 0u);
  EXPECT_EQ(l.field_offset(f_list), 8u);
  EXPECT_EQ(l.field_offset(f_guard), 8u + 256u);
  EXPECT_EQ(l.row_size(), 272u);
  EXPECT_EQ(l.field_name(f_guard), "guard");
}

TEST_F(SstFixture, RanksFollowMemberOrder) {
  EXPECT_EQ(tables[0]->my_rank(), 0u);
  EXPECT_EQ(tables[2]->my_rank(), 2u);
  EXPECT_EQ(tables[0]->num_rows(), 3u);
}

TEST_F(SstFixture, LocalWriteIsNotVisibleRemotelyUntilPush) {
  tables[0]->write_local_i64(f_count, 5);
  EXPECT_EQ(tables[0]->read_i64(0, f_count), 5);
  EXPECT_EQ(tables[1]->read_i64(0, f_count), 0);
  const sim::Nanos cost = tables[0]->push_field(f_count, everyone);
  EXPECT_GT(cost, 0);
  engine.run();
  EXPECT_EQ(tables[1]->read_i64(0, f_count), 5);
  EXPECT_EQ(tables[2]->read_i64(0, f_count), 5);
}

TEST_F(SstFixture, PushTargetsOnlySelectedRanks) {
  tables[0]->write_local_i64(f_count, 9);
  std::vector<std::size_t> only1{1};
  tables[0]->push_field(f_count, only1);
  engine.run();
  EXPECT_EQ(tables[1]->read_i64(0, f_count), 9);
  EXPECT_EQ(tables[2]->read_i64(0, f_count), 0);
}

TEST_F(SstFixture, RowOwnershipPreserved) {
  tables[0]->write_local_i64(f_count, 1);
  tables[1]->write_local_i64(f_count, 2);
  tables[0]->push_field(f_count, everyone);
  tables[1]->push_field(f_count, everyone);
  engine.run();
  for (auto& t : tables) {
    EXPECT_EQ(t->read_i64(0, f_count), 1);
    EXPECT_EQ(t->read_i64(1, f_count), 2);
  }
}

TEST_F(SstFixture, MonotonicCounterObservedAsNonDecreasing) {
  // Push an increasing counter many times; a remote observer sampling at
  // delivery times must never see it decrease (cache-line atomicity +
  // per-link FIFO).
  std::vector<std::int64_t> observed;
  engine.spawn([](net::Fabric& f, Sst& remote,
                  std::vector<std::int64_t>& obs, FieldId fc) -> sim::Co<> {
    while (remote.read_i64(0, fc) < 50) {
      if (!co_await f.doorbell(1).wait_for(sim::millis(10))) co_return;
      obs.push_back(remote.read_i64(0, fc));
    }
  }(fabric, *tables[1], observed, f_count));
  engine.spawn([](sim::Engine& e, Sst& mine, FieldId fc,
                  std::vector<std::size_t>& all) -> sim::Co<> {
    for (std::int64_t v = 1; v <= 50; ++v) {
      mine.write_local_i64(fc, v);
      const sim::Nanos c = mine.push_field(fc, all);
      co_await e.sleep(c + 100);
    }
  }(engine, *tables[0], f_count, everyone));
  engine.run();
  ASSERT_FALSE(observed.empty());
  for (std::size_t i = 1; i < observed.size(); ++i) {
    EXPECT_GE(observed[i], observed[i - 1]);
  }
  EXPECT_EQ(observed.back(), 50);
}

TEST_F(SstFixture, GuardedListNeverObservedStale) {
  // The §2.2 guard idiom: push list data, then push the guard counter.
  // Any observer that sees guard == k must see the list contents of
  // version k (the fence guarantee).
  bool violation = false;
  engine.spawn([](net::Fabric& f, Sst& remote, FieldId fl, FieldId fg,
                  bool& bad) -> sim::Co<> {
    std::int64_t last = 0;
    while (last < 20) {
      if (!co_await f.doorbell(2).wait_for(sim::millis(10))) co_return;
      const std::int64_t g = remote.read_i64(0, fg);
      if (g > last) {
        auto list = remote.read_bytes(0, fl);
        // Every byte of the list must match the guard version.
        for (std::size_t i = 0; i < 32; ++i) {
          if (list[i] != static_cast<std::byte>(g)) bad = true;
        }
        last = g;
      }
    }
  }(fabric, *tables[2], f_list, f_guard, violation));
  engine.spawn([](sim::Engine& e, Sst& mine, FieldId fl, FieldId fg,
                  std::vector<std::size_t>& all) -> sim::Co<> {
    for (std::int64_t v = 1; v <= 20; ++v) {
      auto list = mine.local_bytes(fl);
      for (std::size_t i = 0; i < 32; ++i) {
        list[i] = static_cast<std::byte>(v);
      }
      sim::Nanos c = mine.push_field(fl, all);  // data first
      mine.write_local_i64(fg, v);
      c += mine.push_field(fg, all);  // then the guard
      co_await e.sleep(c + 50);
    }
  }(engine, *tables[0], f_list, f_guard, everyone));
  engine.run();
  EXPECT_FALSE(violation);
  EXPECT_EQ(tables[2]->read_i64(0, f_guard), 20);
}

TEST_F(SstFixture, RangePushIsSingleWritePerTarget) {
  // Three adjacent i64 fields: 24 B, within the fabric's inline limit.
  Layout narrow;
  const FieldId a = narrow.add_i64("a");
  narrow.add_i64("b");
  const FieldId c = narrow.add_i64("c");
  std::vector<std::unique_ptr<Sst>> rows;
  std::vector<Sst*> ptrs;
  for (net::NodeId id : {0u, 1u, 2u}) {
    rows.push_back(std::make_unique<Sst>(fabric, id,
                                         std::vector<net::NodeId>{0, 1, 2},
                                         narrow));
    ptrs.push_back(rows.back().get());
  }
  Sst::connect(ptrs);
  rows[0]->write_local_i64(c, 3);
  const auto before = fabric.stats(0).writes_posted;
  rows[0]->push(a, c, everyone);
  EXPECT_EQ(fabric.stats(0).writes_posted, before + 2);  // 2 peers, 1 each
  engine.run();
  EXPECT_EQ(rows[2]->read_i64(0, c), 3);
}

TEST_F(SstFixture, WideRangePushIsSplitIntoInlineWrites) {
  // The whole 272 B row exceeds the inline limit: it goes out as one write
  // per 32 B to each peer, and lands whole.
  tables[0]->write_local_i64(f_count, 5);
  tables[0]->local_bytes(f_list)[255] = std::byte{6};
  tables[0]->write_local_i64(f_guard, 7);
  const auto before = fabric.stats(0).writes_posted;
  tables[0]->push(f_count, f_guard, everyone);
  EXPECT_EQ(fabric.stats(0).writes_posted, before + 2 * 9);
  engine.run();
  for (std::size_t r : {1u, 2u}) {
    EXPECT_EQ(tables[r]->read_i64(0, f_count), 5);
    EXPECT_EQ(tables[r]->read_bytes(0, f_list)[255], std::byte{6});
    EXPECT_EQ(tables[r]->read_i64(0, f_guard), 7);
  }
}

TEST_F(SstFixture, InitAllRowsSetsAgreedInitialState) {
  tables[0]->init_field_all_rows_i64(f_count, -1);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(tables[0]->read_i64(r, f_count), -1);
  }
}

/// Reproduces the paper's Table 1a example: 5 nodes, 3 subgroups, the SST
/// as seen at node 0 (the received_num / delivered_num columns).
TEST(SstPaperExample, Table1aState) {
  sim::Engine engine;
  net::TimingModel timing;
  net::Fabric fabric(engine, timing, 5);

  Layout layout;
  // r[g], d[g] for subgroups g = 0,1,2.
  std::vector<FieldId> r(3), d(3);
  for (int g = 0; g < 3; ++g) {
    r[g] = layout.add_i64("r[" + std::to_string(g) + "]");
    d[g] = layout.add_i64("d[" + std::to_string(g) + "]");
  }

  std::vector<net::NodeId> all{0, 1, 2, 3, 4};
  std::vector<std::unique_ptr<Sst>> tables;
  for (net::NodeId id : all) {
    tables.push_back(std::make_unique<Sst>(fabric, id, all, layout));
  }
  std::vector<Sst*> ptrs;
  for (auto& t : tables) ptrs.push_back(t.get());
  Sst::connect(ptrs);

  // Subgroup memberships from the paper: {0,1,2}, {0,1,3}, {0,2,4}.
  const std::vector<std::vector<std::size_t>> sg = {{0, 1, 2}, {0, 1, 3},
                                                    {0, 2, 4}};
  // Row values of Table 1a (node, subgroup) -> (r, d).
  struct Entry {
    std::size_t node, group;
    std::int64_t rv, dv;
  };
  const std::vector<Entry> entries = {
      {0, 0, 8, 6},  {0, 1, 25, 21}, {0, 2, -1, -1}, {1, 0, 9, 6},
      {1, 1, 21, 20}, {2, 0, 6, 6},  {2, 2, -1, -1}, {3, 1, 23, 21},
      {4, 2, -1, -1}};
  for (const auto& e : entries) {
    tables[e.node]->write_local_i64(r[e.group], e.rv);
    tables[e.node]->write_local_i64(d[e.group], e.dv);
    // Updates pertaining to a subgroup are pushed only to its members.
    tables[e.node]->push(r[e.group], d[e.group], sg[e.group]);
  }
  engine.run();

  // Node 0 belongs to every subgroup: its local copy shows all the values
  // of Table 1a.
  for (const auto& e : entries) {
    EXPECT_EQ(tables[0]->read_i64(e.node, r[e.group]), e.rv);
    EXPECT_EQ(tables[0]->read_i64(e.node, d[e.group]), e.dv);
  }
  // Node 4 is not in subgroup 0, so node 1's r[0] was never pushed to it.
  EXPECT_EQ(tables[4]->read_i64(1, r[0]), 0);
  // But node 4 is in subgroup 2 and sees node 2's r[2].
  EXPECT_EQ(tables[4]->read_i64(2, r[2]), -1);
}

}  // namespace
}  // namespace spindle::sst
