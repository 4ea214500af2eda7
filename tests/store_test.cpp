// Unit tests for the simulated-SSD versioned log (store::VersionedLog):
// crash-boundary durability semantics in isolation from the protocol
// stack. The invariants pinned here are the ones total-failure recovery
// leans on: staged records are never acknowledged early, a crash mid-flush
// keeps only whole sectors (a record straddling the last sector is torn),
// and cold starts are no-ops.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "store/versioned_log.hpp"

namespace spindle::store {
namespace {

std::vector<std::byte> payload_of(std::size_t size, std::byte fill) {
  return std::vector<std::byte>(size, fill);
}

// payloads() derives from the records: one payload per record, in order.
void expect_payloads_are_the_records(const VersionedLog& log) {
  const auto payloads = log.payloads();
  ASSERT_EQ(payloads.size(), log.records().size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(payloads[i], log.records()[i].payload) << "record " << i;
  }
}

// Stage `n` records whose on-media extent is exactly `extent` bytes each.
void stage(VersionedLog& log, std::size_t n, std::uint64_t extent,
           std::int64_t first_seq = 0) {
  ASSERT_GE(extent, kRecordHeaderBytes);
  for (std::size_t i = 0; i < n; ++i) {
    log.append(first_seq + static_cast<std::int64_t>(i), /*sender=*/0,
               /*index=*/static_cast<std::int64_t>(i),
               payload_of(extent - kRecordHeaderBytes,
                          std::byte{static_cast<unsigned char>(i)}));
  }
}

TEST(VersionedLog, StagedRecordsAreVisibleButNotDurable) {
  VersionedLog log;
  log.open_epoch(0);
  stage(log, 3, 256);
  // Write-behind optimistic view: immediately readable...
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.payloads().size(), 3u);
  expect_payloads_are_the_records(log);
  // ...but nothing is durable until a flush commits.
  EXPECT_EQ(log.committed_size(), 0u);
  log.flush_begin(/*now=*/0, /*eta=*/1000);
  log.flush_commit();
  EXPECT_EQ(log.committed_size(), 3u);
}

TEST(VersionedLog, CrashBeforeFlushLosesEverythingStaged) {
  // "The Completion Fallacy": a posted write the device never started on
  // is not stable storage. No flush was in flight, so the staged suffix
  // vanishes entirely at recovery.
  VersionedLog log;
  log.open_epoch(0);
  log.append_committed(0, 0, 0, payload_of(32, std::byte{1}));
  stage(log, 4, 256, /*first_seq=*/1);
  log.note_crash(/*now=*/500);
  EXPECT_EQ(log.recover(), 4u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.committed_size(), 1u);
  EXPECT_EQ(log.torn_records(), 4u);
}

TEST(VersionedLog, CrashMidFlushKeepsWholeSectorsOnly) {
  // Four 256-byte records in one batch, sector 512, crash 62.5% through
  // the flush: the device reached 640 raw bytes but persists only the
  // whole sector below it (512), i.e. exactly two records.
  VersionedLog log(StoreOptions{.sector_bytes = 512});
  log.open_epoch(0);
  stage(log, 4, 256);
  log.flush_begin(/*now=*/0, /*eta=*/1000);
  log.note_crash(/*now=*/625);
  EXPECT_EQ(log.recover(), 2u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.committed_size(), 2u);
  EXPECT_EQ(log.torn_records(), 2u);
  expect_payloads_are_the_records(log);
}

TEST(VersionedLog, RecordStraddlingTheLastSectorIsTorn) {
  // Second record (384-byte extent) straddles the 512-byte sector the
  // device reached: it is torn and dropped even though most of its bytes
  // hit media. Only the first record survives.
  VersionedLog log(StoreOptions{.sector_bytes = 512});
  log.open_epoch(0);
  log.append(0, 0, 0, payload_of(256 - kRecordHeaderBytes, std::byte{0}));
  log.append(1, 0, 1, payload_of(384 - kRecordHeaderBytes, std::byte{1}));
  log.flush_begin(/*now=*/0, /*eta=*/1000);
  log.note_crash(/*now=*/850);  // frac 0.85 of 640 bytes -> 544 raw -> 512
  EXPECT_EQ(log.recover(), 1u);
  EXPECT_EQ(log.size(), 1u);
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].seq, 0);
}

TEST(VersionedLog, OnlyTheFirstCrashOfALifeCounts) {
  // note_crash is idempotent: a second crash note (the injector firing a
  // redundant total_failure event on an already-dead node) must not move
  // the survivor boundary.
  VersionedLog log(StoreOptions{.sector_bytes = 512});
  log.open_epoch(0);
  stage(log, 4, 256);
  log.flush_begin(/*now=*/0, /*eta=*/1000);
  log.note_crash(/*now=*/625);
  log.note_crash(/*now=*/999);  // later instant; must be ignored
  EXPECT_TRUE(log.crash_noted());
  EXPECT_EQ(log.recover(), 2u);
  EXPECT_EQ(log.size(), 2u);
}

TEST(VersionedLog, ColdStartRecoveryIsANoOp) {
  VersionedLog log;
  log.open_epoch(0);
  EXPECT_EQ(log.recover(), 0u);
  EXPECT_EQ(log.size(), 0u);
  // A restart of a process whose last flush completed keeps everything.
  log.append_committed(0, 0, 0, payload_of(32, std::byte{7}));
  EXPECT_EQ(log.recover(), 0u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.committed_size(), 1u);
}

TEST(VersionedLog, VersionVectorCountsCommittedRecordsPerEpoch) {
  VersionedLog log;
  log.open_epoch(0);
  log.append_committed(0, 0, 0, payload_of(32, std::byte{0}));
  log.append_committed(1, 1, 0, payload_of(32, std::byte{1}));
  log.open_epoch(1);
  log.append_committed(2, 0, 1, payload_of(32, std::byte{2}));
  stage(log, 2, 64, /*first_seq=*/3);  // staged: must not be announced
  const auto vv = log.version_vector();
  ASSERT_EQ(vv.size(), 2u);
  EXPECT_EQ(vv[0], (std::pair<std::uint32_t, std::uint64_t>{0, 2}));
  EXPECT_EQ(vv[1], (std::pair<std::uint32_t, std::uint64_t>{1, 1}));
}

TEST(VersionedLog, RaggedTrimKeepsThePrefix) {
  VersionedLog log;
  log.open_epoch(0);
  for (std::size_t i = 0; i < 5; ++i) {
    log.append_committed(static_cast<std::int64_t>(i), 0,
                         static_cast<std::int64_t>(i),
                         payload_of(32, std::byte{static_cast<unsigned char>(i)}));
  }
  log.truncate_records(3);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.committed_size(), 3u);
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records().back().seq, 2);
  expect_payloads_are_the_records(log);
  // Trimming past the end is a no-op.
  log.truncate_records(10);
  EXPECT_EQ(log.size(), 3u);
}

}  // namespace
}  // namespace spindle::store
