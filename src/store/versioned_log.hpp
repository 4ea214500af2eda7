#pragma once

// Durable versioned log: the simulated SSD behind a persistent subgroup
// (paper §2.3, "durable Paxos"; Derecho's persistent_vector is the
// template). One VersionedLog per (node, persistent subgroup); it outlives
// both epoch clusters and process restarts, which is what makes
// total-failure recovery possible.
//
// The log is one append stream of records, each stored once: (epoch, seq,
// sender, index, payload), stamped with the view epoch it was appended
// under and occupying `kRecordHeaderBytes + payload` media bytes. Every
// other view (payloads(), version_vector()) derives from the records.
// Appends are *staged* first — immediately visible in records() and
// payloads(), the write-behind optimistic view — and only become durable
// when the flush that covers them completes. A crash mid-flush loses the
// tail of the in-flight batch beyond the last whole sector the device
// reached ("The Completion Fallacy": a posted write is not stable
// storage), and a record straddling that sector boundary is torn and
// dropped at recovery.
//
// The store is passive: it never sleeps or schedules. The persist logger
// brackets its flush sleep with flush_begin()/flush_commit() and charges
// the SSD costs itself, so wiring the store in changes no timing.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace spindle::store {

/// Media bytes charged per record in addition to its payload (epoch, seq,
/// sender, index, length, checksum).
inline constexpr std::uint64_t kRecordHeaderBytes = 32;

struct StoreOptions {
  /// Torn-tail granularity: a crash mid-flush keeps only whole sectors.
  std::uint32_t sector_bytes = 512;
};

struct Record {
  std::uint32_t epoch = 0;  // view epoch the record was appended under
  std::int64_t seq = -1;    // global atomic-multicast sequence number
  std::uint32_t sender = 0;  // sender rank in the subgroup at append time
  std::int64_t index = -1;   // per-sender message index
  std::vector<std::byte> payload;
};

class VersionedLog {
 public:
  explicit VersionedLog(StoreOptions opts = {});

  /// Stamp the records appended from now on with `epoch`. Idempotent per
  /// epoch: the provider may bind the same store to several nodes' state
  /// in one view.
  void open_epoch(std::uint32_t epoch);

  /// Stage a record. It is immediately visible in payloads()/records()
  /// (the write-behind optimistic view) but not durable until the flush
  /// covering it commits.
  void append(std::int64_t seq, std::uint32_t sender, std::int64_t index,
              std::vector<std::byte> payload);

  /// Synchronous durable append (the install-barrier drain path, which is
  /// modelled as a blocking flush). Commits any staged records first.
  void append_committed(std::int64_t seq, std::uint32_t sender,
                        std::int64_t index, std::vector<std::byte> payload);

  /// The persist logger calls flush_begin(now, eta) just before sleeping
  /// `eta` for the batch flush, and flush_commit() right after. A crash
  /// between the two tears the batch at a sector boundary.
  void flush_begin(sim::Nanos now, sim::Nanos eta);
  void flush_commit();

  /// Commit every staged record (used when a surviving group drains the
  /// write-behind queue at an install barrier).
  void commit_all();

  /// Record the media state at the instant the process died. Idempotent:
  /// only the first crash of a life counts. Does NOT truncate — the
  /// optimistic view stays intact so post-mortem inspection (and the
  /// pinned digests) see exactly what the old in-memory log held.
  void note_crash(sim::Nanos now);

  /// Restart-time recovery: drop everything the crash tore or never
  /// reached media, commit the rest. Returns the number of records lost.
  /// On a store that never crashed (cold start) this is a no-op.
  std::size_t recover();

  /// Ragged trim to the longest common durable prefix: keep the first
  /// `keep` records, drop the rest (committed or not).
  void truncate_records(std::size_t keep);

  std::size_t size() const { return records_.size(); }
  std::size_t committed_size() const { return committed_; }
  bool flush_in_flight() const { return flushing_; }
  bool crash_noted() const { return crashed_; }
  std::uint64_t torn_records() const { return torn_; }

  const std::vector<Record>& records() const { return records_; }
  /// A copy of every record's payload, in log order (staged included).
  std::vector<std::vector<std::byte>> payloads() const;

  /// Durable version vector: (epoch, committed record count) per epoch
  /// that has committed records, ascending. For inspection: a restarted
  /// node announces committed_size().
  std::vector<std::pair<std::uint32_t, std::uint64_t>> version_vector() const;

 private:
  static std::uint64_t extent_of(const Record& r) {
    return kRecordHeaderBytes + r.payload.size();
  }
  void push_record(Record r, bool committed);

  StoreOptions opts_;
  std::uint32_t epoch_ = 0;
  bool opened_ = false;
  std::vector<Record> records_;  // committed prefix + staged suffix
  std::size_t committed_ = 0;  // records durable on media

  bool flushing_ = false;
  sim::Nanos flush_t0_ = 0;
  sim::Nanos flush_eta_ = 0;

  bool crashed_ = false;
  std::size_t crash_survivors_ = 0;  // records recoverable after the crash
  std::uint64_t torn_ = 0;           // records lost to tearing, lifetime
};

}  // namespace spindle::store
