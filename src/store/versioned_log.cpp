#include "store/versioned_log.hpp"

#include <algorithm>
#include <cassert>

namespace spindle::store {

VersionedLog::VersionedLog(StoreOptions opts) : opts_(opts) {
  if (opts_.sector_bytes == 0) opts_.sector_bytes = 1;
}

void VersionedLog::open_epoch(std::uint32_t epoch) {
  if (opened_ && epoch_ == epoch) return;
  epoch_ = epoch;
  opened_ = true;
}

void VersionedLog::push_record(Record r, bool committed) {
  assert(opened_ && "open_epoch() before appending");
  records_.push_back(std::move(r));
  if (committed) {
    assert(!flushing_ && "synchronous append during an in-flight flush");
    committed_ = records_.size();
  }
}

void VersionedLog::append(std::int64_t seq, std::uint32_t sender,
                          std::int64_t index,
                          std::vector<std::byte> payload) {
  push_record(Record{epoch_, seq, sender, index, std::move(payload)}, false);
}

void VersionedLog::append_committed(std::int64_t seq, std::uint32_t sender,
                                    std::int64_t index,
                                    std::vector<std::byte> payload) {
  commit_all();
  push_record(Record{epoch_, seq, sender, index, std::move(payload)}, true);
}

void VersionedLog::flush_begin(sim::Nanos now, sim::Nanos eta) {
  assert(!flushing_ && "nested flush");
  flushing_ = true;
  flush_t0_ = now;
  flush_eta_ = eta;
}

void VersionedLog::flush_commit() {
  if (!flushing_) return;  // commit_all() at an install barrier beat us
  flushing_ = false;
  committed_ = records_.size();
}

void VersionedLog::commit_all() {
  flushing_ = false;
  committed_ = records_.size();
}

void VersionedLog::note_crash(sim::Nanos now) {
  if (crashed_) return;
  crashed_ = true;
  std::size_t survivors = committed_;
  if (flushing_) {
    // The device was `frac` of the way through the batch; it persists only
    // whole sectors, and a record straddling the last sector is torn.
    std::uint64_t inflight_media = 0;
    for (std::size_t i = committed_; i < records_.size(); ++i) {
      inflight_media += extent_of(records_[i]);
    }
    double frac = 0.0;
    if (flush_eta_ > 0) {
      frac = static_cast<double>(now - flush_t0_) /
             static_cast<double>(flush_eta_);
    } else {
      frac = 1.0;
    }
    frac = std::clamp(frac, 0.0, 1.0);
    const std::uint64_t sector = opts_.sector_bytes;
    const auto reached_raw =
        static_cast<std::uint64_t>(frac * static_cast<double>(inflight_media));
    const std::uint64_t reached = (reached_raw / sector) * sector;
    std::uint64_t acc = 0;
    for (std::size_t i = committed_; i < records_.size(); ++i) {
      acc += extent_of(records_[i]);
      if (acc > reached) break;  // torn or beyond the crash point
      survivors = i + 1;
    }
  }
  crash_survivors_ = survivors;
  flushing_ = false;
}

std::size_t VersionedLog::recover() {
  if (!crashed_) {
    // Cold start (or a restart of a process whose last flush completed):
    // anything staged never reached the queue of a live flush — but a
    // store can only be un-crashed here if nothing was in flight, so the
    // staged set is empty and this commits nothing new.
    commit_all();
    return 0;
  }
  const std::size_t lost = records_.size() - crash_survivors_;
  torn_ += lost;
  records_.resize(crash_survivors_);
  committed_ = crash_survivors_;
  crashed_ = false;
  crash_survivors_ = 0;
  return lost;
}

void VersionedLog::truncate_records(std::size_t keep) {
  if (keep >= records_.size()) {
    committed_ = std::max(committed_, std::min(keep, records_.size()));
    return;
  }
  records_.resize(keep);
  committed_ = std::min(committed_, keep);
}

std::vector<std::vector<std::byte>> VersionedLog::payloads() const {
  std::vector<std::vector<std::byte>> out;
  out.reserve(records_.size());
  for (const Record& r : records_) out.push_back(r.payload);
  return out;
}

std::vector<std::pair<std::uint32_t, std::uint64_t>>
VersionedLog::version_vector() const {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> vv;
  for (std::size_t i = 0; i < committed_; ++i) {
    const std::uint32_t e = records_[i].epoch;
    if (vv.empty() || vv.back().first != e) {
      vv.emplace_back(e, 0);
    }
    vv.back().second += 1;
  }
  return vv;
}

}  // namespace spindle::store
