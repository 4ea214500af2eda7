#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace spindle::metrics {

/// Log-linear histogram of unsigned 64-bit values: 64 powers of two, each
/// split into 16 linear sub-buckets. Constant memory, O(1) insert, good
/// relative precision — the standard shape for latency/batch-size data.
class Histogram {
 public:
  Histogram();

  void add(std::uint64_t value);
  void merge(const Histogram& other);
  void reset();

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  /// Value at percentile p (0..100). Returns the representative value of the
  /// bucket containing the p-th sample.
  std::uint64_t percentile(double p) const;
  std::uint64_t median() const { return percentile(50.0); }

  /// (bucket_low, bucket_high, count) triples for non-empty buckets, for
  /// printing distribution tables (paper Figure 7).
  struct Bucket {
    std::uint64_t low;
    std::uint64_t high;
    std::uint64_t count;
  };
  std::vector<Bucket> buckets() const;

 private:
  static std::size_t index_for(std::uint64_t v);
  static std::uint64_t low_of(std::size_t idx);

  static constexpr std::size_t kSub = 16;
  static constexpr std::size_t kBuckets = 64 * kSub;
  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// Simple accumulating summary for real-valued series.
class Summary {
 public:
  void add(double v) {
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  /// Empty summaries report 0 (matching Histogram::min()/max()), never the
  /// +-infinity sentinels used internally.
  double min() const noexcept { return count_ ? min_ : 0; }
  double max() const noexcept { return count_ ? max_ : 0; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Mean and standard deviation over repeated runs (the paper runs each test
/// 5 times and plots mean with one-standard-deviation error bars).
struct RunStats {
  std::vector<double> samples;
  void add(double v) { samples.push_back(v); }
  double mean() const;
  double stddev() const;
};

/// Per-node protocol counters, reported in the paper's §4.1.1 commentary
/// (RDMA writes posted, time posting, sender wait fraction) and the batch
/// histograms of Figure 7.
struct ProtocolCounters {
  std::uint64_t rdma_writes_posted = 0;
  std::uint64_t rdma_bytes_posted = 0;
  /// The part of rdma_writes_posted that pushed the data plane's SST
  /// counters (received_num, delivered_num, persisted_num): one write per
  /// peer per push.
  std::uint64_t counter_writes = 0;
  sim::Nanos post_cpu = 0;           // polling/app thread time spent posting
  sim::Nanos sender_wait = 0;        // app thread time waiting for a slot
  sim::Nanos lock_wait = 0;          // (snapshot of Mutex::total_wait)
  std::uint64_t nulls_sent = 0;
  std::uint64_t null_iterations = 0;  // receive-trigger iterations sending >0 nulls
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;  // application (non-null) deliveries
  std::uint64_t bytes_delivered = 0;
  sim::Nanos predicate_cpu = 0;         // total predicate thread busy time
  std::uint64_t atomics_posted = 0;     // never set; benchmark/src reads it
  // SMC ring memory of the node's subgroups: what the model registers (the
  // paper's senders × window × (slot + trailer) per ring) and what the
  // simulator allocates (trailers plus the node's own slots).
  std::uint64_t ring_bytes_registered = 0;
  std::uint64_t ring_bytes_allocated = 0;
  Histogram send_batches;
  Histogram receive_batches;
  Histogram delivery_batches;
  Histogram delivery_latency_ns;  // send-timestamp -> delivery, per message

  void merge(const ProtocolCounters& o);
};

}  // namespace spindle::metrics
