#include "metrics/metrics.hpp"

#include <bit>
#include <cmath>

namespace spindle::metrics {

Histogram::Histogram() : counts_(kBuckets, 0) {}

std::size_t Histogram::index_for(std::uint64_t v) {
  if (v < kSub) return static_cast<std::size_t>(v);  // exact small values
  const int msb = 63 - std::countl_zero(v);
  const std::uint64_t sub = (v >> (msb - 4)) & (kSub - 1);
  return static_cast<std::size_t>(msb) * kSub + static_cast<std::size_t>(sub);
}

std::uint64_t Histogram::low_of(std::size_t idx) {
  if (idx < kSub) return idx;
  // Indices [kSub, 4·kSub) would be msb 1..3, which index_for never
  // produces (every value >= kSub has msb >= 4). They are reached only as
  // the upper edge of bucket kSub - 1, which is kSub.
  if (idx < 4 * kSub) return kSub;
  const std::size_t msb = idx / kSub;
  const std::uint64_t sub = idx % kSub;
  return (1ULL << msb) + (sub << (msb - 4));
}

void Histogram::add(std::uint64_t value) {
  ++counts_[index_for(value)];
  ++count_;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.count_) {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
}

void Histogram::reset() {
  counts_.assign(kBuckets, 0);
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<std::uint64_t>::max();
  max_ = 0;
}

std::uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p >= 100.0) return max_;
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  auto target = static_cast<std::uint64_t>(rank);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen > target) {
      // Representative: midpoint of bucket, clamped to observed range.
      std::uint64_t low = low_of(i);
      std::uint64_t high = (i + 1 < kBuckets) ? low_of(i + 1) : low;
      std::uint64_t rep = low + (high - low) / 2;
      if (rep < min_) rep = min_;
      if (rep > max_) rep = max_;
      return rep;
    }
  }
  return max_;
}

std::vector<Histogram::Bucket> Histogram::buckets() const {
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    std::uint64_t low = low_of(i);
    std::uint64_t high = (i + 1 < kBuckets) ? low_of(i + 1) - 1 : low;
    out.push_back(Bucket{low, high, counts_[i]});
  }
  return out;
}

double RunStats::mean() const {
  if (samples.empty()) return 0;
  double s = 0;
  for (double v : samples) s += v;
  return s / static_cast<double>(samples.size());
}

double RunStats::stddev() const {
  if (samples.size() < 2) return 0;
  const double m = mean();
  double acc = 0;
  for (double v : samples) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(samples.size() - 1));
}

void ProtocolCounters::merge(const ProtocolCounters& o) {
  rdma_writes_posted += o.rdma_writes_posted;
  rdma_bytes_posted += o.rdma_bytes_posted;
  counter_writes += o.counter_writes;
  post_cpu += o.post_cpu;
  sender_wait += o.sender_wait;
  lock_wait += o.lock_wait;
  nulls_sent += o.nulls_sent;
  null_iterations += o.null_iterations;
  messages_sent += o.messages_sent;
  messages_delivered += o.messages_delivered;
  bytes_delivered += o.bytes_delivered;
  predicate_cpu += o.predicate_cpu;
  ring_bytes_registered += o.ring_bytes_registered;
  ring_bytes_allocated += o.ring_bytes_allocated;
  send_batches.merge(o.send_batches);
  receive_batches.merge(o.receive_batches);
  delivery_batches.merge(o.delivery_batches);
  delivery_latency_ns.merge(o.delivery_latency_ns);
}

}  // namespace spindle::metrics
