#pragma once

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

#include "net/fabric.hpp"

namespace spindle::smc {

/// Per-slot trailer. Separated from the slot data so that a batch of
/// trailers is one contiguous RDMA write: this is what makes batched
/// acknowledgment-free message announcement and the "send k nulls as a
/// single write" optimization (§3.3) cheap.
///
/// `count` is monotonic: the message with sender-index k (0-based, counting
/// nulls) is announced by count = k + 1 in slot k % window. A receiver that
/// has consumed n messages from a sender polls slot n % window for
/// count == n + 1.
struct SlotTrailer {
  std::uint32_t len = 0;
  std::uint32_t flags = 0;
  std::int64_t count = 0;
};
static_assert(sizeof(SlotTrailer) == 16);

constexpr std::uint32_t kNullFlag = 1u;  // a null message (§3.3): no payload

/// SMC ring buffers for one subgroup at one node (paper §2.3).
///
/// Holds the local copy of every sender's ring: `senders` rows, each with
/// `window` fixed-size data slots followed by `window` trailers. The data
/// area and trailer area are each contiguous per sender, so a batch of
/// messages in consecutive slots is pushed with one data write + one
/// trailer write (two per wrap segment). Trailers are pushed *after* data;
/// the fabric's per-link FIFO (RDMA memory fence) then guarantees a
/// receiver that sees count == k+1 also sees the message bytes.
class RingGroup {
 public:
  RingGroup(net::Fabric& fabric, net::NodeId self,
            std::vector<net::NodeId> members, std::size_t my_sender_index,
            std::size_t num_senders, std::uint32_t window,
            std::uint32_t max_msg_size);

  static void connect(std::span<RingGroup* const> instances);

  std::uint32_t window() const noexcept { return window_; }
  std::uint32_t max_msg_size() const noexcept { return max_msg_; }
  std::size_t num_senders() const noexcept { return num_senders_; }
  bool is_sender() const noexcept { return my_sender_ != kNotSender; }

  /// --- Sender side (my own row, local copy) ---

  /// Writable data area of the slot that message `msg_index` occupies.
  std::span<std::byte> slot_data(std::int64_t msg_index);

  /// Announce message `msg_index` locally (visible remotely after push).
  void mark_ready(std::int64_t msg_index, std::uint32_t len,
                  std::uint32_t flags);

  /// Push data slots for my messages [first, last) to each target rank.
  /// Handles ring wraparound (up to two writes per target). Returns CPU
  /// post cost to charge to the calling simulated thread.
  sim::Nanos push_data(std::int64_t first, std::int64_t last,
                       std::span<const std::size_t> targets);

  /// Push trailers for my messages [first, last) (one or two contiguous
  /// writes per target). Push trailers only after the matching data.
  sim::Nanos push_trailers(std::int64_t first, std::int64_t last,
                           std::span<const std::size_t> targets);

  /// --- Receiver side (any sender's row, local copy) ---

  SlotTrailer trailer(std::size_t sender, std::int64_t msg_index) const;
  std::span<const std::byte> message(std::size_t sender,
                                     std::int64_t msg_index,
                                     std::uint32_t len) const;

  /// Signal `s` whenever a peer's write lands in this node's copy of the
  /// rings (net::Fabric::set_landing_signal); nullptr detaches.
  void set_landing_signal(sim::Signal* s) {
    fabric_.set_landing_signal(my_region_, s);
  }

  /// Total registered bytes (for the paper's §4.1.2 memory accounting).
  std::size_t memory_bytes() const noexcept { return arena_.size(); }

 private:
  static constexpr std::size_t kNotSender = SIZE_MAX;

  // Slot data stride is 8-byte aligned so trailers stay aligned even for
  // 1-byte message sizes.
  std::size_t stride() const noexcept {
    return (static_cast<std::size_t>(max_msg_) + 7) & ~std::size_t{7};
  }
  std::size_t row_size() const noexcept {
    return static_cast<std::size_t>(window_) * stride() +
           static_cast<std::size_t>(window_) * sizeof(SlotTrailer);
  }
  std::size_t data_offset(std::size_t sender, std::uint32_t slot) const {
    return sender * row_size() + static_cast<std::size_t>(slot) * stride();
  }
  std::size_t trailer_offset(std::size_t sender, std::uint32_t slot) const {
    return sender * row_size() +
           static_cast<std::size_t>(window_) * stride() +
           static_cast<std::size_t>(slot) * sizeof(SlotTrailer);
  }

  // Push a [first,last) slot-index range as 1-2 contiguous writes.
  sim::Nanos push_ranges(std::int64_t first, std::int64_t last,
                         std::span<const std::size_t> targets, bool trailers);

  net::Fabric& fabric_;
  net::NodeId self_;
  std::vector<net::NodeId> members_;
  std::size_t my_sender_ = kNotSender;
  std::size_t num_senders_;
  std::uint32_t window_;
  std::uint32_t max_msg_;
  struct FreeDeleter {
    void operator()(std::byte* p) const noexcept { std::free(p); }
  };
  // calloc'd rather than a zero-filled vector: pages fresh from the OS are
  // zero already and stay unmapped until a write first touches them, so a
  // large arena costs no page faults at construction.
  std::unique_ptr<std::byte[], FreeDeleter> arena_mem_;
  std::span<std::byte> arena_;  // num_senders rows
  net::RegionId my_region_;
  std::vector<net::RegionId> peer_regions_;  // member rank -> region
};

}  // namespace spindle::smc
