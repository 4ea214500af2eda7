#pragma once

#include <cassert>
#include <cstdint>
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

/// A message as a receiver reads it, from its sender's own slot.
struct Message {
  std::span<const std::byte> data;
  sim::Nanos sent_at;  // construct time recorded at mark_ready (-1: none)
};

/// SMC ring buffers for one subgroup at one node (paper §2.3).
///
/// The modelled ring is one registered region per node: `senders` rows of
/// `window` trailers, then `senders` rows of `window` fixed-size data
/// slots. memory_bytes() reports that footprint (§4.1.2). Only the trailer
/// rows have host memory behind them; the data rows are the region's
/// memory-less range (net::Fabric), where a peer's data write is timed,
/// ordered and counted but copies nothing. A receiver reads a message from
/// the sender's own slot instead, the one copy of its bytes the simulator
/// keeps, and its construct time from the word the sender recorded beside
/// that slot (a simulator record, never posted: it feeds the delivery
/// latency histograms). The slot-reuse rule makes the read exact: a
/// sender rewrites a slot only after every member has delivered its
/// message, so whenever a message is read its sender's slot still holds
/// it. message() checks this and aborts otherwise.
///
/// A batch of messages in consecutive slots is pushed with one data write +
/// one trailer write per target (two per wrap segment). Trailers are pushed
/// *after* data into the same region; the fabric's per-link FIFO (RDMA
/// memory fence) then guarantees a receiver that sees count == k+1 reads
/// message k only after its data write has landed.
class RingGroup {
 public:
  RingGroup(net::Fabric& fabric, net::NodeId self,
            std::vector<net::NodeId> members, std::size_t my_sender_index,
            std::size_t num_senders, std::uint32_t window,
            std::uint32_t max_msg_size);

  /// Wire every instance of one ring group to the others: each learns
  /// its peers' ring regions and each sender's own ring, which message()
  /// reads. The instances must outlive each other's use.
  static void connect(std::span<RingGroup* const> instances);

  std::uint32_t window() const noexcept { return window_; }
  std::uint32_t max_msg_size() const noexcept { return max_msg_; }
  std::size_t num_senders() const noexcept { return num_senders_; }
  bool is_sender() const noexcept { return my_sender_ != kNotSender; }

  /// --- Sender side (my own slots and trailer row) ---

  /// Writable data area of the slot that message `msg_index` occupies.
  std::span<std::byte> slot_data(std::int64_t msg_index);

  /// Announce message `msg_index` locally (visible remotely after push),
  /// recording `sent_at`, the virtual time it was constructed (-1 for a
  /// null or when unknown), beside its slot.
  void mark_ready(std::int64_t msg_index, std::uint32_t len,
                  std::uint32_t flags, sim::Nanos sent_at = -1);

  /// Push data slots for my messages [first, last) to each target rank.
  /// Handles ring wraparound (up to two writes per target). Returns CPU
  /// post cost to charge to the calling simulated thread. A write ships
  /// whole slots (count × stride), as Derecho's SMC does, whatever each
  /// message's length: Fig 4 runs 1 B–10 KB messages in 10 KB slots.
  /// (Shipping only the used bytes measured, at seed 1, 12.60 instead of
  /// 15.26 wire bytes per application byte on the benchmark's `rpc_swarm`
  /// and 7.28 instead of 7.78 on `sharded_x10`, and moved no end-to-end
  /// metric by more than 1.6 %.)
  sim::Nanos push_data(std::int64_t first, std::int64_t last,
                       std::span<const std::size_t> targets);

  /// Push trailers for my messages [first, last) (one or two contiguous
  /// writes per target). Push trailers only after the matching data.
  sim::Nanos push_trailers(std::int64_t first, std::int64_t last,
                           std::span<const std::size_t> targets);

  /// --- Receiver side (any sender's row) ---

  /// This node's copy of a sender's trailer for `msg_index`.
  SlotTrailer trailer(std::size_t sender, std::int64_t msg_index) const;
  /// Message `msg_index` of `sender` (its first `len` bytes) and its
  /// construct time, read from the sender's own slot (the rings must be
  /// connected). Aborts, in every build type, when that slot no longer
  /// holds the message: it was recycled, or never announced.
  Message message(std::size_t sender, std::int64_t msg_index,
                  std::uint32_t len) const;

  /// Signal `s` whenever a peer's write lands in this node's ring region
  /// (net::Fabric::set_landing_signal), and with `replaces_doorbell` instead
  /// of the node's doorbell; nullptr detaches.
  void set_landing_signal(sim::Signal* s, bool replaces_doorbell = false) {
    fabric_.set_landing_signal(region_, s, replaces_doorbell);
  }

  /// Modelled registered bytes, senders × window × (slot + trailer): the
  /// paper's §4.1.2 memory accounting, which the CPU model's cache-pressure
  /// factor reads.
  std::size_t memory_bytes() const noexcept {
    return num_senders_ * static_cast<std::size_t>(window_) *
           (stride() + sizeof(SlotTrailer));
  }
  /// Host bytes this node allocates: every sender's trailers plus, at a
  /// sender, its own slots and their send-time words.
  std::size_t allocated_bytes() const noexcept { return arena_.size(); }

 private:
  static constexpr std::size_t kNotSender = SIZE_MAX;

  // Slots are 8-byte aligned; memory_bytes() counts the padded stride.
  std::size_t stride() const noexcept {
    return (static_cast<std::size_t>(max_msg_) + 7) & ~std::size_t{7};
  }
  std::size_t trailer_bytes() const noexcept {
    return num_senders_ * window_ * sizeof(SlotTrailer);
  }
  // Offsets in the ring region: trailer rows, then the memory-less data rows.
  std::size_t trailer_offset(std::size_t sender, std::uint32_t slot) const {
    return (sender * window_ + slot) * sizeof(SlotTrailer);
  }
  std::size_t data_offset(std::size_t sender, std::uint32_t slot) const {
    return trailer_bytes() + (sender * window_ + slot) * stride();
  }
  // My own slot, in the arena after the trailer rows (senders only).
  std::byte* own_slot(std::uint32_t slot) const {
    return arena_.data() + trailer_bytes() + slot * stride();
  }
  // My own slot's send-time word, after the slots (senders only).
  std::byte* own_sent_at(std::uint32_t slot) const {
    return own_slot(window_) + slot * sizeof(sim::Nanos);
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
  struct UnmapDeleter {
    std::size_t bytes;  // the mapping's length, which munmap needs
    void operator()(std::byte* p) const noexcept;
  };
  // One allocation: every sender's trailer rows, then (at a sender) its own
  // window of slots and their send-time words. Mapped from the OS rather
  // than calloc'd: its pages are zero and stay unmapped until a write first
  // touches them, in every cluster a process builds. calloc gives that only
  // until glibc frees its first mapped chunk and raises its mmap threshold;
  // later rings then come from freed heap memory that calloc clears.
  std::unique_ptr<std::byte[], UnmapDeleter> arena_mem_;
  std::span<std::byte> arena_;
  net::RegionId region_;        // trailer rows, then memory-less data rows
  net::RegionId slots_region_;  // my own slots: the source of data writes
  std::vector<net::RegionId> peer_regions_;   // member rank -> ring region
  std::vector<const RingGroup*> sender_rings_;  // sender index -> its ring
};

}  // namespace spindle::smc
