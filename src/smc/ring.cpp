#include "smc/ring.hpp"

#include <sys/mman.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace spindle::smc {

void RingGroup::UnmapDeleter::operator()(std::byte* p) const noexcept {
  munmap(p, bytes);
}

RingGroup::RingGroup(net::Fabric& fabric, net::NodeId self,
                     std::vector<net::NodeId> members,
                     std::size_t my_sender_index, std::size_t num_senders,
                     std::uint32_t window, std::uint32_t max_msg_size)
    : fabric_(fabric),
      self_(self),
      members_(std::move(members)),
      my_sender_(my_sender_index),
      num_senders_(num_senders),
      window_(window),
      max_msg_(max_msg_size) {
  assert(window_ > 0 && max_msg_ > 0 && num_senders_ > 0);
  const std::size_t own = is_sender() ? window_ * stride() : 0;
  const std::size_t times = is_sender() ? window_ * sizeof(sim::Nanos) : 0;
  const std::size_t bytes = trailer_bytes() + own + times;
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  arena_mem_ = {static_cast<std::byte*>(mem), UnmapDeleter{bytes}};
  arena_ = {arena_mem_.get(), bytes};
  region_ = fabric_.register_region(self_, arena_.first(trailer_bytes()),
                                    net::Channel::bulk,
                                    num_senders_ * window_ * stride());
  if (is_sender()) {
    slots_region_ =
        fabric_.register_region(self_, arena_.subspan(trailer_bytes(), own));
  }
  peer_regions_.resize(members_.size());
  sender_rings_.resize(num_senders_, nullptr);
}

void RingGroup::connect(std::span<RingGroup* const> instances) {
  for (RingGroup* a : instances) {
    for (RingGroup* b : instances) {
      for (std::size_t rank = 0; rank < a->members_.size(); ++rank) {
        if (b->self_ == a->members_[rank]) a->peer_regions_[rank] = b->region_;
      }
      if (b->is_sender()) a->sender_rings_[b->my_sender_] = b;
    }
  }
}

std::span<std::byte> RingGroup::slot_data(std::int64_t msg_index) {
  assert(is_sender());
  const auto slot = static_cast<std::uint32_t>(msg_index % window_);
  return {own_slot(slot), max_msg_};
}

void RingGroup::mark_ready(std::int64_t msg_index, std::uint32_t len,
                           std::uint32_t flags, sim::Nanos sent_at) {
  assert(is_sender());
  assert(len <= max_msg_);
  const auto slot = static_cast<std::uint32_t>(msg_index % window_);
  SlotTrailer t{len, flags, msg_index + 1};
  std::memcpy(arena_.data() + trailer_offset(my_sender_, slot), &t, sizeof t);
  std::memcpy(own_sent_at(slot), &sent_at, sizeof sent_at);
}

sim::Nanos RingGroup::push_ranges(std::int64_t first, std::int64_t last,
                                  std::span<const std::size_t> targets,
                                  bool trailers) {
  assert(is_sender());
  assert(first <= last);
  assert(last - first <= static_cast<std::int64_t>(window_) &&
         "batch larger than the ring");
  if (first == last) return 0;

  // Split [first, last) at ring wraparound into at most two segments of
  // consecutive slots.
  struct Segment {
    std::uint32_t slot;
    std::uint32_t count;
  };
  Segment segs[2];
  int n_segs = 0;
  const auto first_slot = static_cast<std::uint32_t>(first % window_);
  const auto total = static_cast<std::uint32_t>(last - first);
  if (first_slot + total <= window_) {
    segs[n_segs++] = {first_slot, total};
  } else {
    segs[n_segs++] = {first_slot, window_ - first_slot};
    segs[n_segs++] = {0, total - (window_ - first_slot)};
  }

  // Trailers go from my trailer row to the same offset of each peer's
  // ring region; data from my own slots into the peers' memory-less data
  // rows. Both land in one region, so the per-link FIFO orders them.
  const net::RegionId src = trailers ? region_ : slots_region_;
  const std::size_t unit = trailers ? sizeof(SlotTrailer) : stride();
  sim::Nanos cost = 0;
  for (int i = 0; i < n_segs; ++i) {
    const std::uint32_t slot = segs[i].slot;
    const std::size_t src_off =
        trailers ? trailer_offset(my_sender_, slot) : slot * stride();
    const std::size_t dst_off = trailers ? trailer_offset(my_sender_, slot)
                                         : data_offset(my_sender_, slot);
    const std::size_t len = segs[i].count * unit;
    for (std::size_t rank : targets) {
      if (members_[rank] == self_) continue;
      assert(peer_regions_[rank].valid() && "RingGroup not connected");
      // Zero-copy from the registered arena: the slots stay untouched until
      // every receiver has consumed them, so they are stable until landing.
      cost += fabric_.post_write(src, src_off, len, peer_regions_[rank],
                                 dst_off);
    }
  }
  return cost;
}

sim::Nanos RingGroup::push_data(std::int64_t first, std::int64_t last,
                                std::span<const std::size_t> targets) {
  return push_ranges(first, last, targets, /*trailers=*/false);
}

sim::Nanos RingGroup::push_trailers(std::int64_t first, std::int64_t last,
                                    std::span<const std::size_t> targets) {
  return push_ranges(first, last, targets, /*trailers=*/true);
}

SlotTrailer RingGroup::trailer(std::size_t sender,
                               std::int64_t msg_index) const {
  assert(sender < num_senders_);
  const auto slot = static_cast<std::uint32_t>(msg_index % window_);
  SlotTrailer t;
  std::memcpy(&t, arena_.data() + trailer_offset(sender, slot), sizeof t);
  return t;
}

Message RingGroup::message(std::size_t sender, std::int64_t msg_index,
                           std::uint32_t len) const {
  assert(sender < num_senders_);
  assert(len <= max_msg_);
  const RingGroup* owner = sender_rings_[sender];
  assert(owner != nullptr && "RingGroup not connected");
  const auto slot = static_cast<std::uint32_t>(msg_index % window_);
  // The sender's own trailer row says which message its slot holds.
  const SlotTrailer t = owner->trailer(sender, msg_index);
  if (t.count != msg_index + 1) {
    std::fprintf(stderr,
                 "smc::RingGroup: sender %zu's slot %u no longer holds its "
                 "message %lld (the sender's trailer reads count %lld)\n",
                 sender, slot, static_cast<long long>(msg_index),
                 static_cast<long long>(t.count));
    std::abort();
  }
  sim::Nanos sent_at;
  std::memcpy(&sent_at, owner->own_sent_at(slot), sizeof sent_at);
  return {{owner->own_slot(slot), len}, sent_at};
}

}  // namespace spindle::smc
