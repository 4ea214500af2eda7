#include "sst/sst.hpp"

#include <algorithm>
#include <cstring>

namespace spindle::sst {

namespace {
constexpr std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }
}  // namespace

FieldId Layout::add_i64(std::string name) {
  return add_bytes(std::move(name), sizeof(std::int64_t));
}

FieldId Layout::add_bytes(std::string name, std::size_t size) {
  Field f{std::move(name), size_, align8(size)};
  size_ += f.size;
  fields_.push_back(std::move(f));
  return FieldId{static_cast<std::uint32_t>(fields_.size() - 1)};
}

Sst::Sst(net::Fabric& fabric, net::NodeId self,
         std::vector<net::NodeId> members, Layout layout)
    : fabric_(fabric), members_(std::move(members)), layout_(std::move(layout)) {
  auto it = std::find(members_.begin(), members_.end(), self);
  assert(it != members_.end() && "self must be a member");
  my_rank_ = static_cast<std::size_t>(it - members_.begin());
  table_.assign(members_.size() * layout_.row_size(), std::byte{0});
  // The SST rides its own QPs (control channel): tiny monotonic updates
  // that must not queue behind SMC bulk data.
  my_region_ = fabric_.register_region(self, std::span<std::byte>(table_),
                                       net::Channel::control);
  peer_regions_.resize(members_.size());
}

void Sst::connect(std::span<Sst* const> instances) {
  for (Sst* a : instances) {
    for (Sst* b : instances) {
      // a learns the region of the member that owns b's table.
      a->peer_regions_[b->my_rank_] = b->my_region_;
    }
  }
}

sim::Nanos Sst::push(FieldId first, FieldId last,
                     std::span<const std::size_t> targets) {
  const std::size_t begin = layout_.field_offset(first);
  const std::size_t end = layout_.field_offset(last) + layout_.field_size(last);
  assert(begin <= end);
  const std::size_t row_off = my_rank_ * layout_.row_size() + begin;
  const std::size_t len = end - begin;

  // Inline writes snapshot the fields at post, so the owner may keep
  // updating its row while the push is in flight. A range wider than the
  // inline limit goes out as consecutive inline writes, which the per-QP
  // FIFO lands in order.
  sim::Nanos cost = 0;
  const net::NodeId self = members_[my_rank_];
  for (std::size_t rank : targets) {
    if (rank == my_rank_) continue;
    assert(peer_regions_[rank].valid() && "Sst group not connected");
    for (std::size_t done = 0; done < len; done += net::Fabric::kMaxInline) {
      const std::size_t off = row_off + done;
      const std::size_t n = std::min(net::Fabric::kMaxInline, len - done);
      cost += fabric_.post_write(self, peer_regions_[rank], off,
                                 {table_.data() + off, n});
    }
  }
  return cost;
}

}  // namespace spindle::sst
