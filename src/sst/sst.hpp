#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "net/fabric.hpp"

namespace spindle::sst {

/// Index of a field (column) in an SST row.
struct FieldId {
  std::uint32_t index = UINT32_MAX;
  bool valid() const noexcept { return index != UINT32_MAX; }
};

/// Row layout builder. Fields are laid out in declaration order, 8-byte
/// aligned, so that a push of fields [first..last] is one contiguous byte
/// range (one RDMA write per net::Fabric::kMaxInline bytes).
class Layout {
 public:
  FieldId add_i64(std::string name);
  FieldId add_bytes(std::string name, std::size_t size);

  std::size_t row_size() const noexcept { return size_; }
  std::size_t field_offset(FieldId f) const { return fields_[f.index].offset; }
  std::size_t field_size(FieldId f) const { return fields_[f.index].size; }
  const std::string& field_name(FieldId f) const {
    return fields_[f.index].name;
  }

 private:
  struct Field {
    std::string name;
    std::size_t offset;
    std::size_t size;
  };
  std::vector<Field> fields_;
  std::size_t size_ = 0;
};

/// Shared State Table (paper §2.2).
///
/// A replicated table: one row per member, columns = monotonic state
/// variables. A node may write only its own row, and *pushes* it to chosen
/// peers with one-sided RDMA writes; remote rows are read from the local
/// copy (never over the wire). All fields are expected to evolve
/// monotonically; combined with the fabric's per-link FIFO this gives the
/// lock-free visibility guarantees Derecho's predicates rely on: any
/// observer sees each variable as a non-decreasing sequence, and a push of
/// range A followed by a push of range B is never observed as B-without-A.
///
/// Multi-cache-line data uses the guard idiom: write the payload field,
/// push it, then bump + push an i64 guard counter (see push()).
class Sst {
 public:
  /// `members` are fabric node ids; row r belongs to members[r]. Every
  /// participant must construct its Sst with the identical member list and
  /// layout, then the group is wired with connect().
  Sst(net::Fabric& fabric, net::NodeId self, std::vector<net::NodeId> members,
      Layout layout);

  /// Exchange region handles among all members' Sst instances (simulates
  /// the out-of-band address exchange done at view installation).
  static void connect(std::span<Sst* const> instances);

  std::size_t num_rows() const noexcept { return members_.size(); }
  std::size_t my_rank() const noexcept { return my_rank_; }
  const std::vector<net::NodeId>& members() const noexcept { return members_; }
  const Layout& layout() const noexcept { return layout_; }

  std::int64_t read_i64(std::size_t row, FieldId f) const {
    std::int64_t v;
    std::memcpy(&v, row_ptr(row) + layout_.field_offset(f), sizeof v);
    return v;
  }

  /// Update own row (local copy only; becomes remotely visible on push).
  void write_local_i64(FieldId f, std::int64_t v) {
    std::memcpy(my_row_ptr() + layout_.field_offset(f), &v, sizeof v);
  }

  /// Set field `f` of *every* row in the local copy. Only valid when a view
  /// is installed: models the agreed initial state it starts from (e.g.
  /// received_num = delivered_num = -1, no suspicions).
  void init_field_all_rows_i64(FieldId f, std::int64_t v) {
    for (std::size_t r = 0; r < members_.size(); ++r) {
      std::memcpy(table_.data() + r * layout_.row_size() +
                      layout_.field_offset(f),
                  &v, sizeof v);
    }
  }

  std::span<const std::byte> read_bytes(std::size_t row, FieldId f) const {
    return {row_ptr(row) + layout_.field_offset(f), layout_.field_size(f)};
  }
  std::span<std::byte> local_bytes(FieldId f) {
    return {my_row_ptr() + layout_.field_offset(f), layout_.field_size(f)};
  }

  /// Push the contiguous field range [first..last] of the local row to each
  /// member whose rank appears in `targets` (self is skipped), as inline
  /// writes: the values are those at the time of the push. A range wider
  /// than net::Fabric::kMaxInline takes one write per kMaxInline bytes.
  /// Returns the CPU post cost to charge: callers must co_await
  /// engine().sleep(cost).
  sim::Nanos push(FieldId first, FieldId last,
                  std::span<const std::size_t> targets);
  sim::Nanos push_field(FieldId f, std::span<const std::size_t> targets) {
    return push(f, f, targets);
  }

  net::Fabric& fabric() noexcept { return fabric_; }

  /// Signal `s` whenever a peer's push lands in this table (see
  /// net::Fabric::set_landing_signal). With `replaces_doorbell`, `s` rings
  /// instead of the node's doorbell, so a table with its own reader does
  /// not wake the node's data-plane poller; without it, after the doorbell.
  /// nullptr detaches.
  void set_landing_signal(sim::Signal* s, bool replaces_doorbell) {
    fabric_.set_landing_signal(my_region_, s, replaces_doorbell);
  }

 private:
  const std::byte* row_ptr(std::size_t row) const {
    assert(row < members_.size());
    return table_.data() + row * layout_.row_size();
  }
  std::byte* my_row_ptr() {
    return table_.data() + my_rank_ * layout_.row_size();
  }

  net::Fabric& fabric_;
  std::vector<net::NodeId> members_;
  std::size_t my_rank_;
  Layout layout_;
  std::vector<std::byte> table_;          // local copy: rows * row_size
  net::RegionId my_region_;               // our table, registered
  std::vector<net::RegionId> peer_regions_;  // rank -> peer's table region
};

}  // namespace spindle::sst
