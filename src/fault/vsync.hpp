#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/view.hpp"

namespace spindle::fault {

/// Reusable virtual-synchrony invariant checker.
///
/// Attach to a ManagedGroup before sending: the checker installs delivery
/// handlers on every (node, subgroup) and records the delivery sequences
/// across all views. Payloads must be built with make_payload(), which
/// embeds (sender, per-sender index) in the first 16 bytes. After the run,
/// check() verifies the full virtual-synchrony contract:
///
///   1. every surviving member observed the identical delivery sequence;
///   2. exactly-once and complete delivery for every surviving sender
///      (each message noted via note_send appears exactly once);
///   3. every node's sequence is per-sender FIFO with no gaps or
///      duplicates — including nodes that crashed mid-run;
///   4. a victim's sequence is a prefix of the survivors' sequence (if no
///      member survived, all victim sequences are pairwise prefixes);
///   5. for persistent subgroups, on-disk logs agree pairwise as prefixes
///      across all nodes (a crash may truncate, never diverge).
///
/// Total-failure recovery: the checker registers a recovery observer, so a
/// run may contain *episodes* — a pre-crash segment archived at each
/// recovery, then a fresh segment for the recovered group. Episode-aware
/// checks replace the plain contract:
///
///   6. within every archived segment, all nodes' sequences are pairwise
///      prefixes (everyone died; nobody is held to completeness);
///   7. the recovered prefix equals the longest common durable prefix of
///      the rejoiners' logs — identical across members, and a prefix of
///      every member's pre-crash durable log;
///   8. after recovery, each node re-observes exactly the common prefix
///      and then resumes: per sender the delivered indices are its indices
///      inside the prefix, then [resumed ..), where `resumed` is the
///      larger of one past its highest durable index and where its send
///      queue stood after its pre-crash self-deliveries (the
///      delivered-but-not-durable suffix is lost — durable Paxos loses
///      nothing it acknowledged, i.e. nothing below the persisted
///      frontier — so after a lossy episode a sender's durable indices
///      can have gaps); completeness then applies to rejoined senders.
///
/// check() returns human-readable violation strings; empty means pass.
class VsyncChecker {
 public:
  static constexpr std::size_t kHeaderBytes = 16;

  /// Payload of `size` bytes (>= kHeaderBytes) tagged with (sender, index).
  static std::vector<std::byte> make_payload(net::NodeId sender,
                                             std::uint64_t index,
                                             std::size_t size);

  /// Install recording delivery handlers for every node and subgroup.
  /// Must be called before the app installs its own handlers (the checker
  /// owns the delivery handler slot; it forwards nothing).
  void attach(core::ManagedGroup& group);

  /// Record that `sender` submitted its next message to subgroup `sg`
  /// (enables the completeness half of invariant 2). Returns the message's
  /// per-sender index, for make_payload().
  std::uint64_t note_send(net::NodeId sender, std::size_t sg);

  /// Messages delivered at `node` in `sg` that were sent by `sender`.
  std::uint64_t delivered_from(net::NodeId node, std::size_t sg,
                               net::NodeId sender) const;

  /// Total messages delivered at `node` in `sg`.
  std::size_t delivered_total(net::NodeId node, std::size_t sg) const {
    return seq_[node][sg].size();
  }

  /// Run all invariant checks. `group` supplies the final view (survivor
  /// set) and the persistent logs.
  std::vector<std::string> check(const core::ManagedGroup& group) const;

  /// Total-failure recoveries observed so far.
  std::size_t episodes() const { return episodes_.size(); }

  /// How many of `sender`'s messages a member of the last recovery view
  /// should eventually deliver in the current segment, given that the
  /// sender submitted `sent` messages in total: the replayed durable
  /// prefix plus the resumed tail (rejoined senders), or the prefix alone
  /// (senders that never restarted). Equals `sent` when no recovery
  /// happened. Drives chaos-run completion detection.
  std::uint64_t expected_current_from(std::size_t sg, net::NodeId sender,
                                      std::uint64_t sent) const;

 private:
  struct Tag {
    std::uint64_t sender = 0;
    std::uint64_t index = 0;
    bool operator==(const Tag&) const = default;
  };
  /// One archived pre-crash segment plus what the recovery computed.
  struct Episode {
    core::ManagedGroup::RecoveryInfo info;
    // [node][sg] -> the deliveries each node observed before the crash
    // (since the previous episode, if any).
    std::vector<std::vector<std::vector<Tag>>> pre_seq;
  };
  static Tag decode(std::span<const std::byte> data);
  static std::string tag_str(const Tag& t);
  /// Ascending indices as runs: "[0..5,7..29]".
  static std::string runs_str(const std::vector<std::uint64_t>& idx);
  /// The episode-aware contract (invariants 6-8 plus the per-segment
  /// versions of 1/3/5); used when at least one recovery was observed.
  std::vector<std::string> check_episodes(
      const core::ManagedGroup& group) const;
  /// Per sender, its message indices inside episode `e`'s common durable
  /// prefix, in delivery order.
  std::vector<std::vector<std::uint64_t>> durable_of(const Episode& e,
                                                     std::size_t g) const;
  /// Per-sender recovery shape for the current segment: `durable` = the
  /// replayed indices, `resume` = the message number each rejoined
  /// sender's queue resumes from.
  void current_shape(std::size_t g,
                     std::vector<std::vector<std::uint64_t>>& durable,
                     std::vector<std::uint64_t>& resume) const;

  std::size_t nodes_ = 0;
  std::size_t subgroups_ = 0;
  // [node][sg] -> delivery sequence observed in the current segment (the
  // whole run when no total failure occurred).
  std::vector<std::vector<std::vector<Tag>>> seq_;
  // [sg][sender] -> number of messages submitted.
  std::vector<std::vector<std::uint64_t>> sent_;
  std::vector<char> persistent_;  // per subgroup
  std::vector<Episode> episodes_;
};

}  // namespace spindle::fault
