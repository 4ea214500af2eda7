#include "fault/vsync.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <sstream>

namespace spindle::fault {

std::vector<std::byte> VsyncChecker::make_payload(net::NodeId sender,
                                                  std::uint64_t index,
                                                  std::size_t size) {
  assert(size >= kHeaderBytes);
  std::vector<std::byte> p(size);
  const std::uint64_t s = sender;
  std::memcpy(p.data(), &s, 8);
  std::memcpy(p.data() + 8, &index, 8);
  return p;
}

VsyncChecker::Tag VsyncChecker::decode(std::span<const std::byte> data) {
  Tag t;
  assert(data.size() >= kHeaderBytes);
  std::memcpy(&t.sender, data.data(), 8);
  std::memcpy(&t.index, data.data() + 8, 8);
  return t;
}

std::string VsyncChecker::tag_str(const Tag& t) {
  std::ostringstream os;
  os << "(s" << t.sender << "#" << t.index << ")";
  return os.str();
}

std::string VsyncChecker::runs_str(const std::vector<std::uint64_t>& idx) {
  std::ostringstream os;
  for (std::size_t k = 0, end; k < idx.size(); k = end) {
    for (end = k + 1; end < idx.size() && idx[end] == idx[end - 1] + 1;) ++end;
    os << (k ? "," : "") << idx[k];
    if (end - k > 1) os << ".." << idx[end - 1];
  }
  return "[" + os.str() + "]";
}

void VsyncChecker::attach(core::ManagedGroup& group) {
  nodes_ = group.view().members.size();
  subgroups_ = group.num_subgroups();
  seq_.assign(nodes_, std::vector<std::vector<Tag>>(subgroups_));
  sent_.assign(subgroups_, std::vector<std::uint64_t>(nodes_, 0));
  persistent_.assign(subgroups_, 0);
  for (std::size_t g = 0; g < subgroups_; ++g) {
    persistent_[g] =
        group.cluster().subgroup_config(static_cast<core::SubgroupId>(g))
            .opts.persistent
            ? 1
            : 0;
  }
  for (net::NodeId n = 0; n < nodes_; ++n) {
    for (std::size_t g = 0; g < subgroups_; ++g) {
      group.set_delivery_handler(n, g, [this, n, g](const core::Delivery& d) {
        seq_[n][g].push_back(decode(d.data));
      });
    }
  }
  // Total-failure recovery: archive the pre-crash segment and start a
  // fresh one. The observer fires before the replay, so the recovered
  // prefix is re-observed at the head of the new segment.
  group.add_recovery_observer(
      [this](const core::ManagedGroup::RecoveryInfo& info) {
        Episode e;
        e.info = info;
        e.pre_seq = seq_;
        episodes_.push_back(std::move(e));
        for (auto& per_node : seq_) {
          for (auto& s : per_node) s.clear();
        }
      });
}

std::uint64_t VsyncChecker::note_send(net::NodeId sender, std::size_t sg) {
  return sent_[sg][sender]++;
}

std::uint64_t VsyncChecker::delivered_from(net::NodeId node, std::size_t sg,
                                           net::NodeId sender) const {
  std::uint64_t c = 0;
  for (const Tag& t : seq_[node][sg]) {
    if (t.sender == sender) ++c;
  }
  return c;
}

std::vector<std::string> VsyncChecker::check(
    const core::ManagedGroup& group) const {
  if (!episodes_.empty()) return check_episodes(group);
  std::vector<std::string> violations;
  const auto fail = [&](std::string msg) {
    violations.push_back(std::move(msg));
  };

  // A halted group (total failure: every member suspected or departed) has
  // no survivors — its members wedged at arbitrary points, so they are held
  // to the victim contract (prefix agreement), not the survivor contract.
  const std::vector<net::NodeId>& final_members = group.view().members;
  const bool halted = group.halted();
  const auto is_survivor = [&](net::NodeId n) {
    return !halted &&
           std::find(final_members.begin(), final_members.end(), n) !=
               final_members.end();
  };
  // `prefix_of(a, b)`: a is a (possibly improper) prefix of b.
  const auto prefix_of = [](const std::vector<Tag>& a,
                            const std::vector<Tag>& b) {
    return a.size() <= b.size() && std::equal(a.begin(), a.end(), b.begin());
  };

  for (std::size_t g = 0; g < subgroups_; ++g) {
    std::ostringstream pre;
    pre << "sg" << g << ": ";

    std::vector<net::NodeId> survivors, victims;
    for (net::NodeId n = 0; n < nodes_; ++n) {
      (is_survivor(n) ? survivors : victims).push_back(n);
    }

    // (1) identical sequence at every survivor.
    for (std::size_t i = 1; i < survivors.size(); ++i) {
      if (seq_[survivors[i]][g] != seq_[survivors[0]][g]) {
        std::ostringstream os;
        os << pre.str() << "survivor node" << survivors[i]
           << " sequence (len " << seq_[survivors[i]][g].size()
           << ") differs from node" << survivors[0] << " (len "
           << seq_[survivors[0]][g].size() << ")";
        fail(os.str());
      }
    }

    // (3) per-sender FIFO, no gaps, no duplicates — at every node.
    for (net::NodeId n = 0; n < nodes_; ++n) {
      std::vector<std::uint64_t> next(nodes_, 0);
      for (const Tag& t : seq_[n][g]) {
        if (t.sender >= nodes_) {
          fail(pre.str() + "node" + std::to_string(n) +
               " delivered garbage tag " + tag_str(t));
          continue;
        }
        if (t.index != next[t.sender]) {
          std::ostringstream os;
          os << pre.str() << "node" << n << " FIFO violation: got "
             << tag_str(t) << ", expected index " << next[t.sender];
          fail(os.str());
        }
        next[t.sender] = std::max(next[t.sender], t.index + 1);
      }
    }

    // (2) exactly-once + completeness for surviving senders.
    if (!survivors.empty()) {
      const std::vector<Tag>& ref = seq_[survivors[0]][g];
      std::vector<std::uint64_t> got(nodes_, 0);
      for (const Tag& t : ref) {
        if (t.sender < nodes_) ++got[t.sender];
      }
      for (net::NodeId s : survivors) {
        if (got[s] != sent_[g][s]) {
          std::ostringstream os;
          os << pre.str() << "surviving sender node" << s << " sent "
             << sent_[g][s] << " messages but " << got[s]
             << " were delivered";
          fail(os.str());
        }
      }
      // (4) victim sequences are prefixes of the survivor sequence.
      for (net::NodeId v : victims) {
        if (!prefix_of(seq_[v][g], ref)) {
          std::ostringstream os;
          os << pre.str() << "victim node" << v << " sequence (len "
             << seq_[v][g].size()
             << ") is not a prefix of the survivors' sequence (len "
             << ref.size() << ")";
          fail(os.str());
        }
      }
    } else {
      // No survivors: all sequences must still be pairwise prefixes.
      for (std::size_t i = 0; i < victims.size(); ++i) {
        for (std::size_t j = i + 1; j < victims.size(); ++j) {
          const auto& a = seq_[victims[i]][g];
          const auto& b = seq_[victims[j]][g];
          if (!prefix_of(a, b) && !prefix_of(b, a)) {
            std::ostringstream os;
            os << pre.str() << "node" << victims[i] << " and node"
               << victims[j] << " sequences diverge";
            fail(os.str());
          }
        }
      }
    }

    // (5) persistent logs agree pairwise as prefixes.
    if (persistent_[g]) {
      std::vector<std::vector<std::vector<std::byte>>> logs(nodes_);
      for (net::NodeId n = 0; n < nodes_; ++n) {
        logs[n] = group.persistent_log(n, g);
      }
      const auto log_prefix = [](const auto& a, const auto& b) {
        return a.size() <= b.size() &&
               std::equal(a.begin(), a.end(), b.begin());
      };
      for (net::NodeId i = 0; i < nodes_; ++i) {
        for (net::NodeId j = i + 1; j < nodes_; ++j) {
          if (!log_prefix(logs[i], logs[j]) && !log_prefix(logs[j], logs[i])) {
            std::ostringstream os;
            os << pre.str() << "persistent logs of node" << i << " (len "
               << logs[i].size() << ") and node" << j << " (len "
               << logs[j].size() << ") diverge";
            fail(os.str());
          }
        }
      }
    }
  }
  return violations;
}

std::vector<std::string> VsyncChecker::check_episodes(
    const core::ManagedGroup& group) const {
  std::vector<std::string> violations;
  const auto fail = [&](std::string msg) {
    violations.push_back(std::move(msg));
  };
  const std::vector<net::NodeId>& final_members = group.view().members;
  const bool halted = group.halted();
  const auto is_final = [&](net::NodeId n) {
    return !halted &&
           std::find(final_members.begin(), final_members.end(), n) !=
               final_members.end();
  };
  const auto prefix_of = [](const std::vector<Tag>& a,
                            const std::vector<Tag>& b) {
    return a.size() <= b.size() && std::equal(a.begin(), a.end(), b.begin());
  };
  const Episode& last = episodes_.back();
  const auto is_member_of = [](const core::ManagedGroup::RecoveryInfo& info,
                               net::NodeId n) {
    return std::find(info.members.begin(), info.members.end(), n) !=
           info.members.end();
  };

  for (std::size_t g = 0; g < subgroups_; ++g) {
    std::ostringstream pre;
    pre << "sg" << g << ": ";

    // (6) archived segments: all nodes' observations pairwise prefixes
    // (everyone died — nobody owes completeness).
    for (std::size_t ei = 0; ei < episodes_.size(); ++ei) {
      const Episode& e = episodes_[ei];
      for (net::NodeId i = 0; i < nodes_; ++i) {
        for (net::NodeId j = i + 1; j < nodes_; ++j) {
          if (!prefix_of(e.pre_seq[i][g], e.pre_seq[j][g]) &&
              !prefix_of(e.pre_seq[j][g], e.pre_seq[i][g])) {
            std::ostringstream os;
            os << pre.str() << "episode " << ei << ": node" << i
               << " and node" << j << " pre-crash sequences diverge";
            fail(os.str());
          }
        }
      }
    }

    // (7) the recovered prefix is common, identical, and durable: each
    // rejoiner's pre-crash log covers it, all rejoiners agree on its
    // content, and the post-recovery log still starts with it.
    for (std::size_t ei = 0; ei < episodes_.size(); ++ei) {
      const Episode& e = episodes_[ei];
      const std::size_t lcp = e.info.common_prefix[g];
      const std::vector<std::vector<std::byte>>* ref = nullptr;
      net::NodeId ref_node = 0;
      for (net::NodeId m : e.info.members) {
        if (e.info.pre_logs[g][m].empty() && lcp == 0) continue;
        if (e.info.pre_logs[g][m].size() < lcp) {
          std::ostringstream os;
          os << pre.str() << "episode " << ei << ": rejoiner node" << m
             << " pre-crash log (len " << e.info.pre_logs[g][m].size()
             << ") is shorter than the common prefix (" << lcp << ")";
          fail(os.str());
          continue;
        }
        if (ref == nullptr) {
          ref = &e.info.pre_logs[g][m];
          ref_node = m;
          continue;
        }
        if (!std::equal(ref->begin(), ref->begin() + static_cast<long>(lcp),
                        e.info.pre_logs[g][m].begin())) {
          std::ostringstream os;
          os << pre.str() << "episode " << ei << ": node" << ref_node
             << " and node" << m << " disagree inside the common prefix";
          fail(os.str());
        }
      }
      if (ref != nullptr && ei + 1 == episodes_.size()) {
        for (net::NodeId m : e.info.members) {
          const auto log = group.persistent_log(m, g);
          if (log.size() < lcp ||
              !std::equal(ref->begin(),
                          ref->begin() + static_cast<long>(lcp),
                          log.begin())) {
            std::ostringstream os;
            os << pre.str() << "node" << m
               << " post-recovery log does not start with the recovered "
                  "prefix (len "
               << lcp << ")";
            fail(os.str());
          }
        }
      }
    }

    // (1) final members observe identical final-segment sequences.
    std::vector<net::NodeId> finals;
    for (net::NodeId n = 0; n < nodes_; ++n) {
      if (is_final(n)) finals.push_back(n);
    }
    for (std::size_t i = 1; i < finals.size(); ++i) {
      if (seq_[finals[i]][g] != seq_[finals[0]][g]) {
        std::ostringstream os;
        os << pre.str() << "final member node" << finals[i]
           << " sequence (len " << seq_[finals[i]][g].size()
           << ") differs from node" << finals[0] << " (len "
           << seq_[finals[0]][g].size() << ")";
        fail(os.str());
      }
    }
    // Non-final nodes of the last segment are still held to prefix
    // agreement against the final members (or pairwise when halted).
    for (net::NodeId i = 0; i < nodes_; ++i) {
      for (net::NodeId j = i + 1; j < nodes_; ++j) {
        if (is_final(i) && is_final(j)) continue;
        if (!prefix_of(seq_[i][g], seq_[j][g]) &&
            !prefix_of(seq_[j][g], seq_[i][g])) {
          std::ostringstream os;
          os << pre.str() << "final segment: node" << i << " and node" << j
             << " sequences diverge";
          fail(os.str());
        }
      }
    }

    // (8) the recovery loss rule: per sender the final segment re-observes
    // the sender's indices inside the common durable prefix and resumes
    // where its send queue does (nothing the durable log covered is lost;
    // nothing past the send queue's progress is invented). Rejoined
    // senders owe completeness through sent_.
    if (!finals.empty()) {
      std::vector<std::vector<std::uint64_t>> d;
      std::vector<std::uint64_t> resume;
      current_shape(g, d, resume);
      const std::vector<Tag>& ref = seq_[finals[0]][g];
      for (net::NodeId s = 0; s < nodes_; ++s) {
        std::vector<std::uint64_t> idx;
        for (const Tag& t : ref) {
          if (t.sender == s) idx.push_back(t.index);
        }
        const bool rejoined = is_member_of(last.info, s);
        std::vector<std::uint64_t> expect = d[s];
        if (rejoined) {
          for (std::uint64_t k = resume[s]; k < sent_[g][s]; ++k) {
            expect.push_back(k);
          }
        }
        // A rejoiner that departed again (post-recovery suspicion) owes
        // no completeness: its resumed stream may cut off early, but what
        // was observed must still be the head of the expected shape and
        // cover the replayed prefix.
        const bool departed_again = rejoined && !is_final(s);
        const bool ok =
            departed_again
                ? idx.size() >= d[s].size() && idx.size() <= expect.size() &&
                      std::equal(idx.begin(), idx.end(), expect.begin())
                : idx == expect;
        if (!ok) {
          std::ostringstream os;
          os << pre.str() << "sender node" << s << " final-segment indices "
             << "violate the recovery shape: got " << runs_str(idx)
             << ", expected " << runs_str(d[s]);
          if (rejoined) {
            os << " ++ [" << resume[s] << ".." << sent_[g][s] << ")";
          }
          fail(os.str());
        }
      }
    }

    // (5) persistent logs, episode-aware: rejoiners agree pairwise as
    // prefixes; dead nodes keep their pre-crash logs, which agree with a
    // rejoiner's log only up to the recovered prefix (a dead node's
    // durable suffix was legitimately discarded).
    if (persistent_[g]) {
      const std::size_t lcp = last.info.common_prefix[g];
      std::vector<std::vector<std::vector<std::byte>>> logs(nodes_);
      for (net::NodeId n = 0; n < nodes_; ++n) {
        logs[n] = group.persistent_log(n, g);
      }
      const auto log_prefix = [](const auto& a, const auto& b) {
        return a.size() <= b.size() &&
               std::equal(a.begin(), a.end(), b.begin());
      };
      for (net::NodeId i = 0; i < nodes_; ++i) {
        for (net::NodeId j = i + 1; j < nodes_; ++j) {
          const bool mi = is_member_of(last.info, i);
          const bool mj = is_member_of(last.info, j);
          if (mi != mj) {
            // Cross rejoiner/dead: agreement only inside the prefix.
            const std::size_t overlap =
                std::min({logs[i].size(), logs[j].size(), lcp});
            if (!std::equal(logs[i].begin(),
                            logs[i].begin() + static_cast<long>(overlap),
                            logs[j].begin())) {
              std::ostringstream os;
              os << pre.str() << "node" << i << " and node" << j
                 << " logs disagree inside the recovered prefix";
              fail(os.str());
            }
            continue;
          }
          if (!log_prefix(logs[i], logs[j]) &&
              !log_prefix(logs[j], logs[i])) {
            std::ostringstream os;
            os << pre.str() << "persistent logs of node" << i << " (len "
               << logs[i].size() << ") and node" << j << " (len "
               << logs[j].size() << ") diverge";
            fail(os.str());
          }
        }
      }
    }
  }
  return violations;
}

std::vector<std::vector<std::uint64_t>> VsyncChecker::durable_of(
    const Episode& e, std::size_t g) const {
  // The prefix respects delivery order, so each sender's indices inside it
  // ascend. They need not be [0 .. n): an earlier episode may have lost a
  // delivered message that was not yet durable.
  std::vector<std::vector<std::uint64_t>> d(nodes_);
  const std::size_t lcp = e.info.common_prefix[g];
  const std::vector<std::vector<std::byte>>* ref = nullptr;
  for (net::NodeId m : e.info.members) {
    if (e.info.pre_logs[g][m].size() >= lcp) {
      ref = &e.info.pre_logs[g][m];
      break;
    }
  }
  if (ref != nullptr) {
    for (std::size_t k = 0; k < lcp; ++k) {
      const Tag t = decode((*ref)[k]);
      if (t.sender < nodes_) d[t.sender].push_back(t.index);
    }
  }
  return d;
}

void VsyncChecker::current_shape(
    std::size_t g, std::vector<std::vector<std::uint64_t>>& durable,
    std::vector<std::uint64_t>& resume) const {
  durable = durable_of(episodes_.back(), g);
  // Each sender's queue front: one past its highest self-delivered index
  // (a self-delivery pops the front; a replayed index is durable), and
  // past its highest durable index in every recovery it joined (the group
  // drops queued entries the replay already covers).
  resume.assign(nodes_, 0);
  for (const Episode& e : episodes_) {
    const auto d = durable_of(e, g);
    for (net::NodeId s = 0; s < nodes_; ++s) {
      for (const Tag& t : e.pre_seq[s][g]) {
        if (t.sender == s) resume[s] = std::max(resume[s], t.index + 1);
      }
      const auto& m = e.info.members;
      if (!d[s].empty() && std::find(m.begin(), m.end(), s) != m.end()) {
        resume[s] = std::max(resume[s], d[s].back() + 1);
      }
    }
  }
}

std::uint64_t VsyncChecker::expected_current_from(std::size_t sg,
                                                  net::NodeId sender,
                                                  std::uint64_t sent) const {
  if (episodes_.empty()) return sent;
  std::vector<std::vector<std::uint64_t>> durable;
  std::vector<std::uint64_t> resume;
  current_shape(sg, durable, resume);
  const std::uint64_t replayed = durable[sender].size();
  const auto& members = episodes_.back().info.members;
  if (std::find(members.begin(), members.end(), sender) == members.end()) {
    return replayed;
  }
  return replayed + (sent > resume[sender] ? sent - resume[sender] : 0);
}

}  // namespace spindle::fault
