#include "metrics/registry.hpp"

#include <algorithm>

namespace spindle::metrics {

const NodeStats* ClusterStats::node(std::uint32_t id) const {
  for (const NodeStats& n : nodes) {
    if (n.node == id) return &n;
  }
  return nullptr;
}

const SubgroupStats* ClusterStats::subgroup(std::uint32_t id) const {
  for (const SubgroupStats& s : subgroups) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

const RelayTierStats* ClusterStats::relay(std::uint32_t relay_node) const {
  for (const RelayTierStats& r : relays) {
    if (r.relay_node == relay_node) return &r;
  }
  return nullptr;
}

void ClusterStats::finalize() {
  total = ProtocolCounters{};
  subgroups.clear();
  for (const NodeStats& n : nodes) {
    total.merge(n.counters);
    for (const SubgroupStats& s : n.subgroups) {
      auto it = std::find_if(subgroups.begin(), subgroups.end(),
                             [&](const SubgroupStats& m) { return m.id == s.id; });
      if (it == subgroups.end()) {
        subgroups.push_back(SubgroupStats{s.id, s.name, 0, 0, 0, {}});
        it = subgroups.end() - 1;
      }
      it->messages_delivered += s.messages_delivered;
      it->predicate_cpu += s.predicate_cpu;
      it->counter_writes += s.counter_writes;
      it->sched_serviced += s.sched_serviced;
      it->sched_parks += s.sched_parks;
      for (const PredicateStat& p : s.predicates) {
        auto pit = std::find_if(
            it->predicates.begin(), it->predicates.end(),
            [&](const PredicateStat& m) { return m.name == p.name; });
        if (pit == it->predicates.end()) {
          it->predicates.push_back(PredicateStat{p.name, 0, 0, 0});
          pit = it->predicates.end() - 1;
        }
        pit->evals += p.evals;
        pit->fires += p.fires;
        pit->cpu += p.cpu;
      }
    }
  }
  std::sort(subgroups.begin(), subgroups.end(),
            [](const SubgroupStats& a, const SubgroupStats& b) {
              return a.id < b.id;
            });
}

ClusterStats Registry::snapshot() const {
  ClusterStats stats;
  for (const Collector& c : collectors_) c(stats);
  stats.finalize();
  return stats;
}

}  // namespace spindle::metrics
