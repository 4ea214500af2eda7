// Recovery-time bench: crash one member of a group under continuous load
// and measure the unavailability window the view change imposes — failure
// detection (the heartbeat timeout dominates), wedge-to-install, and the
// first post-install delivery — plus the throughput dip at a surviving
// observer. Sweeps the failure timeout, the group size, and the victim
// role (leader vs. follower).

#include <cstdio>
#include <map>
#include <tuple>

#include "bench_util.hpp"
#include "workload/recovery.hpp"
#include "workload/table.hpp"

namespace {

using spindle::workload::RecoveryConfig;
using spindle::workload::RecoveryResult;
using spindle::workload::Table;
using spindle::workload::run_recovery;

std::string us(spindle::sim::Nanos ns) {
  return Table::num(static_cast<double>(ns) / 1000.0, 1);
}

void record(spindle::bench::BenchReport& report, const std::string& label,
            const RecoveryResult& r) {
  report.add_metric(label + "/detect_us",
                    static_cast<double>(r.detect_ns) / 1e3);
  report.add_metric(label + "/install_us",
                    static_cast<double>(r.install_ns) / 1e3);
  report.add_metric(label + "/max_gap_us",
                    static_cast<double>(r.max_gap_ns) / 1e3);
  report.add_metric(label + "/post_mmps", r.post_mmps);
}

}  // namespace

int main() {
  // The sweeps share configurations (the group-size sweep's 4-node row is
  // the victim sweep's node3 row): simulate each one once.
  std::map<std::tuple<std::size_t, spindle::net::NodeId, spindle::sim::Nanos>,
           RecoveryResult>
      runs;
  const auto run = [&runs](const RecoveryConfig& cfg) -> const RecoveryResult& {
    const auto key = std::make_tuple(cfg.nodes, cfg.victim, cfg.failure_timeout);
    auto it = runs.find(key);
    if (it == runs.end()) it = runs.emplace(key, run_recovery(cfg)).first;
    return it->second;
  };
  spindle::bench::BenchReport report("recovery_fault");
  {
    // Continuous-load scenario: the message count is horizon / send period.
    const RecoveryConfig base;
    report.set_provenance(
        base.seed,
        static_cast<std::uint64_t>(base.horizon / base.send_interval));
  }
  {
    Table t("Recovery vs. failure timeout (4 nodes, follower crash)",
            {"timeout_us", "detect_us", "install_us", "first_delv_us",
             "max_gap_us", "pre_Mmsg_s", "post_Mmsg_s"});
    for (const spindle::sim::Nanos timeout :
         {spindle::sim::micros(100), spindle::sim::micros(200),
          spindle::sim::micros(400), spindle::sim::micros(800),
          spindle::sim::micros(1600)}) {
      RecoveryConfig cfg;
      cfg.failure_timeout = timeout;
      const RecoveryResult& r = run(cfg);
      record(report, "timeout_us_" + us(timeout), r);
      t.row({us(timeout), us(r.detect_ns), us(r.install_ns),
             us(r.first_delivery_ns), us(r.max_gap_ns),
             Table::num(r.pre_mmps, 2), Table::num(r.post_mmps, 2)});
    }
    t.print();
  }

  {
    Table t("Recovery vs. group size (400us timeout, follower crash)",
            {"nodes", "detect_us", "install_us", "first_delv_us",
             "max_gap_us", "pre_Mmsg_s", "post_Mmsg_s"});
    for (const std::size_t nodes : {3, 4, 6, 8}) {
      RecoveryConfig cfg;
      cfg.nodes = nodes;
      cfg.victim = static_cast<spindle::net::NodeId>(nodes - 1);
      const RecoveryResult& r = run(cfg);
      record(report, "nodes_" + std::to_string(nodes), r);
      t.row({Table::integer(nodes), us(r.detect_ns), us(r.install_ns),
             us(r.first_delivery_ns), us(r.max_gap_ns),
             Table::num(r.pre_mmps, 2), Table::num(r.post_mmps, 2)});
    }
    t.print();
  }

  {
    Table t("Recovery vs. victim role (4 nodes, 400us timeout)",
            {"victim", "detect_us", "install_us", "first_delv_us",
             "max_gap_us", "post_Mmsg_s"});
    for (const spindle::net::NodeId victim : {0, 1, 3}) {
      RecoveryConfig cfg;
      cfg.victim = victim;
      const RecoveryResult& r = run(cfg);
      record(report, victim == 0 ? "leader" : "node" + std::to_string(victim),
             r);
      t.row({victim == 0 ? "leader" : "node" + std::to_string(victim),
             us(r.detect_ns), us(r.install_ns), us(r.first_delivery_ns),
             us(r.max_gap_ns), Table::num(r.post_mmps, 2)});
    }
    t.print();
  }
  report.write();
  return 0;
}
