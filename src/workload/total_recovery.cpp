#include "workload/total_recovery.hpp"

#include <algorithm>
#include <vector>

namespace spindle::workload {

TotalRecoveryResult run_total_recovery(const TotalRecoveryConfig& cfg) {
  core::ManagedGroup::Config gc;
  gc.nodes = cfg.nodes;
  gc.seed = cfg.seed;
  gc.failure_timeout = cfg.failure_timeout;
  const std::uint32_t msg_size = cfg.msg_size;
  core::ManagedGroup group(gc, [msg_size](const core::View& v) {
    core::SubgroupConfig sc;
    sc.name = "total-recovery";
    sc.members = v.members;
    sc.senders = v.members;
    sc.opts = core::ProtocolOptions::spindle();
    sc.opts.max_msg_size = msg_size;
    sc.opts.window_size = 16;
    sc.opts.persistent = true;
    return std::vector<core::SubgroupConfig>{sc};
  });
  group.start();
  sim::Engine& eng = group.engine();

  TotalRecoveryResult r;

  // The recovery observer fires after the durable-count exchange and LCP
  // agreement, before the trim and replay: snapshot the durability ledger.
  group.add_recovery_observer(
      [&r](const core::ManagedGroup::RecoveryInfo& info) {
        r.lcp_records = info.common_prefix[0];
        for (net::NodeId m : info.members) {
          r.max_pre_records =
              std::max<std::uint64_t>(r.max_pre_records,
                                      info.pre_logs[0][m].size());
        }
        r.lost_records = r.max_pre_records - r.lcp_records;
      });

  // Observer at node 0 (a restarter in every configuration): replayed
  // deliveries carry sent_at = -1, fresh post-recovery traffic a real
  // timestamp.
  bool past_recovery = false;
  sim::Nanos first_fresh = -1;
  group.add_recovery_observer(
      [&past_recovery](const core::ManagedGroup::RecoveryInfo&) {
        past_recovery = true;
      });
  group.set_delivery_handler(0, 0, [&](const core::Delivery& d) {
    if (d.sent_at < 0) {
      ++r.replayed;
      return;
    }
    if (past_recovery) {
      if (first_fresh < 0) first_fresh = eng.now();
      ++r.delivered_after;
    }
  });

  const sim::Nanos last_crash =
      cfg.crash_at +
      static_cast<sim::Nanos>(cfg.nodes - 1) * cfg.crash_stagger;
  const sim::Nanos first_restart = last_crash + cfg.restart_delay;
  const sim::Nanos load_end =
      first_restart +
      static_cast<sim::Nanos>(cfg.restarters) * cfg.restart_stagger +
      sim::millis(3);

  // Continuous load: submissions keep coming through the outage (queued
  // while the group is down, resumed by the rejoiners after recovery).
  for (net::NodeId n = 0; n < cfg.nodes; ++n) {
    for (sim::Nanos t = 0; t < load_end; t += cfg.send_interval) {
      eng.schedule_fn(t, [&group, n, msg_size] {
        group.send(n, 0, std::vector<std::byte>(msg_size));
      });
    }
  }

  for (net::NodeId n = 0; n < cfg.nodes; ++n) {
    eng.schedule_fn(cfg.crash_at + static_cast<sim::Nanos>(n) *
                                       cfg.crash_stagger,
                    [&group, n] { group.crash(n); });
  }
  for (net::NodeId n = 0;
       n < static_cast<net::NodeId>(cfg.restarters); ++n) {
    eng.schedule_fn(first_restart + static_cast<sim::Nanos>(n) *
                                        cfg.restart_stagger,
                    [&group, n] { group.restart(n); });
  }

  if (eng.run_until([&] { return group.halted(); },
                    first_restart)) {
    r.halt_ns = eng.now() - cfg.crash_at;
  }
  sim::Nanos install_abs = 0;
  if (eng.run_until([&] { return group.recoveries() >= 1; },
                    load_end + sim::millis(50))) {
    install_abs = eng.now();
    r.install_ns = install_abs - first_restart;
    r.recovered = true;
  }
  if (r.recovered &&
      eng.run_until([&] { return first_fresh >= 0; },
                    load_end + sim::millis(50))) {
    r.first_new_delivery_ns = first_fresh - install_abs;
  }
  eng.run_to(load_end + sim::millis(2));
  group.shutdown();
  return r;
}

}  // namespace spindle::workload
