// Front-tier client swarm (§4.6's external clients, scaled out): two relay
// members each carry a ClientMux with 1000 open-loop sessions, and the
// offered request rate sweeps across the saturation knee. Below the knee
// goodput tracks the offered load and tail latency is flat; past it the
// credit pool pins goodput at pipeline capacity, parked requests push the
// tails up, and the admission watermark converts the excess into explicit
// Busy sheds — the bounded-latency overload story, not collapse.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workload/client_swarm.hpp"

using namespace spindle;
using namespace spindle::bench;

namespace {

workload::SwarmConfig base_config(sim::Nanos duration) {
  workload::SwarmConfig cfg;
  cfg.core_nodes = 4;
  cfg.relays = 2;
  cfg.sessions_per_relay = 1000;
  cfg.duration = duration;
  cfg.seed = 1;
  return cfg;
}

std::string krps(double rps) { return Table::num(rps / 1e3, 1); }

}  // namespace

int main() {
  // Scale the arrival window, not the session count: a thousand sessions
  // per relay are passive objects and stay cheap even in the smoke run.
  const double scale = workload::bench_scale();
  const auto duration = static_cast<sim::Nanos>(
      std::max(2e6, 20e6 * scale));

  const std::vector<double> loads_rps{40e3, 80e3, 120e3, 160e3,
                                      200e3, 240e3};

  BenchReport report("client_swarm");
  report.set_provenance(
      1, static_cast<std::uint64_t>(loads_rps.back() *
                                    sim::to_seconds(duration)));

  Table t("Client swarm: offered load vs goodput and tail latency "
          "(2 relays x 1000 sessions, poisson arrivals)",
          {"offered krps/relay", "goodput krps", "ok", "busy", "p50 us",
           "p99 us", "p999 us"});
  std::vector<workload::SwarmResult> results;
  for (std::size_t i = 0; i < loads_rps.size(); ++i) {
    workload::SwarmConfig cfg = base_config(duration);
    cfg.offered_rps_per_relay = loads_rps[i];
    workload::SwarmResult r = workload::run_client_swarm(cfg);
    t.row({krps(loads_rps[i]), krps(r.goodput_rps),
           Table::integer(r.ok), Table::integer(r.busy),
           Table::num(r.p50_us, 1), Table::num(r.p99_us, 1),
           Table::num(r.p999_us, 1)});

    const std::string label = "poisson_" + krps(loads_rps[i]) + "krps";
    report.add_run(label, r);
    report.add_metric(label + "_goodput_rps", r.goodput_rps);
    report.add_metric(label + "_p50_us", r.p50_us);
    report.add_metric(label + "_p99_us", r.p99_us);
    report.add_metric(label + "_p999_us", r.p999_us);
    report.add_metric(label + "_shed", static_cast<double>(r.shed));
    results.push_back(std::move(r));
  }
  t.print();

  // Saturation knee: the last load point whose marginal goodput still
  // tracks the marginal offered load (slope >= 0.5) before the p99
  // inflects off the uncongested baseline. Past it the pipeline is
  // capacity-bound and extra offered load only feeds the tails and the
  // shed counter.
  std::size_t knee = loads_rps.size() - 1;
  for (std::size_t i = 1; i < results.size(); ++i) {
    const double d_offered =
        (loads_rps[i] - loads_rps[i - 1]) * 2;  // both relays
    const double d_goodput =
        results[i].goodput_rps - results[i - 1].goodput_rps;
    if (d_goodput < 0.5 * d_offered ||
        results[i].p99_us > 4 * results.front().p99_us) {
      knee = i - 1;
      break;
    }
  }
  const double knee_rps = loads_rps[knee];
  std::printf("\nsaturation knee: ~%.0f krps/relay (goodput %.0f krps, "
              "p99 %.1f us)\n",
              knee_rps / 1e3, results[knee].goodput_rps / 1e3,
              results[knee].p99_us);
  report.add_metric("knee_rps_per_relay", knee_rps);
  report.add_metric("knee_goodput_rps", results[knee].goodput_rps);
  report.add_metric("knee_p99_us", results[knee].p99_us);

  // 2x knee: overload held at twice the knee. Admission must keep the
  // accepted-request p99 bounded (credits cap the in-pipeline population)
  // and shed the excess explicitly.
  {
    workload::SwarmConfig cfg = base_config(duration);
    cfg.offered_rps_per_relay = 2 * knee_rps;
    const workload::SwarmResult r = workload::run_client_swarm(cfg);
    std::printf("at 2x knee (%.0f krps/relay): goodput %.0f krps, p99 %.1f "
                "us (%.1fx knee), shed %llu, busy %llu%s\n",
                2 * knee_rps / 1e3, r.goodput_rps / 1e3, r.p99_us,
                results[knee].p99_us > 0 ? r.p99_us / results[knee].p99_us
                                         : 0.0,
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.busy),
                r.completed ? "" : " [INCOMPLETE]");
    report.add_metric("p99_at_2x_knee_us", r.p99_us);
    report.add_metric("goodput_at_2x_knee_rps", r.goodput_rps);
    report.add_metric("shed_at_2x_knee", static_cast<double>(r.shed));
    report.add_metric("completed_at_2x_knee", r.completed ? 1 : 0);
  }

  // Arrival-shape sensitivity at the knee: the same mean rate arriving in
  // bursts or with a diurnal swing stresses the credit pool harder than
  // memoryless arrivals.
  Table shapes("Arrival shapes at the knee load",
               {"shape", "goodput krps", "busy", "p99 us", "p999 us"});
  for (const auto shape :
       {workload::ArrivalShape::poisson, workload::ArrivalShape::bursty,
        workload::ArrivalShape::diurnal}) {
    workload::SwarmConfig cfg = base_config(duration);
    cfg.offered_rps_per_relay = knee_rps;
    cfg.shape = shape;
    const workload::SwarmResult r = workload::run_client_swarm(cfg);
    shapes.row({workload::to_string(shape), krps(r.goodput_rps),
                Table::integer(r.busy), Table::num(r.p99_us, 1),
                Table::num(r.p999_us, 1)});
    const std::string label = std::string(workload::to_string(shape)) +
                              "_at_knee";
    report.add_metric(label + "_p99_us", r.p99_us);
    report.add_metric(label + "_busy", static_cast<double>(r.busy));
  }
  shapes.print();

  report.write();
  return 0;
}
