// spindle_benchmark: runs one workload (or all five, one process each),
// checks its outputs, prints every metric as
//   <workload> <metric> <value> <unit> n=<samples>
// and writes one flat JSON result per workload.
//
//   spindle_benchmark --seed S [--workload W] [--trace] [--smoke]
//                     [--seconds N] --out FILE

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/options.hpp"
#include "json.hpp"
#include "net/timing.hpp"
#include "workloads.hpp"

namespace spindle::bench {
namespace {

struct Workload {
  const char* name;
  Rep (*run)(const Spec&, bool first);
};

constexpr Workload kWorkloads[] = {
    {"bulk_10k", run_bulk},       {"hot_cold_1k", run_hot_cold},
    {"sharded_x10", run_sharded}, {"rpc_swarm", run_rpc},
    {"member_crash", run_crash},
};

struct Args {
  std::uint64_t seed = 1;
  std::string workload;  // empty: all, one child process each
  bool trace = false;
  bool smoke = false;
  double seconds = 0;  // keep repeating (beyond 3) until this much wall time
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: spindle_benchmark --seed S [--workload W] "
               "[--trace] [--smoke] [--seconds N] --out FILE\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an unsigned integer");
      have_seed = true;
    } else if (k == "--workload") {
      a.workload = value();
    } else if (k == "--trace") {
      a.trace = true;
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || a.seconds < 0 || a.seconds > 3600) {
        usage("--seconds takes a number in [0, 3600]");
      }
    } else if (k == "--out") {
      a.out = value();
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  if (a.out.empty()) usage("--out is required");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void provenance(FlatJsonWriter& j) {
  j.put("git_commit", SPINDLE_BENCH_GIT_COMMIT);
  j.put("build_type", SPINDLE_BENCH_BUILD_TYPE);
  j.put("compiler", __VERSION__);
  j.put("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.put("sim_threads", std::uint64_t{1});
  const net::TimingModel t{};
  j.put("timing.link_bandwidth_Bps", t.link_bandwidth_Bps);
  j.put("timing.wire_base_latency_ns", static_cast<std::uint64_t>(t.wire_base_latency));
  j.put("timing.nic_min_occupancy_ns", static_cast<std::uint64_t>(t.nic_min_occupancy));
  j.put("timing.latency_slope_ns_per_byte", t.latency_slope_ns_per_byte);
  j.put("timing.post_cpu_first_ns", static_cast<std::uint64_t>(t.post_cpu_first));
  j.put("timing.post_cpu_next_ns", static_cast<std::uint64_t>(t.post_cpu_next));
  j.put("timing.atomic_unit_occupancy_ns",
        static_cast<std::uint64_t>(t.atomic_unit_occupancy));
  const core::CpuModel c{};
  const auto ns = [&](const char* k, std::int64_t v) {
    j.put(std::string("cpu.") + k + "_ns", static_cast<std::uint64_t>(v));
  };
  ns("predicate_eval", c.predicate_eval);
  ns("per_sender_scan", c.per_sender_scan);
  ns("per_member_check", c.per_member_check);
  ns("per_message_receive", c.per_message_receive);
  ns("per_message_delivery", c.per_message_delivery);
  ns("upcall_cost", c.upcall_cost);
  ns("send_setup", c.send_setup);
  ns("iteration_overhead", c.iteration_overhead);
  ns("iteration_jitter", c.iteration_jitter);
  ns("sender_poll_interval", c.sender_poll_interval);
  ns("hiccup_mean_gap", c.hiccup_mean_gap);
  ns("hiccup_duration", c.hiccup_duration);
  ns("memcpy_base", c.memcpy_base);
  j.put("cpu.memcpy_GBps", c.memcpy_GBps);
  j.put("cpu.construction_GBps", c.construction_GBps);
}

bool same(const Metrics& a, const Metrics& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it == b.end() || it->second.v != v.v || it->second.n != v.n) return false;
  }
  return true;
}

int run_one(const Workload& w, const Args& a) {
  const Spec spec{a.seed, a.smoke, false};
  std::vector<Rep> reps;
  WallTimer total;
  double rss = 0;  // after a fixed amount of work: the first 3 repetitions
  while (reps.size() < 3 || total.seconds() < a.seconds) {
    reps.push_back(w.run(spec, reps.empty()));
    if (reps.size() == 3) rss = peak_rss_mb();
  }
  const Rep& r0 = reps[0];
  std::vector<std::string> violations = r0.violations;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    const std::string rep = "repetition " + std::to_string(i + 1);
    if (!same(r.e2e, r0.e2e) || r.digest != r0.digest ||
        r.makespan != r0.makespan || r.steps != r0.steps) {
      violations.push_back(rep + " differs from repetition 1 in virtual time");
    }
    for (const std::string& v : r.violations) violations.push_back(rep + ": " + v);
  }

  Metrics e2e = r0.e2e;
  Metrics layer = r0.layer;
  // Every repetition builds and simulates the identical system, so their
  // wall times differ only by machine noise and by the allocator paging in
  // fresh memory for the first repetitions, both of which only slow one
  // down: wall-clock metrics come from the fastest repetition.
  double setup = r0.setup_s;
  double fastest = r0.run_s;
  for (const Rep& r : reps) {
    setup = std::min(setup, r.setup_s);
    fastest = std::min(fastest, r.run_s);
  }
  e2e["setup_s"] = {setup, reps.size()};
  e2e["peak_rss_mb"] = {rss, 0};
  layer["sim.ops_per_s"] = {static_cast<double>(r0.sim_ops) / fastest, reps.size()};
  layer["sim.events_per_s"] = {static_cast<double>(r0.steps) / fastest, reps.size()};
  if (std::string(w.name) == "rpc_swarm") {
    e2e["rpc_capacity_rps"] = rpc_capacity(spec, violations);
  }

  if (a.trace) {
    const Rep t = w.run(Spec{a.seed, a.smoke, true}, false);
    for (const std::string& v : t.violations) violations.push_back("traced run: " + v);
    if (t.makespan != r0.makespan || t.digest != r0.digest || t.steps != r0.steps) {
      violations.push_back("traced run differs from the untraced run");
    }
    for (const auto& [k, v] : t.layer) layer.emplace(k, v);  // span-derived
    layer["trace.overhead_ratio"] = {t.run_s / fastest, 1};
    // Layers that do no work on this workload report 0 with no samples.
    for (const MetricDef& d : metric_table()) {
      if (!is_end_to_end(d)) layer.emplace(d.name, Value{});
    }
  }

  std::uint64_t failed = r0.failed + violations.size();
  if (failed > r0.attempted) failed = r0.attempted;
  e2e["ok_fraction"] = {
      1.0 - static_cast<double>(failed) / static_cast<double>(r0.attempted),
      r0.attempted};
  // Every p99 rests on at least 1000 samples; a layer with no work on this
  // workload reports n = 0.
  if (!a.smoke) {
    for (const Metrics* m : {&e2e, &layer}) {
      for (const auto& [k, v] : *m) {
        const bool idle_layer = m == &layer && v.n == 0;
        if (k.find("p99") != std::string::npos && v.n < 1000 && !idle_layer) {
          violations.push_back(k + " rests on " + std::to_string(v.n) +
                               " samples (< 1000)");
        }
      }
    }
  }
  const bool correct = violations.empty() && failed == 0;

  FlatJsonWriter j;
  j.put("schema", "spindle-benchmark/1");
  j.put("workload", w.name);
  j.put("seed", a.seed);
  j.put_bool("traced", a.trace);
  j.put_bool("smoke", a.smoke);
  j.put_bool("correct", correct);
  j.put("attempted", r0.attempted);
  j.put("failed", failed);
  j.put("violations", static_cast<std::uint64_t>(violations.size()));
  j.put("repetitions", static_cast<std::uint64_t>(reps.size()));
  provenance(j);
  for (const MetricDef& d : metric_table()) {
    const Metrics& m = is_end_to_end(d) ? e2e : layer;
    const auto it = m.find(d.name);
    if (it == m.end()) continue;
    std::printf("%s %s %s %s n=%llu\n", w.name, d.name,
                format_number(it->second.v).c_str(), d.unit,
                static_cast<unsigned long long>(it->second.n));
    j.put(std::string("metrics.") + d.name, it->second.v);
    j.put(std::string("units.") + d.name, d.unit);
    j.put(std::string("samples.") + d.name, it->second.n);
  }
  std::fflush(stdout);
  for (std::size_t i = 0; i < violations.size() && i < 20; ++i) {
    std::fprintf(stderr, "%s: VIOLATION %s\n", w.name, violations[i].c_str());
  }
  const std::filesystem::path out(a.out);
  std::error_code ec;
  if (out.has_parent_path()) std::filesystem::create_directories(out.parent_path(), ec);
  std::ofstream f(out);
  f << j.str();
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", a.out.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: %s, %zu repetitions, wrote %s\n", w.name,
               correct ? "correct" : "INCORRECT", reps.size(), a.out.c_str());
  return correct ? 0 : 1;
}

/// Without --workload: each workload in its own process, so its peak RSS is
/// its own. FILE gets the workload name inserted before its extension.
int run_all(const Args& a, char** argv) {
  int status = 0;
  for (const Workload& w : kWorkloads) {
    std::filesystem::path out(a.out);
    out.replace_filename(out.stem().string() + "-" + w.name +
                         out.extension().string());
    std::vector<std::string> args = {argv[0], "--seed", std::to_string(a.seed),
                                     "--workload", w.name, "--out", out.string(),
                                     "--seconds", format_number(a.seconds)};
    if (a.trace) args.push_back("--trace");
    if (a.smoke) args.push_back("--smoke");
    std::vector<char*> cargs;
    for (std::string& s : args) cargs.push_back(s.data());
    cargs.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      execv("/proc/self/exe", cargs.data());
      std::perror("execv");
      _exit(127);
    }
    int ws = 0;
    if (waitpid(pid, &ws, 0) < 0 || !WIFEXITED(ws) || WEXITSTATUS(ws) != 0) {
      status = 1;
    }
  }
  return status;
}

}  // namespace
}  // namespace spindle::bench

int main(int argc, char** argv) {
  const spindle::bench::Args a = spindle::bench::parse(argc, argv);
  if (a.workload.empty()) return spindle::bench::run_all(a, argv);
  for (const spindle::bench::Workload& w : spindle::bench::kWorkloads) {
    if (a.workload == w.name) return spindle::bench::run_one(w, a);
  }
  spindle::bench::usage(("unknown workload " + a.workload).c_str());
}
