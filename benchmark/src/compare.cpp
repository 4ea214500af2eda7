// benchmark_compare: compares two sets of spindle_benchmark result files
// (the parent commit's and a change's) metric by metric.
//
//   benchmark_compare --parent P1.json P2.json ... --change C1.json ...
//                     [--claim WORKLOAD/METRIC]...
//
// For every (workload, end-to-end metric) it prints each side's median and
// quartiles and a verdict:
//   ok          the change's median is within the metric's bound
//   REGRESSION  the change's median is worse than the bound allows
//   unresolved  the parent's own spread (IQR / median) exceeds the bound,
//               unless every change run beats every parent run ("better")
// A claim is met when the change wins at least 9/10 of the (parent[i],
// change[i]) pairs, ties counting for neither, and the medians differ by
// more than the parent's IQR. Exit status 1 on any regression or unmet
// claim.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "json.hpp"

namespace spindle::bench {
namespace {

using Key = std::pair<std::string, std::string>;  // workload, metric
using Side = std::map<Key, std::vector<double>>;

bool load(const std::string& path, Side& side) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  if (!f) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return false;
  }
  std::string error;
  const auto obj = parse_flat_json(ss.str(), error);
  if (!obj) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  const auto w = obj->find("workload");
  if (w == obj->end() || w->second.type != Scalar::Type::string) {
    std::fprintf(stderr, "error: %s: no workload\n", path.c_str());
    return false;
  }
  if (const auto s = obj->find("smoke"); s != obj->end() && s->second.b) {
    std::fprintf(stderr, "warning: %s is a smoke run\n", path.c_str());
  }
  for (const MetricDef& d : metric_table()) {
    const auto it = obj->find(std::string("metrics.") + d.name);
    if (it != obj->end() && it->second.type == Scalar::Type::number) {
      side[{w->second.str, d.name}].push_back(it->second.num);
    }
  }
  return true;
}

/// Quartiles as Python's statistics.quantiles(data, n=4) computes them
/// (the default 'exclusive' method), so spreads match that tool exactly.
struct Quartiles {
  double q1, median, q3;
};
Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return {v[0], v[0], v[0]};
  const auto n = static_cast<long>(v.size());
  const long m = n + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = j < 1 ? 1 : (j > n - 1 ? n - 1 : j);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4;
  }
  return {q[0], q[1], q[2]};
}

/// Positive when `a` is better than `b` in the metric's direction.
double gain(const MetricDef& d, double a, double b) {
  return d.better == Better::higher ? a - b : b - a;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: benchmark_compare --parent FILE... --change "
               "FILE... [--claim WORKLOAD/METRIC]...\n",
               why);
  std::exit(2);
}

}  // namespace
}  // namespace spindle::bench

int main(int argc, char** argv) {
  using namespace spindle::bench;
  Side parent, change;
  std::vector<std::string> claims;
  Side* into = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--parent") {
      into = &parent;
    } else if (a == "--change") {
      into = &change;
    } else if (a == "--claim") {
      if (i + 1 >= argc) usage("--claim needs WORKLOAD/METRIC");
      claims.push_back(argv[++i]);
    } else if (into == nullptr) {
      usage(("unexpected argument " + a).c_str());
    } else if (!load(a, *into)) {
      return 2;
    }
  }
  if (parent.empty() || change.empty()) usage("both sides need result files");

  bool bad = false;
  std::printf("%-13s %-17s %12s %25s %12s %25s %8s  %s\n", "workload", "metric",
              "parent", "[q1, q3]", "change", "[q1, q3]", "delta", "verdict");
  for (const auto& [key, pv] : parent) {
    const MetricDef* d = find_metric(key.second);
    const auto cit = change.find(key);
    if (d == nullptr || !is_end_to_end(*d) || cit == change.end()) continue;
    const std::vector<double>& cv = cit->second;
    const Quartiles p = quartiles(pv), c = quartiles(cv);
    const double scale = std::fabs(p.median) > 0 ? std::fabs(p.median) : 1;
    const double spread = (p.q3 - p.q1) / scale;
    const double worse = -gain(*d, c.median, p.median) / scale;
    bool dominates = true;
    for (double x : cv) {
      for (double y : pv) dominates = dominates && gain(*d, x, y) > 0;
    }
    const char* verdict = "ok";
    if (spread > d->bound) {
      verdict = dominates ? "better" : "unresolved";
    } else if (worse > d->bound) {
      verdict = "REGRESSION";
      bad = true;
    }
    char pq[64], cq[64];
    std::snprintf(pq, sizeof pq, "[%.6g, %.6g]", p.q1, p.q3);
    std::snprintf(cq, sizeof cq, "[%.6g, %.6g]", c.q1, c.q3);
    std::printf("%-13s %-17s %12.6g %25s %12.6g %25s %+7.2f%%  %s (bound %g%%, %s)\n",
                key.first.c_str(), key.second.c_str(), p.median, pq, c.median,
                cq, 100 * (c.median - p.median) / scale, verdict,
                100 * d->bound, d->unit);
  }

  for (const std::string& claim : claims) {
    const std::size_t slash = claim.find('/');
    const MetricDef* d =
        slash == std::string::npos ? nullptr : find_metric(claim.substr(slash + 1));
    const Key key{claim.substr(0, slash == std::string::npos ? 0 : slash),
                  d != nullptr ? d->name : ""};
    const auto pit = parent.find(key);
    const auto cit = change.find(key);
    if (d == nullptr || pit == parent.end() || cit == change.end()) {
      std::printf("claim %s: no such (workload, metric) on both sides: NOT MET\n",
                  claim.c_str());
      bad = true;
      continue;
    }
    const std::vector<double>& pv = pit->second;
    const std::vector<double>& cv = cit->second;
    const std::size_t pairs = std::min(pv.size(), cv.size());
    std::size_t wins = 0;
    for (std::size_t i = 0; i < pairs; ++i) wins += gain(*d, cv[i], pv[i]) > 0;
    const Quartiles p = quartiles(pv), c = quartiles(cv);
    const double moved = gain(*d, c.median, p.median);
    const bool met = pairs > 0 && 10 * wins >= 9 * pairs && moved > p.q3 - p.q1;
    std::printf("claim %s: change won %zu/%zu pairs, median gain %.6g vs parent "
                "IQR %.6g: %s\n",
                claim.c_str(), wins, pairs, moved, p.q3 - p.q1,
                met ? "met" : "NOT MET");
    bad = bad || !met;
  }
  return bad ? 1 : 0;
}
