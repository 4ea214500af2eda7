// Before/after driver for changes that should not move fault behaviour:
// runs the chaos harness over a seed range and prints one line per seed,
//
//   seed=<s> done=<0|1> epochs=<e> recoveries=<r> halted=<0|1>
//     violations=<v> t=<final ns> steps=<engine events> delivered=<...>
//
// where `delivered` lists, per node, its deliveries from each sender
// (node0's counts, then node1's, ...). Build it against two trees and diff
// the outputs:
//
//   ./tests/chaos_outcomes <first-seed> <count>
//
// A seed may be given in hex (0x...); the chaos sweep's seeds start at
// chaos::kBaseSeed (0xc4a0500000000).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "chaos_harness.hpp"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <first-seed> <count>\n", argv[0]);
    return 2;
  }
  const std::uint64_t first = std::strtoull(argv[1], nullptr, 0);
  const std::uint64_t count = std::strtoull(argv[2], nullptr, 0);
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const spindle::chaos::ChaosOutcome out = spindle::chaos::run_chaos(seed);
    std::string line = "seed=" + std::to_string(seed) +
                       " done=" + std::to_string(out.done) +
                       " epochs=" + std::to_string(out.epochs) +
                       " recoveries=" + std::to_string(out.recoveries) +
                       " halted=" + std::to_string(out.halted) +
                       " violations=" + std::to_string(out.violations.size()) +
                       " t=";
    // trace: final time, recoveries, episodes, then per node its total
    // and its per-sender counts.
    const auto& tr = out.trace;
    line += tr.empty() ? "-" : std::to_string(tr[0]);
    line += " steps=" + std::to_string(out.steps) + " delivered=";
    if (tr.empty()) line += "-";
    for (std::size_t n = 0; n < out.nodes && !tr.empty(); ++n) {
      const std::size_t row = 3 + n * (out.nodes + 1) + 1;
      for (std::size_t s = 0; s < out.nodes; ++s) {
        line += (n + s == 0 ? "" : s == 0 ? "|" : ",") +
                std::to_string(tr[row + s]);
      }
    }
    std::puts(line.c_str());
  }
  return 0;
}
