// Figure 1: RDMA write latency vs data size.
//
// The paper measures one-sided RDMA write latency on its InfiniBand
// cluster: ~1.73 us for 1 B rising only to ~2.46 us at 4 KB. This bench
// reports the simulated fabric's isolated write latency over the same
// range, which is the calibration target for every other experiment.

#include <cstdio>
#include <vector>

#include "net/fabric.hpp"
#include "workload/table.hpp"

int main() {
  using namespace spindle;
  net::TimingModel timing;

  workload::Table table(
      "Figure 1: RDMA write latency vs data size (simulated fabric)",
      {"size (B)", "latency (us)", "paper (us)"});

  struct Point {
    std::size_t size;
    const char* paper;
  };
  const std::vector<Point> points = {
      {1, "1.73"},    {16, "-"},    {64, "-"},      {256, "-"},
      {1024, "-"},    {2048, "-"},  {4096, "2.46"}, {16384, "-"},
      {65536, "-"},   {262144, "-"}, {1048576, "-"},
  };

  for (const auto& p : points) {
    // Measure end-to-end through the event loop to validate the model.
    sim::Engine engine;
    net::Fabric fabric(engine, timing, 2);
    std::vector<std::byte> src(p.size, std::byte{1});
    std::vector<std::byte> dst(p.size);
    auto src_region = fabric.register_region(0, src);
    auto region = fabric.register_region(1, dst);
    const sim::Nanos post =
        fabric.post_write(src_region, 0, p.size, region, 0);
    engine.run();
    const double us = sim::to_micros(engine.now() - post);
    table.row({workload::Table::integer(p.size), workload::Table::num(us),
               p.paper});
  }
  table.print();
  std::printf(
      "\nShape check: latency is nearly flat to 4KB (paper: 1.73us -> "
      "2.46us), then grows with serialization at 12.5 GB/s.\n");
  return 0;
}
