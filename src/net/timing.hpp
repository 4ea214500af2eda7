#pragma once

#include <algorithm>
#include <cstddef>

#include "sim/time.hpp"

namespace spindle::net {

/// Calibrated cost model for the simulated RDMA fabric.
///
/// The paper's cluster is 16 machines on a 100 Gb/s (12.5 GB/s) InfiniBand
/// switch. Constants are calibrated against measurements reported in the
/// paper itself:
///
///  * Figure 1: one-sided write latency 1.73 us for 1 B, 2.46 us for 4 KB —
///    reproduced by `isolated_latency` (see bench_fig01_rdma_latency).
///  * Section 3.2: "posting an RDMA request to the NIC takes ~1 us" —
///    `post_cpu_first`. Consecutive posts in one burst are cheaper
///    (doorbell/MMIO batching, cf. Kalia et al.), `post_cpu_next`.
///
/// Throughput is limited by NIC occupancy (line-rate serialization); the
/// per-byte latency adder models pipelined cut-through stages and delays
/// visibility without limiting bandwidth.
struct TimingModel {
  double link_bandwidth_Bps = 12.5e9;
  sim::Nanos wire_base_latency = 1600;   // propagation + switch
  sim::Nanos nic_min_occupancy = 130;    // per-message port overhead
  double latency_slope_ns_per_byte = 0.10;

  sim::Nanos post_cpu_first = 1000;
  sim::Nanos post_cpu_next = 150;

  /// Not a setting and unused by the fabric; benchmark/src prints it.
  static constexpr sim::Nanos atomic_unit_occupancy = 250;

  /// Ablation switch: when false, control-channel regions (the SST's QPs)
  /// share the bulk FIFO lane, so tiny acknowledgments are head-of-line
  /// blocked behind large SMC batches — the configuration our first fabric
  /// model accidentally had, and a measurably worse one (see
  /// bench_ablation_fabric and EXPERIMENTS.md).
  bool separate_control_channel = true;

  /// Time a message of `size` occupies a NIC port: a fixed per-message
  /// overhead (caps small-write rate at ~7.7 Mops, ConnectX-class) plus
  /// line-rate serialization.
  sim::Nanos occupancy(std::size_t size) const {
    return nic_min_occupancy +
           static_cast<sim::Nanos>(static_cast<double>(size) /
                                   link_bandwidth_Bps * 1e9);
  }

  /// Pipelined latency adder applied after egress serialization.
  sim::Nanos latency_adder(std::size_t size) const {
    return wire_base_latency +
           static_cast<sim::Nanos>(latency_slope_ns_per_byte *
                                   static_cast<double>(size));
  }

  /// End-to-end latency of one isolated write (empty NICs), excluding the
  /// CPU post cost. This is what the paper's Figure 1 plots.
  sim::Nanos isolated_latency(std::size_t size) const {
    return occupancy(size) + latency_adder(size);
  }

  /// Lower bound on post-to-delivery delay between two *different* nodes:
  /// every remote write serializes through egress occupancy and the latency
  /// adder, both monotone in size, so the 0-byte isolated latency (~1.7 us
  /// at the defaults) bounds them all. Queueing (egress/ingress FIFOs,
  /// bursts) and fault multipliers >= 1 only push deliveries later. This is
  /// the conservative-DES lookahead horizon of sim::ParallelEngine.
  sim::Nanos min_remote_delay() const { return isolated_latency(0); }

  /// Datacenter-TCP preset (the paper: "Derecho supports many kinds of
  /// networks, including TCP" — and the same optimizations apply, though
  /// RDMA's microsecond scale amplifies the overheads they remove). Same
  /// 100 Gb wire, but kernel-stack latency and syscall-bound posting.
  static TimingModel datacenter_tcp() {
    TimingModel t;
    t.wire_base_latency = 15'000;       // kernel + stack one-way
    t.nic_min_occupancy = 600;          // per-packet software cost
    t.latency_slope_ns_per_byte = 0.25;
    t.post_cpu_first = 2'500;           // syscall per send
    t.post_cpu_next = 1'200;            // sendmsg batching helps a little
    return t;
  }
};

}  // namespace spindle::net
