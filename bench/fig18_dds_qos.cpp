// Figure 18 + §4.6: the avionics DDS built over the multicast stack — a
// single topic, one publisher, varying subscribers, 10KB Sequence samples,
// for all four QoS levels, baseline vs Spindle.
//
// Paper headlines: Spindle improves every QoS level; with Spindle the
// unordered and atomic-multicast modes perform nearly identically, while
// the pre-Spindle baseline loses bandwidth at each added QoS level; the
// gains carry into the volatile and logged (SSD) storage modes.

#include <cstring>

#include "bench_util.hpp"
#include "dds/client_mux.hpp"
#include "dds/dds.hpp"
#include "dds/session.hpp"
#include "metrics/metrics.hpp"

using namespace spindle;
using namespace spindle::bench;

namespace {

double run_dds(std::size_t subscribers, dds::Qos qos,
               const core::ProtocolOptions& opts, std::size_t samples) {
  core::ClusterConfig cc;
  cc.nodes = subscribers + 1;  // publisher on its own node
  cc.scan_interval = 0;  // a paper figure: Derecho's full polling lap
  dds::Domain domain(cc);

  dds::TopicConfig tc;
  tc.name = "sequence";
  tc.topic_id = 1;
  tc.qos = qos;
  tc.max_sample_size = 10240;
  tc.publishers = {0};
  for (std::size_t s = 1; s <= subscribers; ++s) {
    tc.subscribers.push_back(static_cast<net::NodeId>(s));
  }
  tc.opts = opts;
  domain.create_topic(tc);
  domain.start();

  domain.engine().spawn([](dds::Domain* d, std::size_t count) -> sim::Co<> {
    auto w = d->writer(0, 1);
    for (std::uint64_t i = 0; i < count; ++i) {
      co_await w.publish(10240, [i](std::span<std::byte> buf) {
        std::memcpy(buf.data(), &i, sizeof i);
      });
    }
  }(&domain, samples));

  const std::uint64_t expected = samples * subscribers;
  domain.engine().run_until(
      [&] { return domain.total_samples(1) >= expected; }, sim::seconds(60));
  const double secs = sim::to_seconds(domain.engine().now());
  // Paper metric: delivered application data per unit time per subscriber.
  return static_cast<double>(samples) * 10240.0 / secs / 1e9;
}

/// Front-tier echo RTT (§4.6's external clients on the Session API): one
/// gateway session round-trips requests through a relay member into the
/// topic's order and back. Returns {p50, p99} in microseconds.
std::pair<double, double> run_session_echo(dds::Qos qos,
                                           std::size_t requests) {
  core::ClusterConfig cc;
  cc.nodes = 6;  // publisher/relay 0, subscribers 1..4, gateway 5
  cc.scan_interval = 0;  // a paper figure: Derecho's full polling lap
  dds::Domain domain(cc);

  dds::TopicConfig tc;
  tc.name = "echo";
  tc.topic_id = 1;
  tc.qos = qos;
  tc.max_sample_size = 10240;
  tc.publishers = {0};
  tc.subscribers = {0, 1, 2, 3, 4};
  tc.opts = core::ProtocolOptions::spindle();
  domain.create_topic(tc);
  dds::ClientMux& mux = domain.create_client_mux(1, 5, 0);
  dds::Session* session = mux.connect();
  domain.start();

  metrics::Histogram rtt_ns;
  bool done = false;
  domain.engine().spawn([](dds::Session* s, std::size_t count,
                           metrics::Histogram* h, bool* flag) -> sim::Co<> {
    std::vector<std::byte> body(1024);
    for (std::size_t i = 0; i < count; ++i) {
      const dds::Reply r = co_await s->request(body);
      if (r.status == dds::ReplyStatus::ok) {
        h->add(static_cast<std::uint64_t>(r.rtt));
      }
    }
    *flag = true;
  }(session, requests, &rtt_ns, &done));
  domain.engine().run_until([&] { return done; }, sim::seconds(60));
  return {static_cast<double>(rtt_ns.percentile(50)) / 1e3,
          static_cast<double>(rtt_ns.percentile(99)) / 1e3};
}

}  // namespace

int main() {
  const dds::Qos levels[] = {dds::Qos::unordered, dds::Qos::atomic_multicast,
                             dds::Qos::volatile_storage,
                             dds::Qos::logged_storage};

  Table t("Figure 18: DDS QoS levels, baseline vs Spindle (GB/s/subscriber)",
          {"subscribers", "QoS", "baseline", "spindle", "speedup", "paper"});
  for (std::size_t subs : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                           std::size_t{15}}) {
    for (dds::Qos q : levels) {
      const std::size_t samples = scaled(300);
      const double base =
          run_dds(subs, q, core::ProtocolOptions::baseline(), scaled(120));
      const double spin =
          run_dds(subs, q, core::ProtocolOptions::spindle(), samples);
      const char* paper = "";
      if (subs == 15 && q == dds::Qos::atomic_multicast) {
        paper = "spindle: unordered ~= atomic";
      } else if (subs == 15 && q == dds::Qos::logged_storage) {
        paper = "gains persist despite disk I/O";
      }
      t.row({Table::integer(subs), dds::qos_name(q), gbps(base), gbps(spin),
             Table::num(spin / base, 1) + "x", paper});
    }
  }
  t.print();

  // §4.6 front tier: the same QoS ladder seen by an external client session
  // doing request/reply through a relay (4 onboard subscribers, Spindle
  // options). RTT includes the gateway link, ring hop, total-order delivery
  // at the relay, and the reply path back.
  Table echo("Front-tier session echo RTT through the relay (us)",
             {"QoS", "p50", "p99"});
  for (dds::Qos q : levels) {
    const auto [p50, p99] = run_session_echo(q, scaled(200));
    echo.row({dds::qos_name(q), Table::num(p50, 1), Table::num(p99, 1)});
  }
  echo.print();
  return 0;
}
