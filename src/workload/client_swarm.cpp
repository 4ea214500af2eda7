#include "workload/client_swarm.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include "dds/dds.hpp"
#include "dds/session.hpp"
#include "sim/rng.hpp"

namespace spindle::workload {

const char* to_string(ArrivalShape s) {
  switch (s) {
    case ArrivalShape::poisson:
      return "poisson";
    case ArrivalShape::bursty:
      return "bursty";
    case ArrivalShape::diurnal:
      return "diurnal";
  }
  return "?";
}

namespace {

struct SwarmCtx {
  const SwarmConfig* cfg;
  dds::Domain* domain;
  SwarmResult* res;
  std::vector<std::byte> request_body;
  std::uint64_t outstanding = 0;
  std::size_t generators_done = 0;
};

sim::Co<> one_request(SwarmCtx* c, dds::Session* s) {
  ++c->outstanding;
  const dds::Reply r = co_await s->request(c->request_body);
  switch (r.status) {
    case dds::ReplyStatus::ok:
      ++c->res->ok;
      c->res->latency_ns.add(static_cast<std::uint64_t>(r.rtt));
      break;
    case dds::ReplyStatus::busy:
      ++c->res->busy;
      break;
    case dds::ReplyStatus::cancelled:
      ++c->res->cancelled;
      break;
    case dds::ReplyStatus::disconnected:
      ++c->res->disconnected;
      break;
  }
  --c->outstanding;
}

/// Next inter-arrival gap for one relay's generator. `now` is relative to
/// the start of the arrival window. Returns a negative gap to mean "no
/// arrival this step" (diurnal thinning rejections re-enter the loop).
sim::Nanos next_gap(const SwarmConfig& cfg, sim::Rng& rng, sim::Nanos now,
                    bool& arrival) {
  arrival = true;
  const double rate_per_ns = cfg.offered_rps_per_relay / 1e9;
  const auto exp_gap = [&rng](double rate) {
    const double u = rng.unit();
    const double g = -std::log(1.0 - u) / rate;
    return static_cast<sim::Nanos>(g) + 1;
  };
  switch (cfg.shape) {
    case ArrivalShape::poisson:
      return exp_gap(rate_per_ns);
    case ArrivalShape::bursty: {
      const sim::Nanos period = cfg.modulation_period;
      const sim::Nanos phase = now % period;
      const auto burst_len =
          static_cast<sim::Nanos>(cfg.burst_duty * static_cast<double>(period));
      if (phase >= burst_len) {
        // Idle half of the square wave: jump to the next burst.
        arrival = false;
        return period - phase;
      }
      return exp_gap(rate_per_ns / cfg.burst_duty);
    }
    case ArrivalShape::diurnal: {
      // Thinning: sample at the peak rate, accept with rate(t)/peak.
      const double peak = rate_per_ns * (1.0 + cfg.diurnal_amplitude);
      const sim::Nanos gap = exp_gap(peak);
      const double t = static_cast<double>(now + gap);
      const double period = static_cast<double>(cfg.modulation_period);
      const double rate_t =
          rate_per_ns *
          (1.0 + cfg.diurnal_amplitude * std::sin(6.283185307179586 * t /
                                                  period));
      arrival = rng.unit() * peak < rate_t;
      return gap;
    }
  }
  arrival = false;
  return cfg.duration;
}

sim::Co<> arrival_actor(SwarmCtx* c, std::vector<dds::Session*> sessions,
                        sim::Rng rng) {
  auto& eng = c->domain->engine();
  const sim::Nanos start = eng.now();
  const sim::Nanos end = start + c->cfg->duration;
  while (eng.now() < end) {
    bool arrival = false;
    const sim::Nanos gap = next_gap(*c->cfg, rng, eng.now() - start, arrival);
    co_await eng.sleep(gap);
    if (!arrival || eng.now() >= end) continue;
    dds::Session* s = sessions[rng.below(sessions.size())];
    ++c->res->offered;
    // Open loop: fire and move on; the request coroutine records the
    // completion on its own.
    eng.spawn(one_request(c, s));
  }
  ++c->generators_done;
}

}  // namespace

SwarmResult run_client_swarm(const SwarmConfig& cfg) {
  RunHarness harness;
  SwarmResult res;

  core::ClusterConfig cc;
  cc.nodes = cfg.core_nodes + cfg.relays;  // gateways live after the members
  cc.seed = cfg.seed;
  dds::Domain domain(cc);

  dds::TopicConfig tc;
  tc.name = "swarm";
  tc.topic_id = 1;
  tc.max_sample_size =
      std::max(cfg.request_bytes, cfg.reply_bytes) + 64;  // envelope headroom
  for (std::size_t n = 0; n < cfg.core_nodes; ++n) {
    tc.publishers.push_back(n);
    tc.subscribers.push_back(n);
  }
  domain.create_topic(tc);

  dds::MuxConfig mc = cfg.mux;
  mc.per_message_overhead = cfg.link.per_message_overhead;
  mc.service = [reply_bytes = cfg.reply_bytes](std::span<const std::byte> req)
      -> std::vector<std::byte> {
    // Fixed-size reply carrying the head of the request (correlation is the
    // mux's job; the payload only has to exercise the downlink).
    std::vector<std::byte> out(reply_bytes);
    std::memcpy(out.data(), req.data(), std::min(out.size(), req.size()));
    return out;
  };
  std::vector<dds::ClientMux*> muxes;
  for (std::size_t r = 0; r < cfg.relays; ++r) {
    muxes.push_back(&domain.create_client_mux(
        1, static_cast<net::NodeId>(cfg.core_nodes + r),
        static_cast<net::NodeId>(r), mc));
  }
  domain.start();

  SwarmCtx ctx;
  ctx.cfg = &cfg;
  ctx.domain = &domain;
  ctx.res = &res;
  ctx.request_body.resize(cfg.request_bytes);

  sim::Rng root(cfg.seed * 0x9e3779b97f4a7c15ULL + 1);
  for (std::size_t r = 0; r < cfg.relays; ++r) {
    std::vector<dds::Session*> sessions;
    sessions.reserve(cfg.sessions_per_relay);
    for (std::size_t s = 0; s < cfg.sessions_per_relay; ++s) {
      dds::Session* sess = muxes[r]->connect(cfg.link);
      if (sess != nullptr) sessions.push_back(sess);
    }
    domain.engine().spawn(arrival_actor(&ctx, std::move(sessions),
                                        root.fork()));
  }

  const sim::Nanos window_start = domain.engine().now();
  res.completed = domain.engine().run_until(
      [&] {
        return ctx.generators_done == cfg.relays && ctx.outstanding == 0;
      },
      cfg.duration + cfg.drain_grace);

  res.makespan = domain.engine().now() - window_start;
  harness.finish(domain.cluster(), res, [&domain] { domain.shutdown(); });
  const double dur_s = sim::to_seconds(cfg.duration);
  const double span_s = sim::to_seconds(std::max(res.makespan, cfg.duration));
  res.offered_rps = static_cast<double>(res.offered) / dur_s;
  res.goodput_rps = static_cast<double>(res.ok) / span_s;
  res.p50_us = static_cast<double>(res.latency_ns.percentile(50)) / 1e3;
  res.p99_us = static_cast<double>(res.latency_ns.percentile(99)) / 1e3;
  res.p999_us = static_cast<double>(res.latency_ns.percentile(99.9)) / 1e3;
  for (const auto& relay : res.stats.relays) res.shed += relay.requests_shed;
  return res;
}

}  // namespace spindle::workload
