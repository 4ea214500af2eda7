// rpc_swarm: open-loop request/reply through the client front tier. Two
// relays of 1000 sessions each send 64 B echo requests into a 4-node
// topic's total order: Poisson, then bursty at the same mean rate, then
// (once per process) a capacity ladder.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "dds/client_mux.hpp"
#include "dds/dds.hpp"
#include "dds/session.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace spindle::bench {

namespace {

constexpr std::size_t kCore = 4;
constexpr std::size_t kRelays = 2;
constexpr std::size_t kSessions = 1000;
constexpr std::uint32_t kBodyBytes = 64;
constexpr std::uint8_t kTopic = 1;
constexpr double kRateRps = 100'000;  // per relay
constexpr std::int64_t kPhaseNs = 500'000'000;
constexpr std::int64_t kBurstPeriodNs = 2'000'000;
constexpr double kBurstDuty = 0.25;
constexpr std::int64_t kLadderWindowNs = 200'000'000;
constexpr std::int64_t kLatencyLimitNs = 500'000;

struct Arrival {
  std::int64_t due = 0;
  std::uint32_t session = 0;
  std::uint8_t phase = 0;  // 0 Poisson, 1 bursty
};

std::int64_t exp_gap(Gen& g, double rate_per_ns) {
  return static_cast<std::int64_t>(-std::log(1.0 - g.unit()) / rate_per_ns) + 1;
}

/// Poisson arrivals at `rps` in [start, end).
void poisson(Gen& g, double rps, std::int64_t start, std::int64_t end,
             std::uint8_t phase, std::vector<Arrival>& out) {
  for (std::int64_t t = start + exp_gap(g, rps / 1e9); t < end;
       t += exp_gap(g, rps / 1e9)) {
    out.push_back({t, static_cast<std::uint32_t>(g.below(kSessions)), phase});
  }
}

/// On/off arrivals: the mean rate `rps` compressed into the first
/// `kBurstDuty` of every period.
void bursty(Gen& g, double rps, std::int64_t start, std::int64_t end,
            std::vector<Arrival>& out) {
  const double peak = rps / kBurstDuty / 1e9;
  const auto on = static_cast<std::int64_t>(kBurstDuty * kBurstPeriodNs);
  for (std::int64_t p = start; p < end; p += kBurstPeriodNs) {
    for (std::int64_t t = p + exp_gap(g, peak); t < std::min(p + on, end);
         t += exp_gap(g, peak)) {
      out.push_back({t, static_cast<std::uint32_t>(g.below(kSessions)), 1});
    }
  }
}

/// Request body: id, due time, then a pattern the echo must return intact.
std::vector<std::byte> body_of(std::uint64_t id, std::int64_t due) {
  std::vector<std::byte> b(kBodyBytes);
  std::memcpy(b.data(), &id, 8);
  std::memcpy(b.data() + 8, &due, 8);
  for (std::size_t i = 16; i < kBodyBytes; ++i) {
    b[i] = static_cast<std::byte>((id * 31 + i) & 0xffu);
  }
  return b;
}

/// Everything one swarm run records. Outlives the Domain, so requests
/// resolved by its teardown still land somewhere valid.
struct Swarm {
  sim::Engine* eng = nullptr;
  std::uint64_t offered = 0, ok = 0, busy = 0, cancelled = 0,
                disconnected = 0, bad_echo = 0, late = 0;
  std::uint64_t resolved = 0;
  std::uint64_t over_limit = 0;  // ok replies slower than kLatencyLimitNs
  std::int64_t last_reply = 0;
  bool stop = false;
  Samples rtt[2];  // due -> reply, per phase
};

sim::Co<> one_request(Swarm* sw, dds::Session* s, std::uint64_t id,
                      Arrival a) {
  const std::vector<std::byte> body = body_of(id, a.due);
  const dds::Reply r = co_await s->request(body);
  const std::int64_t now = sw->eng->now();
  switch (r.status) {
    case dds::ReplyStatus::ok:
      ++sw->ok;
      if (r.data != body) ++sw->bad_echo;
      sw->rtt[a.phase].add(now - a.due);
      if (now - a.due > kLatencyLimitNs) ++sw->over_limit;
      sw->last_reply = now;
      break;
    case dds::ReplyStatus::busy:
      ++sw->busy;
      break;
    case dds::ReplyStatus::cancelled:
      ++sw->cancelled;
      break;
    case dds::ReplyStatus::disconnected:
      ++sw->disconnected;
      break;
  }
  ++sw->resolved;
}

/// Issues one relay's arrivals at their due times, open loop.
sim::Co<> generator(Swarm* sw, std::vector<dds::Session*> sessions,
                    std::vector<Arrival> arrivals, std::uint64_t id_base) {
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (sw->stop) co_return;
    const Arrival& a = arrivals[i];
    if (a.due > sw->eng->now()) co_await sw->eng->sleep(a.due - sw->eng->now());
    if (sw->eng->now() != a.due) ++sw->late;
    ++sw->offered;
    sw->eng->spawn(one_request(sw, sessions[a.session], id_base + i, a));
  }
}

/// One topic member's view of the ordered request stream.
struct Member {
  std::vector<char> seen;  // [relay][index]
  std::uint64_t digest = kFnvOffset;
  std::uint64_t delivered = 0;
  std::uint64_t bad = 0;
};

struct Built {
  std::unique_ptr<dds::Domain> domain;
  std::vector<std::vector<dds::Session*>> sessions;  // per relay
};

Built build(bool traced) {
  Built b;
  core::ClusterConfig cc;
  cc.nodes = kCore + kRelays;  // gateways live after the topic members
  cc.trace = trace_config(traced);
  b.domain = std::make_unique<dds::Domain>(cc);
  dds::TopicConfig tc;
  tc.name = "rpc";
  tc.topic_id = kTopic;
  tc.max_sample_size = kBodyBytes + 64;  // envelope headroom
  for (std::size_t n = 0; n < kCore; ++n) {
    tc.publishers.push_back(static_cast<net::NodeId>(n));
    tc.subscribers.push_back(static_cast<net::NodeId>(n));
  }
  b.domain->create_topic(tc);
  std::vector<dds::ClientMux*> muxes;
  for (std::size_t r = 0; r < kRelays; ++r) {
    muxes.push_back(&b.domain->create_client_mux(
        kTopic, static_cast<net::NodeId>(kCore + r),
        static_cast<net::NodeId>(r)));
  }
  b.domain->start();
  b.sessions.resize(kRelays);
  for (std::size_t r = 0; r < kRelays; ++r) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      b.sessions[r].push_back(muxes[r]->connect());
    }
  }
  return b;
}

std::uint64_t id_base(std::size_t relay) {
  return static_cast<std::uint64_t>(relay) << 40;
}

}  // namespace

Rep run_rpc(const Spec& spec, bool) {
  Rep rep;
  const std::int64_t phase = spec.smoke ? kPhaseNs / 50 : kPhaseNs;
  std::vector<std::vector<Arrival>> arrivals(kRelays);
  for (std::size_t r = 0; r < kRelays; ++r) {
    Gen g = Gen(spec.seed).fork(0x7c00 + r);
    poisson(g, kRateRps, 0, phase, 0, arrivals[r]);
    bursty(g, kRateRps, phase, 2 * phase, arrivals[r]);
  }

  Swarm sw;
  WallTimer setup;
  Built b = build(spec.traced);
  for (auto& sessions : b.sessions) {
    for (dds::Session* s : sessions) {
      rep.check(s != nullptr, "session connect refused");
      if (s == nullptr) return rep;
    }
  }
  rep.setup_s = setup.seconds();

  dds::Domain& domain = *b.domain;
  sim::Engine& eng = domain.engine();
  sw.eng = &eng;
  const std::int64_t t0 = eng.now();
  for (auto& list : arrivals) {
    for (Arrival& a : list) a.due += t0;
  }
  std::uint64_t total = 0;
  for (const auto& list : arrivals) total += list.size();

  // Topic members: every ordered request, exactly once, in one order.
  std::vector<Member> members(kCore);
  Samples ordered;  // due -> topic upcall, every member
  std::int64_t last_upcall = t0;
  for (std::size_t n = 0; n < kCore; ++n) {
    members[n].seen.assign(kRelays << 20, 0);
    domain.reader(static_cast<net::NodeId>(n), kTopic)
        .set_listener([&, n](const dds::Sample& s) {
          Member& me = members[n];
          std::uint64_t id = 0;
          std::int64_t due = 0;
          if (s.data.size() < 16) {
            ++me.bad;
            return;
          }
          std::memcpy(&id, s.data.data(), 8);
          std::memcpy(&due, s.data.data() + 8, 8);
          const std::size_t slot = ((id >> 40) << 20) | (id & 0xfffff);
          if ((id >> 40) >= kRelays || slot >= me.seen.size() || me.seen[slot]) {
            ++me.bad;
          } else {
            me.seen[slot] = 1;
          }
          me.digest = fnv(fnv(me.digest, id), static_cast<std::uint64_t>(s.sequence));
          ++me.delivered;
          ordered.add(eng.now() - due);
          last_upcall = std::max(last_upcall, eng.now());
        });
  }

  const std::uint64_t steps0 = eng.steps();
  WallTimer run;
  for (std::size_t r = 0; r < kRelays; ++r) {
    rep.check(arrivals[r].size() < (1u << 20), "arrival index overflow");
    eng.spawn(generator(&sw, b.sessions[r], arrivals[r], id_base(r)));
  }
  const bool done = eng.run_until([&] { return sw.resolved >= total; },
                                  t0 + kWatchdogNs);
  rep.run_s = run.seconds();
  rep.steps = eng.steps() - steps0;
  rep.makespan = std::max(sw.last_reply, last_upcall) - t0;

  rep.check(done, "run stalled before every request resolved");
  rep.check(sw.offered == total, "generator issued " + std::to_string(sw.offered) +
                                     " of " + std::to_string(total) + " requests");
  rep.check(sw.ok + sw.busy + sw.cancelled + sw.disconnected == sw.offered,
            "ok + busy + cancelled + disconnected != offered");
  rep.check(sw.bad_echo == 0, std::to_string(sw.bad_echo) + " echo mismatches");
  rep.check(sw.late == 0, std::to_string(sw.late) +
                              " requests issued after their due time");
  for (std::size_t n = 0; n < kCore; ++n) {
    const Member& me = members[n];
    const std::string who = "topic member " + std::to_string(n);
    rep.check(me.bad == 0, who + ": " + std::to_string(me.bad) +
                               " duplicate or malformed upcalls");
    rep.check(me.delivered == sw.ok,
              who + " delivered " + std::to_string(me.delivered) +
                  " requests, " + std::to_string(sw.ok) + " replied ok");
    rep.check(me.digest == members[0].digest, who + " order digest differs");
    rep.digest = fnv(rep.digest, me.digest);
  }
  rep.attempted = sw.offered;
  rep.failed = sw.offered - std::min(sw.offered, sw.ok) + sw.bad_echo;
  rep.sim_ops = sw.ok;

  const double secs = static_cast<double>(rep.makespan) / 1e9;
  rep.e2e["throughput_gbps"] = {
      static_cast<double>(members[0].delivered) * kBodyBytes / secs / 1e9, 0};
  rep.e2e["delivery_p50_us"] = ordered.us(50);
  rep.e2e["delivery_p99_us"] = ordered.us(99);
  rep.e2e["rpc_p50_us"] = sw.rtt[0].us(50);
  rep.e2e["rpc_p99_us"] = sw.rtt[0].us(99);
  rep.e2e["rpc_burst_p99_us"] = sw.rtt[1].us(99);
  mirror_unexercised(rep.e2e, std::nullopt);  // capacity: the ladder

  const metrics::ClusterStats stats = domain.cluster().stats();
  LayerContext ctx;
  ctx.makespan = rep.makespan;
  ctx.nodes = kCore;
  ctx.sending_threads = kRelays;
  ctx.ops = sw.offered;
  ctx.app_bytes_sent = stats.total.messages_sent * kBodyBytes;
  ctx.active_subgroups = {domain.topic_subgroup(kTopic)};
  CounterLayers counters;
  counters.add(stats, ctx);
  counters.emit(rep.layer);
  rep.layer["sim.events_per_op"] = {
      static_cast<double>(rep.steps) / static_cast<double>(sw.offered), 0};
  std::uint64_t shed = 0;
  double waiters = 0, credits = 0, up = 0, down = 0;
  for (const metrics::RelayTierStats& t : stats.relays) {
    shed += t.requests_shed;
    waiters = std::max<double>(waiters, t.peak_credit_waiters);
    credits = std::max<double>(credits, t.credits_effective);
    up = std::max<double>(up, static_cast<double>(t.peak_uplink_queue));
    down = std::max<double>(down, static_cast<double>(t.peak_downlink_queue));
  }
  rep.layer["dds.shed_fraction"] = {
      static_cast<double>(shed) / static_cast<double>(sw.offered), sw.offered};
  rep.layer["dds.peak_credit_waiters"] = {waiters, 0};
  rep.layer["dds.credits_effective"] = {credits, 0};
  rep.layer["dds.peak_uplink_queue"] = {up, 0};
  rep.layer["dds.peak_downlink_queue"] = {down, 0};
  if (spec.traced) {
    SpanLayers spans;
    spans.add(domain.cluster().tracer(), rep, domain.topic_subgroup(kTopic));
    spans.emit(rep.layer);
  }
  domain.shutdown();
  return rep;
}

Value rpc_capacity(const Spec& spec, std::vector<std::string>& violations) {
  const std::int64_t window = spec.smoke ? kLadderWindowNs / 50 : kLadderWindowNs;
  // A rate passes when every request replies ok and the window's p99
  // (nearest rank) stays within the limit. The verdict is final once too
  // many replies exceed the limit, so a failing window stops there.
  const auto passes = [&](double rps) {
    std::vector<std::vector<Arrival>> arrivals(kRelays);
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < kRelays; ++r) {
      Gen g = Gen(spec.seed).fork(0x1add0000 + r * 1'000'000 +
                                  static_cast<std::uint64_t>(rps));
      poisson(g, rps, 0, window, 0, arrivals[r]);
      total += arrivals[r].size();
    }
    const std::uint64_t allowed =
        total - static_cast<std::uint64_t>(std::ceil(0.99 * static_cast<double>(total)));
    Swarm sw;
    Built b = build(false);
    sim::Engine& eng = b.domain->engine();
    sw.eng = &eng;
    const std::int64_t t0 = eng.now();
    for (std::size_t r = 0; r < kRelays; ++r) {
      for (Arrival& a : arrivals[r]) a.due += t0;
      eng.spawn(generator(&sw, b.sessions[r], arrivals[r], id_base(r)));
    }
    const auto failed = [&] {
      return sw.busy + sw.cancelled + sw.disconnected > 0 ||
             sw.over_limit > allowed;
    };
    const bool done = eng.run_until(
        [&] { return sw.resolved >= total || failed(); }, t0 + kWatchdogNs);
    if (!done) violations.push_back("capacity window stalled");
    if (sw.bad_echo > 0) violations.push_back("capacity window: echo mismatch");
    sw.stop = true;
    b.domain->shutdown();
    return done && !failed();
  };

  double lo = 0;
  double hi = 60'000;
  while (passes(hi)) {
    lo = hi;
    hi += 20'000;
    if (hi > 1e6) break;
  }
  if (lo == 0) {
    violations.push_back("capacity ladder: 60 krps/relay already fails");
    return {0, 0};
  }
  while (hi - lo > 2'500) {
    const double mid = (lo + hi) / 2;
    (passes(mid) ? lo : hi) = mid;
  }
  return {lo * kRelays, 0};
}

}  // namespace spindle::bench
