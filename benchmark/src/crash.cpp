// member_crash: a ManagedGroup of 8 under open-loop 64 B load loses one
// member; separate runs crash the leader (node 0), node 4 and node 7.

#include <algorithm>
#include <cstring>
#include <memory>

#include "core/view.hpp"
#include "fault/vsync.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace spindle::bench {

namespace {

constexpr std::size_t kNodes = 8;
constexpr std::uint32_t kMsgSize = 64;
constexpr std::int64_t kIntervalNs = 2'000;
constexpr std::int64_t kQuiesceNs = 1'000'000;
constexpr net::NodeId kVictims[] = {0, 4, 7};

struct Plan {
  net::NodeId victim = 0;
  std::int64_t crash_at = 0;
  std::int64_t horizon = 0;
  std::vector<std::int64_t> offsets;  // per sender
};

/// Due times of `n`'s sends: every kIntervalNs from its offset until the
/// horizon, or until the crash for the victim (a crashed client sends
/// nothing more).
std::vector<std::int64_t> due_times(const Plan& p, net::NodeId n) {
  std::vector<std::int64_t> out;
  for (std::int64_t t = p.offsets[n]; t < p.horizon; t += kIntervalNs) {
    if (n == p.victim && t >= p.crash_at) break;
    out.push_back(t);
  }
  return out;
}

std::unique_ptr<core::ManagedGroup> make_group(bool traced) {
  core::ManagedGroup::Config gc;
  gc.nodes = kNodes;
  gc.trace = trace_config(traced);
  return std::make_unique<core::ManagedGroup>(gc, [](const core::View& v) {
    core::SubgroupConfig sc;
    sc.name = "crash";
    sc.members = v.members;
    sc.senders = v.members;
    sc.opts = core::ProtocolOptions::spindle();
    sc.opts.max_msg_size = kMsgSize;
    return std::vector<core::SubgroupConfig>{sc};
  });
}

struct Member {
  std::vector<std::uint64_t> next;  // per sender: next expected index
  std::uint64_t digest = kFnvOffset;
  std::uint64_t delivered = 0;
  std::uint64_t from_survivors = 0;
  std::uint64_t bad = 0;
  std::int64_t first_new_view = -1;
};

/// What one crash run measured, for the oracle twin to match.
struct Outcome {
  std::int64_t end = 0;  // virtual horizon both twins run to
  std::uint64_t steps = 0;
  std::vector<std::uint64_t> delivered;  // per node
};

/// What the crash runs of one repetition accumulate. Times are virtual ns
/// after the crash, worst over the runs.
struct Totals {
  Samples latency;  // construct -> upcall at survivors
  CounterLayers counters;
  SpanLayers spans;
  std::int64_t detect = 0;     // -> a survivor wedged
  std::int64_t install = 0;    // -> the next view installed
  std::int64_t first_any = 0;  // -> first new-view upcall at any survivor
  std::int64_t first_all = 0;  // -> new-view upcalls at every survivor
  std::uint32_t views = 0;     // views installed after the crash
  std::uint64_t survivor_sends = 0;  // summed over the runs
};

/// The measured run of one victim; folds what it saw into `rep` and `tot`.
Outcome measured_run(const Spec& spec, const Plan& p, Rep& rep, Totals& tot) {
  WallTimer setup;
  auto group = make_group(spec.traced);
  group->start();
  rep.setup_s += setup.seconds();
  sim::Engine& eng = group->engine();

  std::uint64_t survivor_sends = 0;
  for (net::NodeId n = 0; n < kNodes; ++n) {
    const std::vector<std::int64_t> due = due_times(p, n);
    if (n != p.victim) survivor_sends += due.size();
    for (std::size_t i = 0; i < due.size(); ++i) {
      eng.schedule_fn(due[i], [g = group.get(), n, i] {
        g->send(n, 0, fault::VsyncChecker::make_payload(n, i, kMsgSize));
      });
    }
  }
  eng.schedule_fn(p.crash_at, [g = group.get(), v = p.victim] { g->crash(v); });

  std::vector<Member> members(kNodes);
  std::uint64_t survivors_done = 0;  // survivor-sent upcalls at survivors
  for (net::NodeId n = 0; n < kNodes; ++n) {
    members[n].next.assign(kNodes, 0);
    group->set_delivery_handler(n, 0, [&, n](const core::Delivery& d) {
      Member& me = members[n];
      const std::int64_t now = eng.now();
      std::uint64_t src = 0, idx = 0;
      if (d.data.size() >= 16) {
        std::memcpy(&src, d.data.data(), 8);
        std::memcpy(&idx, d.data.data() + 8, 8);
      }
      if (src >= kNodes || idx != me.next[src]) {
        ++me.bad;
      } else {
        ++me.next[src];
      }
      me.digest = fnv(fnv(me.digest, src), idx);
      ++me.delivered;
      if (n == p.victim) return;
      if (src != p.victim) {
        ++me.from_survivors;
        ++survivors_done;
      }
      if (d.sent_at >= 0) tot.latency.add(now - d.sent_at);
      if (me.first_new_view < 0 && group->epoch() >= 1) me.first_new_view = now;
    });
  }

  const std::uint64_t steps0 = eng.steps();
  WallTimer run;
  const std::int64_t watchdog = p.horizon + kWatchdogNs;
  std::int64_t detect = -1, install = -1;
  if (eng.run_until([&] { return group->view_change_in_progress(); }, watchdog)) {
    detect = eng.now() - p.crash_at;
  }
  if (eng.run_until([&] { return group->epoch() >= 1; }, watchdog)) {
    install = eng.now() - p.crash_at;
  }
  const std::uint64_t expected = survivor_sends * (kNodes - 1);
  const bool done =
      eng.run_until([&] { return survivors_done >= expected; }, watchdog);
  Outcome out;
  out.end = eng.now() + kQuiesceNs;
  eng.run_to(out.end);  // anything delivered late would show as a duplicate
  rep.run_s += run.seconds();
  rep.steps += eng.steps() - steps0;
  out.steps = eng.steps();

  const std::string run_name = "crash of node " + std::to_string(p.victim);
  rep.check(detect >= 0 && install >= 0,
            run_name + ": no view change followed the crash");
  rep.check(done, run_name + ": survivors did not deliver every survivor send");
  std::int64_t first_any = -1, first_all = -1;
  std::uint64_t everywhere = survivor_sends;
  const Member* ref = nullptr;
  for (net::NodeId n = 0; n < kNodes; ++n) {
    const Member& me = members[n];
    out.delivered.push_back(me.delivered);
    rep.check(me.bad == 0, run_name + ": node " + std::to_string(n) +
                               " saw duplicate or out-of-order upcalls");
    if (n == p.victim) continue;
    if (ref == nullptr) ref = &me;
    rep.check(me.digest == ref->digest,
              run_name + ": survivor order digests differ");
    rep.digest = fnv(rep.digest, me.digest);
    everywhere = std::min(everywhere, me.from_survivors);
    const std::int64_t f = me.first_new_view - p.crash_at;
    first_any = first_any < 0 ? f : std::min(first_any, f);
    first_all = std::max(first_all, f);
    rep.check(me.first_new_view >= 0,
              run_name + ": a survivor delivered nothing in the new view");
  }
  rep.attempted += survivor_sends;
  rep.failed += survivor_sends - everywhere;
  rep.sim_ops += survivors_done;
  rep.makespan += out.end - kQuiesceNs;
  tot.detect = std::max(tot.detect, detect);
  tot.install = std::max(tot.install, install);
  tot.first_any = std::max(tot.first_any, first_any);
  tot.first_all = std::max(tot.first_all, first_all);
  tot.views = std::max(tot.views, group->epoch());
  tot.survivor_sends += survivor_sends;

  LayerContext ctx;  // counters of the surviving epoch's cluster
  const metrics::ClusterStats stats = group->cluster().stats();
  ctx.makespan = out.end - kQuiesceNs - (p.crash_at + install);
  ctx.nodes = kNodes - 1;
  ctx.sending_threads = kNodes - 1;
  ctx.ops = stats.total.messages_sent;
  ctx.app_bytes_sent = stats.total.messages_sent * kMsgSize;
  ctx.active_subgroups = {0};
  tot.counters.add(stats, ctx);
  if (spec.traced) tot.spans.add(group->tracer(), rep);
  group->shutdown();
  return out;
}

/// The oracle twin: the identical run with fault::VsyncChecker owning the
/// delivery handlers (it forwards nothing, hence a separate run).
void checker_run(const Plan& p, const Outcome& measured, Rep& rep) {
  auto group = make_group(false);
  group->start();
  fault::VsyncChecker checker;
  checker.attach(*group);
  sim::Engine& eng = group->engine();
  for (net::NodeId n = 0; n < kNodes; ++n) {
    for (std::int64_t t : due_times(p, n)) {
      eng.schedule_fn(t, [g = group.get(), c = &checker, n] {
        const std::uint64_t i = c->note_send(n, 0);
        g->send(n, 0, fault::VsyncChecker::make_payload(n, i, kMsgSize));
      });
    }
  }
  eng.schedule_fn(p.crash_at, [g = group.get(), v = p.victim] { g->crash(v); });
  eng.run_to(measured.end);
  const std::string run_name = "crash of node " + std::to_string(p.victim);
  for (const std::string& v : checker.check(*group)) {
    rep.violations.push_back(run_name + ": vsync: " + v);
  }
  rep.check(eng.steps() == measured.steps,
            run_name + ": oracle twin diverged from the measured run");
  for (net::NodeId n = 0; n < kNodes; ++n) {
    rep.check(checker.delivered_total(n, 0) == measured.delivered[n],
              run_name + ": oracle twin delivery count differs at node " +
                  std::to_string(n));
  }
  group->shutdown();
}

}  // namespace

Rep run_crash(const Spec& spec, bool first) {
  Rep rep;
  Gen g = Gen(spec.seed).fork(0xc7a5);
  Totals tot;
  for (net::NodeId victim : kVictims) {
    Plan p;
    p.victim = victim;
    p.crash_at = (spec.smoke ? 1'000'000 : 2'000'000) +
                 static_cast<std::int64_t>(g.below(10'000));
    p.horizon = spec.smoke ? 3'000'000 : 6'000'000;
    p.offsets = start_offsets(spec.seed ^ (victim + 1), kNodes);
    const Outcome out = measured_run(spec, p, rep, tot);
    if (first && !spec.traced) checker_run(p, out, rep);
  }

  const double secs = static_cast<double>(rep.makespan) / 1e9;
  const auto sends = static_cast<double>(tot.survivor_sends);
  const auto us = [](std::int64_t ns) {
    return Value{static_cast<double>(ns) / 1e3, std::size(kVictims)};
  };
  rep.e2e["throughput_gbps"] = {sends * kMsgSize / secs / 1e9, 0};
  rep.e2e["delivery_p50_us"] = tot.latency.us(50);
  rep.e2e["delivery_p99_us"] = tot.latency.us(99);
  rep.e2e["outage_us"] = us(tot.first_all);
  mirror_unexercised(rep.e2e, sends / secs);

  tot.counters.emit(rep.layer);
  rep.layer["sim.events_per_op"] = {
      static_cast<double>(rep.steps) / static_cast<double>(rep.attempted), 0};
  rep.layer["view.detect_us"] = us(tot.detect);
  rep.layer["view.install_us"] = us(tot.install);
  rep.layer["view.first_delivery_us"] = us(tot.first_any);
  rep.layer["view.view_changes"] = {static_cast<double>(tot.views),
                                    std::size(kVictims)};
  if (spec.traced) tot.spans.emit(rep.layer);
  return rep;
}

}  // namespace spindle::bench
