#include "layers.hpp"

#include <algorithm>

namespace spindle::bench {

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void CounterLayers::add(const metrics::ClusterStats& s, const LayerContext& c) {
  total_.merge(s.total);
  const auto span = static_cast<double>(c.makespan);
  sender_thread_ns_ += static_cast<double>(c.sending_threads) * span;
  node_ns_ += static_cast<double>(c.nodes) * span;
  for (const metrics::SubgroupStats& sg : s.subgroups) {
    if (std::find(c.active_subgroups.begin(), c.active_subgroups.end(),
                  sg.id) != c.active_subgroups.end()) {
      active_cpu_ += static_cast<double>(sg.predicate_cpu);
    }
    for (const metrics::PredicateStat& p : sg.predicates) {
      evals_ += p.evals;
      fires_ += p.fires;
    }
  }
  ops_ += c.ops;
  app_bytes_ += c.app_bytes_sent;
  crosses_ += c.crosses;
}

void CounterLayers::emit(Metrics& out) const {
  const auto sent = static_cast<double>(total_.messages_sent);
  const auto cnt = [](const metrics::Histogram& h) {
    return Value{static_cast<double>(h.median()), h.count()};
  };
  out["core.sender_wait_share"] = {
      ratio(static_cast<double>(total_.sender_wait), sender_thread_ns_), 0};
  out["core.post_cpu_ns_per_msg"] = {
      ratio(static_cast<double>(total_.post_cpu), sent), 0};
  out["core.lock_wait_ns_per_msg"] = {
      ratio(static_cast<double>(total_.lock_wait), sent), 0};
  out["core.send_batch_p50"] = cnt(total_.send_batches);
  out["core.receive_batch_p50"] = cnt(total_.receive_batches);
  out["core.delivery_batch_p50"] = cnt(total_.delivery_batches);
  out["core.nulls_per_msg"] = {
      ratio(static_cast<double>(total_.nulls_sent), sent), 0};
  out["net.rdma_writes_per_msg"] = {
      ratio(static_cast<double>(total_.rdma_writes_posted), sent), 0};
  out["net.wire_bytes_per_app_byte"] = {
      ratio(static_cast<double>(total_.rdma_bytes_posted),
            static_cast<double>(app_bytes_)),
      0};
  out["net.atomics_per_cross"] = {
      ratio(static_cast<double>(total_.atomics_posted),
            static_cast<double>(crosses_)),
      crosses_};
  out["sst.predicate_cpu_share"] = {
      ratio(static_cast<double>(total_.predicate_cpu), node_ns_), 0};
  out["sst.active_predicate_fraction"] = {
      ratio(active_cpu_, static_cast<double>(total_.predicate_cpu)), 0};
  out["sst.fire_ratio"] = {
      ratio(static_cast<double>(fires_), static_cast<double>(evals_)), evals_};
  out["sst.evals_per_op"] = {
      ratio(static_cast<double>(evals_), static_cast<double>(ops_)), ops_};
}

void SpanLayers::add(const trace::Tracer& t, Rep& rep,
                     std::optional<std::uint32_t> order_subgroup) {
  for (std::uint32_t n = 0; n < t.nodes(); ++n) {
    rep.check(t.dropped(n) == 0,
              "trace ring dropped " + std::to_string(t.dropped(n)) +
                  " events at node " + std::to_string(n));
  }
  // Events in time order: a (subgroup, sender, index) key reused by a later
  // epoch is matched against its latest construct.
  MsgMap<std::int64_t> built;
  MsgMap<std::int64_t> received;
  for (const trace::Event& e : t.all_events()) {
    const MsgKey msg{0, e.subgroup, e.sender, e.msg_index};
    const MsgKey at{e.node, e.subgroup, e.sender, e.msg_index};
    switch (e.stage) {
      case trace::Stage::slot_acquire:
        slot_wait_.add(e.dur);
        break;
      case trace::Stage::construct:
        construct_.add(e.dur);
        built[msg] = e.t;
        break;
      case trace::Stage::receive: {
        received[at] = e.t;
        const auto b = built.find(msg);
        if (b != built.end() && e.t >= b->second) c2r_.add(e.t - b->second);
        break;
      }
      case trace::Stage::deliver: {
        const auto r = received.find(at);
        if (r != received.end()) {
          if (e.t >= r->second) r2d_.add(e.t - r->second);
          received.erase(r);
        }
        if (order_subgroup && e.subgroup == *order_subgroup) {
          const auto b = built.find(msg);
          if (b != built.end() && e.t >= b->second) order_.add(e.t - b->second);
        }
        break;
      }
      case trace::Stage::atomic_post:
        atomic_rtt_.add(e.dur);
        break;
      default:
        break;
    }
  }
}

void SpanLayers::emit(Metrics& out) {
  out["smc.slot_wait_p50_us"] = slot_wait_.us(50);
  out["smc.slot_wait_p99_us"] = slot_wait_.us(99);
  out["core.construct_p50_ns"] = construct_.ns(50);
  out["core.construct_to_receive_p50_us"] = c2r_.us(50);
  out["core.construct_to_receive_p99_us"] = c2r_.us(99);
  out["core.receive_to_deliver_p50_us"] = r2d_.us(50);
  out["core.receive_to_deliver_p99_us"] = r2d_.us(99);
  out["net.atomic_rtt_p50_us"] = atomic_rtt_.us(50);
  if (order_.size() > 0) out["dds.order_p50_us"] = order_.us(50);
}

}  // namespace spindle::bench
