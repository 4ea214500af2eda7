#include "dds/dds.hpp"

#include "dds/client_mux.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace spindle::dds {

const char* qos_name(Qos q) {
  switch (q) {
    case Qos::unordered:
      return "unordered";
    case Qos::atomic_multicast:
      return "atomic multicast";
    case Qos::volatile_storage:
      return "volatile storage";
    case Qos::logged_storage:
      return "logged storage";
  }
  return "?";
}

Domain::Domain(core::ClusterConfig cfg) : cluster_(cfg) {}

Domain::~Domain() { shutdown(); }

void Domain::shutdown() {
  for (auto& mux : muxes_) mux->stop();
  cluster_.shutdown();
}

std::uint8_t Domain::create_topic(TopicConfig cfg) {
  if (started_) throw std::logic_error("create_topic after start()");
  if (topics_.contains(cfg.topic_id)) {
    throw std::invalid_argument("duplicate topic id");
  }
  if (cfg.publishers.empty()) throw std::invalid_argument("no publishers");

  // Subgroup membership: publishers + subscribers (dedup, keep order:
  // publishers first so the round-robin sender order is the publisher
  // list). Senders are exactly the publishers.
  core::SubgroupConfig sc;
  sc.name = "topic:" + cfg.name;
  sc.senders = cfg.publishers;
  sc.members = cfg.publishers;
  for (net::NodeId s : cfg.subscribers) {
    if (std::find(sc.members.begin(), sc.members.end(), s) ==
        sc.members.end()) {
      sc.members.push_back(s);
    }
  }

  sc.opts = cfg.opts;
  sc.opts.max_msg_size = cfg.max_sample_size;
  switch (cfg.qos) {
    case Qos::unordered:
      sc.opts.mode = core::DeliveryMode::unordered;
      sc.opts.memcpy_on_delivery = false;
      break;
    case Qos::atomic_multicast:
      sc.opts.mode = core::DeliveryMode::atomic;
      sc.opts.memcpy_on_delivery = false;
      break;
    case Qos::volatile_storage:
    case Qos::logged_storage:
      // Storing QoS levels copy the sample out of the ring (§4.4/§4.6).
      sc.opts.mode = core::DeliveryMode::atomic;
      sc.opts.memcpy_on_delivery = true;
      break;
  }

  TopicState ts;
  ts.cfg = cfg;
  ts.subgroup = cluster_.create_subgroup(sc);
  const std::uint8_t id = cfg.topic_id;
  topics_.emplace(id, std::move(ts));
  return id;
}

Domain::TopicState& Domain::topic(std::uint8_t id) {
  auto it = topics_.find(id);
  if (it == topics_.end()) throw std::invalid_argument("unknown topic");
  return it->second;
}

const Domain::TopicState& Domain::topic(std::uint8_t id) const {
  auto it = topics_.find(id);
  if (it == topics_.end()) throw std::invalid_argument("unknown topic");
  return it->second;
}

void Domain::start() {
  if (started_) throw std::logic_error("start() called twice");
  started_ = true;
  cluster_.start();

  for (auto& [id, ts] : topics_) {
    const std::uint8_t topic_id = id;
    for (net::NodeId sub : ts.cfg.subscribers) {
      auto reader = std::make_unique<DataReader>();
      DataReader* r = reader.get();
      const Qos qos = ts.cfg.qos;

      std::vector<ClientMux*> muxes;
      if (auto it = ts.muxes.find(sub); it != ts.muxes.end()) {
        muxes = it->second;
      }
      cluster_.node(sub).set_delivery_handler(
          ts.subgroup,
          [r, topic_id, qos, muxes](const core::Delivery& d) {
            // Front-tier RPC envelopes ride the total order tagged with a
            // trailer flag; strip the header so the application (readers,
            // listeners, storage) sees only the client's payload.
            std::span<const std::byte> body = d.data;
            RpcEnvelope env_buf;
            const RpcEnvelope* env = nullptr;
            if ((d.flags & kRpcEnvelopeFlag) != 0 &&
                d.data.size() >= sizeof(RpcEnvelope)) {
              std::memcpy(&env_buf, d.data.data(), sizeof env_buf);
              env = &env_buf;
              body = d.data.subspan(sizeof env_buf);
            }
            ++r->samples_;
            if (qos == Qos::volatile_storage || qos == Qos::logged_storage) {
              r->history_.emplace_back(body.begin(), body.end());
              if (qos == Qos::logged_storage) {
                r->logged_bytes_ += body.size();
              }
            }
            const Sample sample{topic_id, d.sender, d.seq, body};
            if (r->listener_) r->listener_(sample);
            // Front-tier muxes (§4.6's relaying step): reply generation,
            // credit return, and session subscription fanout.
            for (ClientMux* m : muxes) m->on_topic_delivery(sample, env);
          });
      if (qos == Qos::logged_storage) {
        // The SSD append runs on the delivery path (paper: "data is
        // additionally appended to a log file on SSD storage"), costed by
        // the cluster's SSD model.
        cluster_.node(sub).set_delivery_cost_hook(
            ts.subgroup, [this](const core::Delivery& d) {
              const core::CpuModel& cpu = cluster_.cpu();
              return cpu.ssd_op_latency + cpu.ssd_append_cost(d.data.size());
            });
      }
      ts.readers.emplace(sub, std::move(reader));
    }
  }
  for (auto& mux : muxes_) {
    mux->start();
    // Surface the mux's admission/occupancy counters through
    // cluster.stats() next to the protocol counters.
    cluster_.registry().add_collector(
        [m = mux.get()](metrics::ClusterStats& stats) {
          stats.relays.push_back(m->tier_stats());
        });
  }
}

DataWriter Domain::writer(net::NodeId node, std::uint8_t topic_id) {
  TopicState& ts = topic(topic_id);
  if (std::find(ts.cfg.publishers.begin(), ts.cfg.publishers.end(), node) ==
      ts.cfg.publishers.end()) {
    throw std::invalid_argument("node is not a publisher of this topic");
  }
  return DataWriter(this, topic_id, node);
}

DataReader& Domain::reader(net::NodeId node, std::uint8_t topic_id) {
  TopicState& ts = topic(topic_id);
  auto it = ts.readers.find(node);
  if (it == ts.readers.end()) {
    throw std::invalid_argument("node is not a subscriber of this topic");
  }
  return *it->second;
}

ClientMux& Domain::create_client_mux(std::uint8_t topic_id,
                                     net::NodeId gateway_node,
                                     net::NodeId relay, MuxConfig cfg) {
  if (started_) {
    throw std::logic_error("create_client_mux after Domain::start()");
  }
  if (cluster_.sim_workers() > 1) {
    // The mux's actors run on one engine but touch both endpoints' rings
    // and doorbells, which live in different partitions.
    throw std::invalid_argument(
        "create_client_mux: the front tier needs the serial engine "
        "(sim_threads = 1)");
  }
  TopicState& ts = topic(topic_id);
  if (std::find(ts.cfg.subscribers.begin(), ts.cfg.subscribers.end(),
                relay) == ts.cfg.subscribers.end()) {
    throw std::invalid_argument(
        "create_client_mux: relay must subscribe to the topic");
  }
  if (std::find(ts.cfg.publishers.begin(), ts.cfg.publishers.end(), relay) ==
      ts.cfg.publishers.end()) {
    throw std::invalid_argument(
        "create_client_mux: relay must be a publisher (it re-publishes "
        "session traffic)");
  }
  if (gateway_node == relay) {
    throw std::invalid_argument(
        "create_client_mux: gateway must be a distinct fabric node");
  }
  if (gateway_node >= cluster_.fabric().size()) {
    throw std::invalid_argument(
        "create_client_mux: gateway node is outside the fabric (size the "
        "cluster with enough nodes for the gateways)");
  }
  for (net::NodeId m : ts.cfg.publishers) {
    if (m == gateway_node) {
      throw std::invalid_argument(
          "create_client_mux: gateway node must be outside the topic");
    }
  }
  for (net::NodeId m : ts.cfg.subscribers) {
    if (m == gateway_node) {
      throw std::invalid_argument(
          "create_client_mux: gateway node must be outside the topic");
    }
  }
  const auto mux_id = static_cast<std::uint32_t>(muxes_.size());
  muxes_.push_back(std::unique_ptr<ClientMux>(new ClientMux(
      *this, mux_id, topic_id, gateway_node, relay, std::move(cfg))));
  ts.muxes[relay].push_back(muxes_.back().get());
  return *muxes_.back();
}

ClientMux& Domain::create_client_mux(std::uint8_t topic_id,
                                     net::NodeId gateway_node,
                                     net::NodeId relay) {
  return create_client_mux(topic_id, gateway_node, relay, MuxConfig{});
}

std::uint64_t Domain::total_samples(std::uint8_t topic_id) const {
  const TopicState& ts = topic(topic_id);
  std::uint64_t total = 0;
  for (const auto& [node, reader] : ts.readers) {
    total += reader->samples_;
  }
  return total;
}

sim::Co<> DataWriter::publish(
    std::uint32_t len, std::function<void(std::span<std::byte>)> builder) {
  const core::SubgroupId sg = domain_->topic(topic_).subgroup;
  co_await domain_->cluster().node(node_).send(sg, len, std::move(builder));
}

sim::Co<> DataWriter::publish_bytes(std::span<const std::byte> sample) {
  const core::SubgroupId sg = domain_->topic(topic_).subgroup;
  // Publishing from an external buffer pays the copy-in (§4.4) via the
  // subgroup's memcpy_on_send option if configured; the copy itself is
  // performed here.
  co_await domain_->cluster().node(node_).send(
      sg, static_cast<std::uint32_t>(sample.size()),
      [sample](std::span<std::byte> buf) {
        std::memcpy(buf.data(), sample.data(), sample.size());
      });
}

}  // namespace spindle::dds
