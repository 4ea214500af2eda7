#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/group.hpp"

namespace spindle::dds {

/// Quality-of-service levels of the avionics DDS prototype (paper §4.6).
enum class Qos : std::uint8_t {
  /// Data is delivered without waiting for stability and discarded after
  /// the listener upcall (no ordering/reliability guarantee).
  unordered,
  /// Maps directly to Derecho's atomic multicast; data discarded after the
  /// upcall.
  atomic_multicast,
  /// Incoming data is additionally copied into the reader's in-memory
  /// history (lets a late subscriber catch up).
  volatile_storage,
  /// Data is additionally appended to a log file on (simulated) SSD.
  logged_storage,
};

const char* qos_name(Qos q);

/// A topic: an 8-bit topic number, a sample type bound (max size), QoS, and
/// the publishing/subscribing participants. Maps to one Derecho subgroup
/// whose members are publishers + subscribers and whose senders are the
/// publishers.
struct TopicConfig {
  std::string name;
  std::uint8_t topic_id = 0;
  std::uint32_t max_sample_size = 10240;
  Qos qos = Qos::atomic_multicast;
  std::vector<net::NodeId> publishers;
  std::vector<net::NodeId> subscribers;  // may overlap publishers
  /// Optimization flags of the underlying multicast (mode and memcpy flags
  /// are derived from `qos` and overwritten).
  core::ProtocolOptions opts;
};

/// A sample delivered to a DataReader listener.
struct Sample {
  std::uint8_t topic_id;
  std::size_t publisher;     // rank within the topic's publisher list
  std::int64_t sequence;     // total order position (-1 for unordered QoS)
  std::span<const std::byte> data;  // valid only during the upcall
};

using SampleListener = std::function<void(const Sample&)>;

class Domain;
class ClientMux;
struct MuxConfig;

/// Publisher endpoint for one topic at one node. Supports in-place sample
/// construction (§4.6: "construct messages in place, then mark them ready
/// to send") — the key to avoiding marshalling overhead for byte-sequence
/// types.
class DataWriter {
 public:
  /// In-place publish: `builder` writes the sample directly into the ring
  /// slot.
  sim::Co<> publish(std::uint32_t len,
                    std::function<void(std::span<std::byte>)> builder);
  /// Convenience publish-by-copy.
  sim::Co<> publish_bytes(std::span<const std::byte> sample);

 private:
  friend class Domain;
  DataWriter(Domain* domain, std::uint8_t topic, net::NodeId node)
      : domain_(domain), topic_(topic), node_(node) {}
  Domain* domain_;
  std::uint8_t topic_;
  net::NodeId node_;
};

/// Subscriber endpoint for one topic at one node.
class DataReader {
 public:
  void set_listener(SampleListener listener) {
    listener_ = std::move(listener);
  }

  /// History of stored samples (volatile_storage / logged_storage QoS).
  const std::vector<std::vector<std::byte>>& history() const {
    return history_;
  }
  /// Bytes appended to the simulated SSD log (logged_storage QoS).
  std::uint64_t logged_bytes() const { return logged_bytes_; }
  std::uint64_t samples_received() const { return samples_; }

 private:
  friend class Domain;
  SampleListener listener_;
  std::vector<std::vector<std::byte>> history_;
  std::uint64_t logged_bytes_ = 0;
  std::uint64_t samples_ = 0;
};

/// The Global Data Space: topics, participants, and the mapping onto a
/// Derecho top-level group with one subgroup per topic (paper §4.6).
class Domain {
 public:
  explicit Domain(core::ClusterConfig cfg);
  ~Domain();  // out of line: ClientMux is incomplete here

  /// Stop front-tier muxes and the cluster, draining the event queue.
  /// Idempotent; called by the destructor (members must not be destroyed
  /// while actor events are still pending).
  void shutdown();

  /// Declare a topic before start(). Returns the topic id.
  std::uint8_t create_topic(TopicConfig cfg);

  void start();

  DataWriter writer(net::NodeId node, std::uint8_t topic_id);
  DataReader& reader(net::NodeId node, std::uint8_t topic_id);

  /// Attach a front-tier multiplexer (dds/client_mux.hpp) serving
  /// `topic_id`: `gateway_node` is a fabric node outside the topic's
  /// membership that aggregates the client sessions; `relay` is a topic
  /// member (subscriber and publisher) that re-publishes session traffic
  /// into the total order. Call before start(); connect sessions any time.
  /// Serial engine only: throws std::invalid_argument when the cluster runs
  /// more than one simulation worker.
  ClientMux& create_client_mux(std::uint8_t topic_id, net::NodeId gateway_node,
                               net::NodeId relay, MuxConfig cfg);
  ClientMux& create_client_mux(std::uint8_t topic_id, net::NodeId gateway_node,
                               net::NodeId relay);

  std::uint32_t topic_max_sample(std::uint8_t topic_id) const {
    return topic(topic_id).cfg.max_sample_size;
  }
  core::SubgroupId topic_subgroup(std::uint8_t topic_id) const {
    return topic(topic_id).subgroup;
  }

  core::Cluster& cluster() { return cluster_; }
  sim::Engine& engine() { return cluster_.engine(); }

  /// Total samples delivered to subscribers of `topic`.
  std::uint64_t total_samples(std::uint8_t topic_id) const;

 private:
  friend class DataWriter;

  struct TopicState {
    TopicConfig cfg;
    core::SubgroupId subgroup;
    std::map<net::NodeId, std::unique_ptr<DataReader>> readers;
    // relay node -> front-tier muxes fed from that relay's deliveries
    std::map<net::NodeId, std::vector<ClientMux*>> muxes;
  };
  TopicState& topic(std::uint8_t id);
  const TopicState& topic(std::uint8_t id) const;

  core::Cluster cluster_;
  std::map<std::uint8_t, TopicState> topics_;
  std::vector<std::unique_ptr<ClientMux>> muxes_;
  bool started_ = false;
};

}  // namespace spindle::dds
