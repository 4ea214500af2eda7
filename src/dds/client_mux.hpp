#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "dds/dds.hpp"
#include "dds/session.hpp"
#include "metrics/registry.hpp"
#include "smc/ring.hpp"

namespace spindle::dds {

/// Trailer flag bit (core::Delivery::flags) tagging a multicast payload as
/// a front-tier RPC envelope: [RpcEnvelope][body] instead of raw sample
/// bytes. Bit 0 is the protocol's null marker; the front tier owns bit 1.
inline constexpr std::uint32_t kRpcEnvelopeFlag = 2u;

/// Prefix of every mux-published multicast payload. Travels through the
/// totally-ordered subgroup so the owning relay can route the reply back
/// to the session that asked, and every other member can strip it before
/// the application upcall.
struct RpcEnvelope {
  std::uint32_t mux;      // Domain-assigned mux id (owner of the reply)
  std::uint32_t session;  // session id within the mux
  std::uint64_t corr;     // correlation id of the request
  std::uint32_t kind;     // 0 = request (reply expected), 1 = publish
  std::uint32_t topic;    // the mux's topic
};
static_assert(sizeof(RpcEnvelope) == 24);

/// Admission and link parameters of one ClientMux.
struct MuxConfig {
  /// Shared mailbox-ring depth per direction (frames in flight on the
  /// gateway<->relay link, across *all* sessions).
  std::uint32_t ring_window = 512;
  /// In-flight credit pool: requests + publishes admitted into the relay
  /// pipeline at once. A credit is taken at admission and returned when the
  /// round trip ends — at the gateway demux of the reply for a request, at
  /// the relay's delivery observation for a publish.
  std::uint32_t credits = 128;
  /// Queue-depth watermark: when this many requests are already parked
  /// waiting for a credit, further arrivals are shed with ReplyStatus::busy
  /// instead of queued — the explicit-rejection half of backpressure.
  std::uint32_t admit_watermark = 256;
  /// connect() beyond this many live sessions is refused (nullptr).
  std::uint32_t max_sessions = 1u << 20;
  /// Per-frame software overhead at the gateway and relay link endpoints.
  sim::Nanos per_message_overhead = 3'000;
  /// Service function run at the relay for each request (in delivery
  /// order). Default: echo the request body.
  std::function<std::vector<std::byte>(std::span<const std::byte>)> service;
};

/// Per-relay front-tier multiplexer (§4.6's "extra relaying step", scaled):
/// one *gateway* fabric node aggregates thousands of client sessions and
/// connects to one relay member over a single shared mailbox-ring pair. A
/// mux serves the one topic it was created for. Five actors total,
/// regardless of session count: the uplink shipper (gateway), the relay's
/// two stages — link ingress (pays the per-frame link overhead) and publish
/// (re-publishes each parsed frame into the topic's subgroup as a flagged
/// RPC envelope, so client requests are totally ordered with member
/// publications) — the downlink shipper (relay: replies and samples) and
/// the demux (gateway: frames to sessions). Each piece of per-frame work
/// runs in its own actor, so the stages of a direction overlap instead of
/// adding up. A shipper posts every frame that may leave as one batch of
/// consecutive slots: one data write and one trailer write (two of each
/// when the batch wraps the ring), then it stays busy for the posts plus
/// the link overhead of every frame in the batch. A downlink frame leaves
/// the relay only once every topic member has delivered its sequence, so
/// an ok reply means the whole topic has the request.
///
/// Admission control: a request takes a credit from the per-relay pool or
/// parks below the watermark; at the watermark it is shed with `busy`.
/// Credits return when the relay sees the delivery, so a saturated
/// multicast window propagates backpressure: deliveries slow -> the publish
/// stage blocks -> the uplink ring fills -> credits starve -> arrivals
/// park -> the watermark sheds.
///
/// Every wait parks, untimed, on the signal of the event it needs (DESIGN.md
/// §3d); disconnect_all() and the relay's Node::stop() ring them at
/// teardown. Only a shipper facing a full ring re-polls.
class ClientMux {
 public:
  ClientMux(const ClientMux&) = delete;
  ClientMux& operator=(const ClientMux&) = delete;
  ~ClientMux();

  /// Admit a new session, or nullptr when the mux is disconnected or at
  /// max_sessions (the session-level shed; counted in stats). Valid before
  /// and after Domain::start(); sessions are owned by the mux.
  Session* connect(SessionLink link = {});

  net::NodeId relay_node() const noexcept { return relay_; }
  net::NodeId gateway_node() const noexcept { return gateway_; }
  bool connected() const noexcept { return !disconnected_; }

  std::uint32_t credits_available() const noexcept {
    return cfg_.credits > credits_out_ ? cfg_.credits - credits_out_ : 0;
  }
  std::uint32_t credit_waiters() const noexcept { return credit_queue_.size(); }
  std::size_t live_sessions() const noexcept { return live_sessions_; }
  /// Link actors still running: five while the mux is connected, none once
  /// it has disconnected (relay crash) or stopped and they have noticed.
  std::uint32_t actors_running() const noexcept { return actors_running_; }

  /// Point-in-time copy of this mux's admission/occupancy counters (the
  /// same record Cluster::stats() surfaces in ClusterStats::relays).
  metrics::RelayTierStats tier_stats() const;

 private:
  friend class Domain;
  friend class Session;

  ClientMux(Domain& domain, std::uint32_t mux_id, std::uint8_t topic,
            net::NodeId gateway, net::NodeId relay, MuxConfig cfg);

  void start();  // build the shared rings, spawn the five actors
  /// Domain::shutdown: resolve every in-flight request (deterministic
  /// teardown) and halt the actors.
  void stop() noexcept;

  /// Relay delivery upcall (from the Domain handler; must not block): for
  /// an envelope this mux owns, return the credit and stage the reply; fan
  /// every sample out to subscribed sessions.
  void on_topic_delivery(const Sample& sample, const RpcEnvelope* env);

  struct Link;
  /// Sender endpoint of one direction (the gateway's uplink shipper, the
  /// relay's downlink shipper): staged frames -> ring, in batches of every
  /// frame that may leave now. A frame naming an ordered sequence waits for
  /// the relay's delivered frontier to reach it.
  sim::Co<> ship_actor(Link& link);
  sim::Co<> ingress_actor();  // relay: uplink ring -> parsed frames
  sim::Co<> publish_actor();  // relay: parsed frames -> subgroup publish
  sim::Co<> demux_actor();    // gateway: downlink ring -> sessions
  /// Runs `actor`, counted in actors_running() while it lives.
  sim::Co<> counted(sim::Co<> actor);

  // Session-facing internals (Session methods live in client_mux.cpp).
  sim::Co<Reply> run_request(Session& s, std::span<const std::byte> body);
  sim::Co<ReplyStatus> run_publish(Session& s,
                                   std::span<const std::byte> body);
  /// Session::close(): resolves the session's parked requests, then parks
  /// until its last in-flight request resolves (complete() and
  /// resolve_all() wake it), then detaches.
  sim::Co<> drain_session(Session& s);
  void cancel_session(Session& s) noexcept;

  /// Credit-pool admission: `ok` once a credit is taken, `busy` when shed
  /// at the watermark, else the teardown status. Below the watermark a
  /// request parks in the credit queue until it is handed its outcome.
  sim::Co<ReplyStatus> admit(Session& s);
  ReplyStatus teardown_status(const Session& s) const noexcept;
  void return_credit() noexcept;  // hands the credit to the oldest waiter
  void stage_uplink(std::uint32_t session, std::uint64_t corr,
                    std::uint32_t kind, std::span<const std::byte> body);
  void complete(Session& s, std::uint64_t corr, Reply&& r);
  /// Resolve every in-flight request of `s` with `st` immediately, waking
  /// the awaiting coroutines through the event queue.
  void resolve_all(Session& s, ReplyStatus st) noexcept;
  /// Wake a close() parked on `s` once nothing of `s` is in flight.
  void wake_drain(Session& s) noexcept;
  /// Dequeue every request of `s` parked for a credit (every parked
  /// request when `s` is null), resuming each with `outcome` now.
  void release_parked(const Session* s, ReplyStatus outcome) noexcept;
  void disconnect_all() noexcept;
  bool relay_stopped() const;
  void note_session_closed(Session& s, bool disconnected) noexcept;

  Domain& domain_;
  std::uint32_t mux_id_;
  std::uint8_t topic_;
  core::SubgroupId sg_;     // the topic's subgroup
  std::uint32_t max_body_ = 0;  // topic max sample minus the envelope
  net::NodeId gateway_;
  net::NodeId relay_;
  MuxConfig cfg_;

  std::vector<std::unique_ptr<Session>> sessions_;
  std::size_t live_sessions_ = 0;

  // Credit pool. Parked requests queue FIFO (each return_credit hands the
  // head its credit), so an accepted request's admission wait is bounded by
  // the watermark times the per-credit service time. A waiter lives,
  // parked, in its admit() frame until whoever dequeues it sets its
  // outcome and resumes it.
  struct CreditWaiter {
    const Session* session;
    ReplyStatus outcome = ReplyStatus::ok;
    std::coroutine_handle<> handle{};
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept { handle = h; }
    ReplyStatus await_resume() const noexcept { return outcome; }
  };
  std::uint32_t credits_out_ = 0;  // credits currently in flight
  std::deque<CreditWaiter*> credit_queue_;
  std::uint64_t next_corr_ = 1;

  // One direction of the shared gateway<->relay mailbox-ring pair (one pair
  // for every session of this mux).
  struct Link {
    std::unique_ptr<smc::RingGroup> tx, rx;  // sender's / receiver's copy
    std::size_t to = 0;                      // receiver's rank in the ring
    std::deque<std::vector<std::byte>> staged;  // frames waiting to ship
    std::unique_ptr<sim::Signal> wake;  // sender-local: a frame was staged
    std::int64_t sent = 0, consumed = 0;
    std::uint64_t writes = 0;  // batches posted
    sim::Nanos busy = 0;       // shipper: posts + per-frame overhead
  };
  Link up_;    // gateway -> relay
  Link down_;  // relay -> gateway
  // The relay's two stages: ingress has paid the link overhead for uplink
  // frames [up_.consumed, parsed_); publish sends them in order and frees
  // each slot (up_.consumed) only after its send.
  std::int64_t parsed_ = 0;
  std::unique_ptr<sim::Signal> parsed_wake_;  // relay-local: a frame parsed
  // Gateway: the downlink ring's landing signal, in place of its doorbell.
  std::unique_ptr<sim::Signal> demux_wake_;
  std::uint32_t actors_running_ = 0;

  bool started_ = false;
  bool stopped_ = false;
  bool disconnected_ = false;

  metrics::RelayTierStats tier_;  // counter block behind cluster.stats()
};

}  // namespace spindle::dds
