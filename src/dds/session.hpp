#pragma once

#include <coroutine>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "dds/dds.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace spindle::dds {

class ClientMux;
class Session;

/// Outcome of one front-tier operation, surfaced to the client instead of
/// unbounded queueing: admission control converts overload into `busy`,
/// teardown into `cancelled`, and a relay crash into `disconnected`.
enum class ReplyStatus : std::uint8_t {
  ok,            // delivered in total order at every topic member
  busy,          // shed at the admission watermark (retry later)
  cancelled,     // session cancelled while the request was in flight
  disconnected,  // relay crashed or mux shut down with the request live
};

const char* to_string(ReplyStatus s);

/// Completion of a Session::request round trip.
struct Reply {
  ReplyStatus status = ReplyStatus::disconnected;
  std::vector<std::byte> data;  // service reply bytes (ok only)
  std::int64_t seq = -1;        // total-order position of the request
  sim::Nanos rtt = 0;           // end-to-end, admission to completion
};

/// Cost model of one client connection hanging off the gateway (kernel TCP
/// ~3 us per message at the client endpoint; ~0.3 us for an RDMA-connected
/// client).
struct SessionLink {
  sim::Nanos per_message_overhead = 3'000;
};

/// RAII topic subscription: created by Session::subscribe, delivers every
/// topic sample to the listener until cancelled or destroyed. Replaces the
/// deprecated set_listener/stop() pairing — there is no way to leak a
/// dangling listener.
class Subscription {
 public:
  Subscription() = default;
  Subscription(Subscription&& o) noexcept
      : session_(o.session_), gen_(o.gen_) {
    o.session_ = nullptr;
  }
  Subscription& operator=(Subscription&& o) noexcept {
    if (this != &o) {
      cancel();
      session_ = o.session_;
      gen_ = o.gen_;
      o.session_ = nullptr;
    }
    return *this;
  }
  ~Subscription() { cancel(); }

  void cancel() noexcept;
  bool active() const noexcept { return session_ != nullptr; }

 private:
  friend class Session;
  Subscription(Session* s, std::uint64_t gen) : session_(s), gen_(gen) {}
  Session* session_ = nullptr;
  // Which subscribe() call this handle came from: a handle made stale by a
  // later subscribe() must not cancel the listener that superseded it.
  std::uint64_t gen_ = 0;
};

/// One multiplexed external-client session: a lightweight handle hanging
/// off a dds::ClientMux. Thousands of sessions share the mux's one ring
/// pair and its five actors — a session itself owns no actor, no ring and
/// no fabric node, which is what makes a million-client front tier
/// simulable.
///
/// Lifecycle: ClientMux::connect() -> request()/publish()/subscribe() ->
/// close() (drains in-flight requests) or cancel() (completes them as
/// `cancelled` immediately). Teardown is deterministic either way: every
/// in-flight request resolves with an explicit status, never a silently
/// dropped reply.
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Request/reply RPC: the request is relayed into the mux topic's
  /// totally-ordered subgroup, serviced at the relay, and the reply routed
  /// back down this session's link. Completes with `busy` when shed at the
  /// admission watermark, `cancelled`/`disconnected` on teardown — never
  /// hangs.
  sim::Co<Reply> request(std::span<const std::byte> body);

  /// Fire-and-forget publish into the topic's total order. Completes when
  /// the frame is handed to the link (the in-flight credit is returned when
  /// the relay observes the delivery). Same admission control as request().
  sim::Co<ReplyStatus> publish(std::span<const std::byte> body);

  /// Subscribe this session to every sample of the topic delivered at the
  /// relay. The listener runs on the gateway's simulated link thread. A
  /// later subscribe() replaces the listener.
  Subscription subscribe(SampleListener listener);

  /// Graceful close: a request still parked for an admission credit
  /// resolves `cancelled` at once; close() then waits for every admitted
  /// in-flight request to complete, and detaches at that instant. After
  /// close() the session accepts no new work.
  sim::Co<> close();

  /// Immediate close: every in-flight request, parked for a credit or
  /// admitted, completes *now* with `cancelled`; replies still in the pipe
  /// are counted as late at the mux, not silently dropped.
  void cancel() noexcept;

  bool connected() const noexcept {
    return state_ == State::open || state_ == State::draining;
  }
  std::uint32_t id() const noexcept { return id_; }
  std::size_t in_flight() const noexcept { return pending_.size(); }

  std::uint64_t requests_sent() const noexcept { return requests_sent_; }
  std::uint64_t replies_ok() const noexcept { return replies_ok_; }
  std::uint64_t rejected_busy() const noexcept { return rejected_busy_; }
  std::uint64_t cancelled_requests() const noexcept { return cancelled_; }
  std::uint64_t disconnected_requests() const noexcept {
    return disconnected_;
  }
  std::uint64_t samples_received() const noexcept { return samples_received_; }
  std::uint64_t publishes_sent() const noexcept { return publishes_sent_; }

 private:
  friend class ClientMux;
  friend class Subscription;

  enum class State : std::uint8_t { open, draining, closed, disconnected };

  /// In-flight request state. Lives in the request() coroutine frame; the
  /// mux holds a pointer in pending_ until completion or cancellation.
  struct PendingRequest {
    Reply reply;
    sim::Nanos start = 0;
    bool done = false;
    std::coroutine_handle<> waiter{};
  };

  struct ReplyAwaiter {
    PendingRequest& p;
    bool await_ready() const noexcept { return p.done; }
    void await_suspend(std::coroutine_handle<> h) noexcept { p.waiter = h; }
    Reply await_resume() noexcept { return std::move(p.reply); }
  };

  /// close()'s wait for the in-flight map of admitted requests to empty.
  struct DrainAwaiter {
    Session& s;
    bool await_ready() const noexcept { return s.pending_.empty(); }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      s.drain_waiter_ = h;
    }
    void await_resume() const noexcept {}
  };

  Session(ClientMux* mux, std::uint32_t id, SessionLink link)
      : mux_(mux), id_(id), link_(link) {}

  void unsubscribe() noexcept {
    listener_ = nullptr;
    sub_gen_ = 0;
  }
  void unsubscribe(std::uint64_t gen) noexcept {
    if (sub_gen_ == gen) unsubscribe();
  }
  bool subscribed() const noexcept { return sub_gen_ != 0; }

  ClientMux* mux_;
  std::uint32_t id_;
  SessionLink link_;
  State state_ = State::open;
  std::map<std::uint64_t, PendingRequest*> pending_;  // corr -> live request
  std::coroutine_handle<> drain_waiter_{};  // a close() parked on pending_
  // The listener slot; sub_gen_ names the subscribe() that filled it (0:
  // none).
  SampleListener listener_;
  std::uint64_t sub_gen_ = 0;
  std::uint64_t next_sub_gen_ = 0;  // bumped by every subscribe()

  std::uint64_t requests_sent_ = 0;
  std::uint64_t replies_ok_ = 0;
  std::uint64_t rejected_busy_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t disconnected_ = 0;
  std::uint64_t samples_received_ = 0;
  std::uint64_t publishes_sent_ = 0;
};

inline void Subscription::cancel() noexcept {
  if (session_ != nullptr) {
    session_->unsubscribe(gen_);
    session_ = nullptr;
  }
}

inline Subscription Session::subscribe(SampleListener listener) {
  listener_ = std::move(listener);
  sub_gen_ = ++next_sub_gen_;
  return Subscription(this, sub_gen_);
}

}  // namespace spindle::dds
