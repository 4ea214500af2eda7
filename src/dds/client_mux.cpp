#include "dds/client_mux.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "trace/trace.hpp"

namespace spindle::dds {

namespace {

// Envelope / uplink-frame kinds.
constexpr std::uint32_t kKindRequest = 0;
constexpr std::uint32_t kKindPublish = 1;
// Downlink-only frame kinds.
constexpr std::uint32_t kKindReply = 2;
constexpr std::uint32_t kKindSample = 3;

/// Header of every frame on the shared gateway<->relay rings. One layout
/// both ways: uplink frames use (session, kind, corr, topic); downlink
/// replies add (seq, status) and downlink samples (seq, publisher). `topic`
/// is always the mux's topic.
struct MuxFrameHeader {
  std::uint32_t session;
  std::uint32_t kind;
  std::uint64_t corr;
  std::int64_t seq;
  std::uint32_t publisher;
  std::uint32_t status;
  std::uint32_t topic;
  std::uint32_t pad = 0;
};
static_assert(sizeof(MuxFrameHeader) == 40);

std::vector<std::byte> echo_service(std::span<const std::byte> request) {
  return {request.begin(), request.end()};
}

}  // namespace

const char* to_string(ReplyStatus s) {
  switch (s) {
    case ReplyStatus::ok:
      return "ok";
    case ReplyStatus::busy:
      return "busy";
    case ReplyStatus::cancelled:
      return "cancelled";
    case ReplyStatus::disconnected:
      return "disconnected";
  }
  return "?";
}

ClientMux::ClientMux(Domain& domain, std::uint32_t mux_id, std::uint8_t topic,
                     net::NodeId gateway, net::NodeId relay, MuxConfig cfg)
    : domain_(domain),
      mux_id_(mux_id),
      topic_(topic),
      sg_(domain.topic_subgroup(topic)),
      gateway_(gateway),
      relay_(relay),
      cfg_(std::move(cfg)) {
  if (cfg_.ring_window < 2) {
    throw std::invalid_argument("ClientMux: ring_window must be >= 2");
  }
  if (cfg_.credits == 0) {
    throw std::invalid_argument("ClientMux: credit pool must be >= 1");
  }
  const std::uint32_t max_sample = domain_.topic_max_sample(topic_);
  if (max_sample <= sizeof(RpcEnvelope)) {
    throw std::invalid_argument(
        "ClientMux: topic max_sample_size must exceed the " +
        std::to_string(sizeof(RpcEnvelope)) + "-byte RPC envelope");
  }
  max_body_ = max_sample - static_cast<std::uint32_t>(sizeof(RpcEnvelope));
  if (!cfg_.service) cfg_.service = echo_service;
  up_.wake = std::make_unique<sim::Signal>(domain_.engine());
  down_.wake = std::make_unique<sim::Signal>(domain_.engine());
  parsed_wake_ = std::make_unique<sim::Signal>(domain_.engine());
  demux_wake_ = std::make_unique<sim::Signal>(domain_.engine());
  tier_.relay_node = relay_;
  tier_.gateway_node = gateway_;
  tier_.topic = topic_;
  tier_.credits_configured = cfg_.credits;
}

ClientMux::~ClientMux() = default;

Session* ClientMux::connect(SessionLink link) {
  auto& tr = domain_.cluster().tracer();
  if (stopped_ || disconnected_ || live_sessions_ >= cfg_.max_sessions) {
    ++tier_.sessions_shed;
    tr.record(gateway_, trace::Stage::admission_shed, domain_.engine().now(),
              0, sg_, trace::kNoSender, -1, credit_waiters());
    return nullptr;
  }
  const auto id = static_cast<std::uint32_t>(sessions_.size());
  sessions_.push_back(
      std::unique_ptr<Session>(new Session(this, id, link)));
  ++tier_.sessions_opened;
  ++live_sessions_;
  tr.record(gateway_, trace::Stage::session_open, domain_.engine().now(), 0,
            sg_, trace::kNoSender, -1, id);
  return sessions_.back().get();
}

metrics::RelayTierStats ClientMux::tier_stats() const {
  metrics::RelayTierStats t = tier_;
  t.credits_available = credits_available();
  t.credits_effective = cfg_.credits;
  t.credit_waiters = credit_waiters();
  t.sessions_live = live_sessions_;
  t.uplink_busy_ns = up_.busy;
  t.downlink_busy_ns = down_.busy;
  t.uplink_frames = static_cast<std::uint64_t>(up_.sent);
  t.downlink_frames = static_cast<std::uint64_t>(down_.sent);
  t.uplink_ring_writes = up_.writes;
  t.downlink_ring_writes = down_.writes;
  return t;
}

void ClientMux::start() {
  started_ = true;
  auto& fabric = domain_.cluster().fabric();
  const std::vector<net::NodeId> members{gateway_, relay_};
  const std::uint32_t frame =
      domain_.topic_max_sample(topic_) + sizeof(MuxFrameHeader);

  // `from` is the sending endpoint's rank in `members`.
  auto wire = [&](Link& link, std::size_t from) {
    link.to = 1 - from;
    link.tx = std::make_unique<smc::RingGroup>(
        fabric, members[from], members, 0, 1, cfg_.ring_window, frame);
    link.rx = std::make_unique<smc::RingGroup>(
        fabric, members[link.to], members, SIZE_MAX, 1, cfg_.ring_window,
        frame);
    smc::RingGroup* pair[] = {link.tx.get(), link.rx.get()};
    smc::RingGroup::connect(pair);
  };
  wire(up_, 0);
  wire(down_, 1);
  down_.rx->set_landing_signal(demux_wake_.get(), /*replaces_doorbell=*/true);

  auto& eng = domain_.engine();
  eng.spawn(counted(ship_actor(up_)));
  eng.spawn(counted(ingress_actor()));
  eng.spawn(counted(publish_actor()));
  eng.spawn(counted(ship_actor(down_)));
  eng.spawn(counted(demux_actor()));
}

sim::Co<> ClientMux::counted(sim::Co<> actor) {
  ++actors_running_;
  co_await std::move(actor);
  --actors_running_;
}

void ClientMux::stop() noexcept {
  if (stopped_) return;
  // Deterministic teardown for the whole tier: every in-flight request
  // resolves (as disconnected) before the actors halt, so no request
  // coroutine is left suspended forever.
  disconnect_all();
  stopped_ = true;
}

bool ClientMux::relay_stopped() const {
  return domain_.cluster().node(relay_).stopped();
}

ReplyStatus ClientMux::teardown_status(const Session& s) const noexcept {
  return stopped_ || disconnected_ || s.state_ == Session::State::disconnected
             ? ReplyStatus::disconnected
             : ReplyStatus::cancelled;
}

void ClientMux::return_credit() noexcept {
  if (credits_out_ > 0) --credits_out_;
  // FIFO hand-off: the freed credit goes to the oldest parked request, not
  // to whichever coroutine happens to run next — without this, arrivals cut
  // the line and a parked request's wait grows with the run length.
  if (credits_available() == 0 || credit_queue_.empty()) return;
  CreditWaiter* w = credit_queue_.front();
  credit_queue_.pop_front();
  ++credits_out_;
  w->outcome = ReplyStatus::ok;
  domain_.engine().schedule_handle(domain_.engine().now(), w->handle);
}

void ClientMux::release_parked(const Session* s, ReplyStatus outcome) noexcept {
  auto& eng = domain_.engine();
  std::erase_if(credit_queue_, [&](CreditWaiter* w) {
    if (s != nullptr && w->session != s) return false;
    w->outcome = outcome;
    eng.schedule_handle(eng.now(), w->handle);
    return true;
  });
}

sim::Co<ReplyStatus> ClientMux::admit(Session& s) {
  auto& eng = domain_.engine();
  if (stopped_ || disconnected_ || s.state_ != Session::State::open) {
    co_return teardown_status(s);
  }
  if (credit_queue_.empty() && credits_available() > 0) {
    ++credits_out_;
    ++tier_.requests_admitted;
    co_return ReplyStatus::ok;
  }
  if (credit_queue_.size() >= cfg_.admit_watermark) {
    // Queue-depth watermark: shed with an explicit Busy instead of growing
    // the parked-request queue without bound.
    ++tier_.requests_shed;
    domain_.cluster().tracer().record(
        gateway_, trace::Stage::admission_shed, eng.now(), 0, sg_,
        trace::kNoSender, -1, credit_waiters());
    co_return ReplyStatus::busy;
  }
  CreditWaiter waiter{&s};
  credit_queue_.push_back(&waiter);
  tier_.peak_credit_waiters =
      std::max(tier_.peak_credit_waiters, credit_waiters());
  if (co_await waiter != ReplyStatus::ok) co_return waiter.outcome;
  if (stopped_ || disconnected_ || s.state_ != Session::State::open) {
    // Torn down between the hand-off and this resume, at the same instant:
    // pass the credit down the line; we are not sending.
    return_credit();
    co_return teardown_status(s);
  }
  ++tier_.requests_admitted;
  co_return ReplyStatus::ok;
}

void ClientMux::stage_uplink(std::uint32_t session, std::uint64_t corr,
                             std::uint32_t kind,
                             std::span<const std::byte> body) {
  up_.staged.emplace_back(sizeof(MuxFrameHeader) + body.size());
  auto& frame = up_.staged.back();
  const MuxFrameHeader h{session, kind, corr, -1, 0, 0, topic_, 0};
  std::memcpy(frame.data(), &h, sizeof h);
  if (!body.empty()) {
    std::memcpy(frame.data() + sizeof h, body.data(), body.size());
  }
  if (up_.staged.size() > tier_.peak_uplink_queue) {
    tier_.peak_uplink_queue = up_.staged.size();
  }
  up_.wake->signal();
}

sim::Co<Reply> ClientMux::run_request(Session& s,
                                      std::span<const std::byte> body) {
  auto& eng = domain_.engine();
  if (!started_) {
    throw std::logic_error("Session::request before Domain::start()");
  }
  if (body.size() > max_body_) {
    throw std::invalid_argument(
        "Session::request: body of " + std::to_string(body.size()) +
        " bytes exceeds the topic's " + std::to_string(max_body_) +
        "-byte request bound");
  }
  if (s.state_ != Session::State::open) {
    co_return Reply{s.state_ == Session::State::disconnected
                        ? ReplyStatus::disconnected
                        : ReplyStatus::cancelled,
                    {}, -1, 0};
  }
  const sim::Nanos start = eng.now();
  ++s.requests_sent_;
  // Client-endpoint send-path cost (kernel/stack) before the gateway sees
  // the request.
  co_await eng.sleep(s.link_.per_message_overhead);
  const ReplyStatus adm = co_await admit(s);
  if (adm != ReplyStatus::ok) {
    if (adm == ReplyStatus::busy) ++s.rejected_busy_;
    co_return Reply{adm, {}, -1, eng.now() - start};
  }
  const std::uint64_t corr = next_corr_++;
  Session::PendingRequest p;
  p.start = start;
  s.pending_.emplace(corr, &p);
  stage_uplink(s.id_, corr, kKindRequest, body);
  domain_.cluster().tracer().record(
      gateway_, trace::Stage::rpc_request, eng.now(), 0, sg_,
      trace::kNoSender, static_cast<std::int64_t>(s.id_), corr);
  Reply r = co_await Session::ReplyAwaiter{p};
  switch (r.status) {
    case ReplyStatus::ok:
      ++s.replies_ok_;
      break;
    case ReplyStatus::cancelled:
      ++s.cancelled_;
      break;
    case ReplyStatus::disconnected:
      ++s.disconnected_;
      break;
    case ReplyStatus::busy:
      ++s.rejected_busy_;
      break;
  }
  co_return r;
}

sim::Co<ReplyStatus> ClientMux::run_publish(Session& s,
                                            std::span<const std::byte> body) {
  auto& eng = domain_.engine();
  if (!started_) {
    throw std::logic_error("Session::publish before Domain::start()");
  }
  if (body.size() > max_body_) {
    throw std::invalid_argument(
        "Session::publish: body of " + std::to_string(body.size()) +
        " bytes exceeds the topic's " + std::to_string(max_body_) +
        "-byte bound");
  }
  if (s.state_ != Session::State::open) {
    co_return s.state_ == Session::State::disconnected
        ? ReplyStatus::disconnected
        : ReplyStatus::cancelled;
  }
  ++s.publishes_sent_;
  co_await eng.sleep(s.link_.per_message_overhead);
  const ReplyStatus adm = co_await admit(s);
  if (adm != ReplyStatus::ok) {
    if (adm == ReplyStatus::busy) ++s.rejected_busy_;
    co_return adm;
  }
  // The credit rides with the frame and returns when the relay observes
  // the publish's delivery — same pipeline bound as requests.
  stage_uplink(s.id_, 0, kKindPublish, body);
  co_return ReplyStatus::ok;
}

void ClientMux::note_session_closed(Session& s, bool disconnected) noexcept {
  if (live_sessions_ > 0) --live_sessions_;
  if (!disconnected) ++tier_.sessions_closed;
  domain_.cluster().tracer().record(
      gateway_, trace::Stage::session_close, domain_.engine().now(), 0, sg_,
      trace::kNoSender, static_cast<std::int64_t>(s.in_flight()), s.id_);
}

void ClientMux::resolve_all(Session& s, ReplyStatus st) noexcept {
  auto& eng = domain_.engine();
  for (auto& [corr, p] : s.pending_) {
    p->reply.status = st;
    p->reply.rtt = eng.now() - p->start;
    p->done = true;
    if (p->waiter) {
      eng.schedule_fn(eng.now(), [h = p->waiter] { h.resume(); });
      p->waiter = {};
    }
  }
  s.pending_.clear();
  wake_drain(s);
}

void ClientMux::wake_drain(Session& s) noexcept {
  if (!s.drain_waiter_ || !s.pending_.empty()) return;
  auto& eng = domain_.engine();
  eng.schedule_fn(eng.now(), [h = s.drain_waiter_] { h.resume(); });
  s.drain_waiter_ = {};
}

void ClientMux::cancel_session(Session& s) noexcept {
  if (s.state_ == Session::State::closed ||
      s.state_ == Session::State::disconnected) {
    return;
  }
  tier_.requests_cancelled += s.pending_.size();
  resolve_all(s, ReplyStatus::cancelled);
  release_parked(&s, ReplyStatus::cancelled);
  s.state_ = Session::State::closed;
  s.unsubscribe();
  note_session_closed(s, false);
}

sim::Co<> ClientMux::drain_session(Session& s) {
  if (s.state_ != Session::State::open) co_return;
  s.state_ = Session::State::draining;
  // A request still parked for a credit is not admitted any more.
  release_parked(&s, ReplyStatus::cancelled);
  co_await Session::DrainAwaiter{s};
  // A disconnect during the drain already resolved the requests and
  // accounted the session; only a clean drain closes it here.
  if (s.state_ == Session::State::draining) {
    s.state_ = Session::State::closed;
    s.unsubscribe();
    note_session_closed(s, false);
  }
}

void ClientMux::disconnect_all() noexcept {
  if (disconnected_) return;
  disconnected_ = true;
  for (auto& sp : sessions_) {
    Session& s = *sp;
    if (s.state_ == Session::State::closed ||
        s.state_ == Session::State::disconnected) {
      continue;
    }
    tier_.disconnects += s.pending_.size();
    resolve_all(s, ReplyStatus::disconnected);
    s.state_ = Session::State::disconnected;
    s.unsubscribe();
    note_session_closed(s, true);
  }
  // The pipeline is gone; nothing will return credits. Resolve the parked
  // requests, reset the pool for the record (admission refuses anyway) and
  // wake every actor parked on a mux signal so it observes the disconnect.
  release_parked(nullptr, ReplyStatus::disconnected);
  credits_out_ = 0;
  up_.wake->signal();
  down_.wake->signal();
  parsed_wake_->signal();
  demux_wake_->signal();
  up_.staged.clear();
  down_.staged.clear();
}

sim::Co<> ClientMux::ship_actor(Link& link) {
  auto& eng = domain_.engine();
  auto& relay = domain_.cluster().node(relay_);
  auto& relay_doorbell = domain_.cluster().fabric().doorbell(relay_);
  const std::vector<std::size_t> to{link.to};
  while (!stopped_ && !disconnected_) {
    if (relay_stopped()) {
      disconnect_all();
      co_return;
    }
    if (link.staged.empty()) {
      co_await link.wake->wait();
      continue;
    }
    const std::int64_t room = static_cast<std::int64_t>(cfg_.ring_window) -
                              1 - (link.sent - link.consumed);
    if (room <= 0) {
      // Shared-ring flow control: the receiver is behind; staged frames
      // wait at the sender. Re-poll rather than be woken: the receiver's
      // progress is a remote event.
      co_await eng.sleep(cfg_.per_message_overhead);
      continue;
    }
    // The batch: the staged prefix the ring has room for whose frames may
    // leave now. A downlink frame answers or forwards an ordered sequence
    // and leaves the relay only once every topic member has delivered it:
    // an ok reply means the request reached the whole topic, not just the
    // relay. Uplink frames carry seq -1 and never wait.
    const std::int64_t frontier = relay.delivered_frontier(sg_);
    std::int64_t n = 0;
    for (const auto& frame : link.staged) {
      MuxFrameHeader h;
      std::memcpy(&h, frame.data(), sizeof h);
      if (n == room || h.seq > frontier) break;
      ++n;
    }
    if (n == 0) {
      // Members' delivered_num pushes land at the relay and ring its
      // doorbell.
      co_await relay_doorbell.wait();
      continue;
    }
    const std::int64_t first = link.sent;
    for (; link.sent < first + n; ++link.sent) {
      const auto& frame = link.staged.front();
      std::memcpy(link.tx->slot_data(link.sent).data(), frame.data(),
                  frame.size());
      link.tx->mark_ready(link.sent, static_cast<std::uint32_t>(frame.size()),
                          0);
      link.staged.pop_front();
    }
    // One data and one trailer post for the batch, charged first; then the
    // endpoint stays busy for every frame's link overhead.
    sim::Nanos cost = link.tx->push_data(first, link.sent, to);
    cost += link.tx->push_trailers(first, link.sent, to);
    cost += n * cfg_.per_message_overhead;
    ++link.writes;
    link.busy += cost;
    co_await eng.sleep(cost);
  }
}

sim::Co<> ClientMux::ingress_actor() {
  auto& eng = domain_.engine();
  auto& doorbell = domain_.cluster().fabric().doorbell(relay_);
  while (!stopped_ && !disconnected_) {
    if (relay_stopped()) {
      disconnect_all();
      co_return;
    }
    if (up_.rx->trailer(0, parsed_).count != parsed_ + 1) {
      co_await doorbell.wait();
      continue;
    }
    co_await eng.sleep(cfg_.per_message_overhead);
    tier_.ingress_busy_ns += cfg_.per_message_overhead;
    ++parsed_;
    parsed_wake_->signal();
  }
}

sim::Co<> ClientMux::publish_actor() {
  auto& eng = domain_.engine();
  auto& relay = domain_.cluster().node(relay_);
  while (!stopped_ && !disconnected_) {
    if (relay.stopped()) {
      disconnect_all();
      co_return;
    }
    if (up_.consumed == parsed_) {
      co_await parsed_wake_->wait();
      continue;
    }
    const sim::Nanos begin = eng.now();
    const smc::SlotTrailer t = up_.rx->trailer(0, up_.consumed);
    MuxFrameHeader h;
    const auto bytes = up_.rx->message(0, up_.consumed, t.len).data;
    std::memcpy(&h, bytes.data(), sizeof h);
    const auto body = bytes.subspan(sizeof h);
    // The extra relaying step (§4.6), multiplexed: re-publish the frame
    // into the topic's subgroup as a flagged envelope, so every client
    // request is totally ordered with member publications on the topic.
    // send() blocking on the multicast window is the backpressure cascade:
    // the frame keeps its slot, the uplink ring fills behind it, the
    // gateway queue grows, credits starve, the watermark sheds.
    const RpcEnvelope env{mux_id_, h.session, h.corr, h.kind, topic_};
    co_await relay.send(
        sg_, static_cast<std::uint32_t>(sizeof env + body.size()),
        [&env, body](std::span<std::byte> buf) {
          std::memcpy(buf.data(), &env, sizeof env);
          if (!body.empty()) {
            std::memcpy(buf.data() + sizeof env, body.data(), body.size());
          }
        },
        kRpcEnvelopeFlag);
    ++up_.consumed;
    tier_.publish_busy_ns += eng.now() - begin;
  }
}

void ClientMux::on_topic_delivery(const Sample& sample,
                                  const RpcEnvelope* env) {
  // Runs inside the relay's delivery upcall: stage only, never block the
  // polling thread (§3.5).
  if (stopped_ || disconnected_) return;
  bool staged = false;
  if (env != nullptr && env->mux == mux_id_) {
    // Our envelope completed the ordered pipeline. A publish's credit comes
    // back here; a request's credit rides on with the reply and returns at
    // the gateway demux — the round trip, downlink included, is what the
    // pool bounds (returning at delivery would let the reply queue grow
    // without limit whenever the downlink is the bottleneck).
    if (env->kind == kKindPublish) return_credit();
    if (env->kind == kKindRequest) {
      std::vector<std::byte> reply = cfg_.service(sample.data);
      if (reply.size() > domain_.topic_max_sample(topic_)) {
        throw std::logic_error(
            "ClientMux service reply exceeds the topic's max sample size");
      }
      down_.staged.emplace_back(sizeof(MuxFrameHeader) + reply.size());
      auto& frame = down_.staged.back();
      const MuxFrameHeader h{env->session, kKindReply, env->corr,
                             sample.sequence,
                             static_cast<std::uint32_t>(sample.publisher),
                             static_cast<std::uint32_t>(ReplyStatus::ok),
                             topic_, 0};
      std::memcpy(frame.data(), &h, sizeof h);
      if (!reply.empty()) {
        std::memcpy(frame.data() + sizeof h, reply.data(), reply.size());
      }
      staged = true;
    }
  }
  for (auto& sp : sessions_) {
    Session& s = *sp;
    if (!s.subscribed()) continue;
    down_.staged.emplace_back(sizeof(MuxFrameHeader) + sample.data.size());
    auto& frame = down_.staged.back();
    const MuxFrameHeader h{s.id_, kKindSample, 0, sample.sequence,
                           static_cast<std::uint32_t>(sample.publisher), 0,
                           topic_, 0};
    std::memcpy(frame.data(), &h, sizeof h);
    if (!sample.data.empty()) {
      std::memcpy(frame.data() + sizeof h, sample.data.data(),
                  sample.data.size());
    }
    staged = true;
  }
  if (staged) {
    if (down_.staged.size() > tier_.peak_downlink_queue) {
      tier_.peak_downlink_queue = down_.staged.size();
    }
    // Wake the relay's downlink shipper: a relay-local hand-off, not a
    // fabric event (the gateway learns of the frame when it lands).
    down_.wake->signal();
  }
}

void ClientMux::complete(Session& s, std::uint64_t corr, Reply&& r) {
  auto it = s.pending_.find(corr);
  if (it == s.pending_.end()) {
    // The session cancelled while the reply was in the pipe; counted, not
    // silently dropped.
    ++tier_.late_replies;
    return;
  }
  auto& eng = domain_.engine();
  Session::PendingRequest* p = it->second;
  s.pending_.erase(it);
  r.rtt = eng.now() - p->start;
  ++tier_.replies_completed;
  domain_.cluster().tracer().record(
      gateway_, trace::Stage::rpc_reply, eng.now(), r.rtt, sg_,
      trace::kNoSender, static_cast<std::int64_t>(s.id_), corr);
  p->reply = std::move(r);
  p->done = true;
  if (p->waiter) {
    eng.schedule_fn(eng.now(), [h = p->waiter] { h.resume(); });
    p->waiter = {};
  }
  wake_drain(s);
}

sim::Co<> ClientMux::demux_actor() {
  auto& eng = domain_.engine();
  while (!stopped_) {
    const smc::SlotTrailer t = down_.rx->trailer(0, down_.consumed);
    if (t.count != down_.consumed + 1) {
      if (disconnected_) co_return;
      if (relay_stopped()) {
        disconnect_all();
        co_return;
      }
      co_await demux_wake_->wait();
      continue;
    }
    co_await eng.sleep(cfg_.per_message_overhead);
    tier_.demux_busy_ns += cfg_.per_message_overhead;
    const auto bytes = down_.rx->message(0, down_.consumed, t.len).data;
    MuxFrameHeader h;
    std::memcpy(&h, bytes.data(), sizeof h);
    const auto body = bytes.subspan(sizeof h);
    if (h.session < sessions_.size()) {
      Session& s = *sessions_[h.session];
      if (h.kind == kKindReply) {
        return_credit();
        Reply r;
        r.status = static_cast<ReplyStatus>(h.status);
        r.seq = h.seq;
        r.data.assign(body.begin(), body.end());
        complete(s, h.corr, std::move(r));
      } else if (h.kind == kKindSample && s.subscribed()) {
        ++s.samples_received_;
        if (s.listener_) {
          s.listener_(Sample{topic_, h.publisher, h.seq, body});
        }
      }
    }
    ++down_.consumed;
  }
}

// --- Session methods bridging into the mux ---

sim::Co<Reply> Session::request(std::span<const std::byte> body) {
  return mux_->run_request(*this, body);
}

sim::Co<ReplyStatus> Session::publish(std::span<const std::byte> body) {
  return mux_->run_publish(*this, body);
}

sim::Co<> Session::close() { return mux_->drain_session(*this); }

void Session::cancel() noexcept { mux_->cancel_session(*this); }

}  // namespace spindle::dds
