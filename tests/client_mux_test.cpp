// Front-tier ClientMux/Session tests: request/reply RPC through the total
// order, admission control (credit pool, watermark sheds), deterministic
// teardown (drain, cancel, relay crash), and the config validation paths.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "dds/client_mux.hpp"
#include "dds/dds.hpp"
#include "dds/session.hpp"

namespace spindle::dds {
namespace {

std::vector<std::byte> bytes_of(std::uint64_t tag, std::size_t n = 64) {
  std::vector<std::byte> b(n);
  std::memcpy(b.data(), &tag, sizeof tag);
  return b;
}
std::uint64_t tag_of(std::span<const std::byte> d) {
  std::uint64_t t = 0;
  std::memcpy(&t, d.data(), sizeof t);
  return t;
}

struct MuxFixture : ::testing::Test {
  // Nodes 0..3: topic members (all publish + subscribe; node 0 relays);
  // node 4: the gateway aggregating the client sessions.
  std::unique_ptr<Domain> domain;
  ClientMux* mux = nullptr;

  void make(MuxConfig mc = {}, std::size_t nodes = 5) {
    core::ClusterConfig cc;
    cc.nodes = nodes;
    domain = std::make_unique<Domain>(cc);
    TopicConfig tc;
    tc.name = "rpc";
    tc.topic_id = 1;
    tc.max_sample_size = 512;
    tc.publishers = {0, 1, 2, 3};
    tc.subscribers = {0, 1, 2, 3};
    domain->create_topic(tc);
    mux = &domain->create_client_mux(1, 4, 0, std::move(mc));
    domain->start();
  }

  bool run_until(const std::function<bool()>& cond,
                 sim::Nanos max = sim::seconds(10)) {
    return domain->engine().run_until(cond, max);
  }
};

TEST_F(MuxFixture, RequestReplyEchoRoundTrip) {
  make();
  Session* s = mux->connect();
  ASSERT_NE(s, nullptr);

  Reply reply;
  bool done = false;
  domain->engine().spawn([](Session* sess, Reply* out,
                            bool* flag) -> sim::Co<> {
    *out = co_await sess->request(bytes_of(42));
    *flag = true;
  }(s, &reply, &done));

  ASSERT_TRUE(run_until([&] { return done; }));
  EXPECT_EQ(reply.status, ReplyStatus::ok);
  EXPECT_EQ(reply.data.size(), 64u);
  EXPECT_EQ(tag_of(reply.data), 42u);
  EXPECT_GE(reply.seq, 0);
  EXPECT_GT(reply.rtt, 0);
  EXPECT_EQ(s->requests_sent(), 1u);
  EXPECT_EQ(s->replies_ok(), 1u);
  EXPECT_EQ(s->in_flight(), 0u);

  const auto stats = domain->cluster().stats();
  const metrics::RelayTierStats* tier = stats.relay(0);
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->replies_completed, 1u);
  EXPECT_EQ(tier->requests_admitted, 1u);
  EXPECT_EQ(tier->sessions_live, 1u);
}

TEST_F(MuxFixture, ConcurrentSessionsGetDistinctTotalOrderPositions) {
  make();
  constexpr std::size_t kSessions = 8, kPerSession = 5;
  std::vector<Session*> sessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    sessions.push_back(mux->connect());
  }
  std::vector<Reply> replies;
  std::size_t done = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t base,
                              std::vector<Reply>* out,
                              std::size_t* counter) -> sim::Co<> {
      for (std::uint64_t r = 0; r < kPerSession; ++r) {
        out->push_back(co_await sess->request(bytes_of(base + r)));
      }
      ++*counter;
    }(sessions[i], 100 * i, &replies, &done));
  }
  ASSERT_TRUE(run_until([&] { return done == kSessions; }));

  // Every request occupies its own slot in the one total order; replies
  // carry the slot back to the issuing session.
  std::set<std::int64_t> seqs;
  for (const Reply& r : replies) {
    ASSERT_EQ(r.status, ReplyStatus::ok);
    seqs.insert(r.seq);
  }
  EXPECT_EQ(seqs.size(), kSessions * kPerSession);
  // The relayed requests are real subgroup traffic: every member delivered
  // each of them.
  EXPECT_EQ(domain->total_samples(1), 4 * kSessions * kPerSession);
}

TEST_F(MuxFixture, SubscriptionFanoutAndRaiiCancel) {
  make();
  Session* a = mux->connect();
  Session* b = mux->connect();
  std::vector<std::uint64_t> at_a, at_b;
  Subscription sub_a = a->subscribe(
      [&](const Sample& smp) { at_a.push_back(tag_of(smp.data)); });
  {
    Subscription sub_b = b->subscribe(
        [&](const Sample& smp) { at_b.push_back(tag_of(smp.data)); });

    domain->engine().spawn([](Domain* d) -> sim::Co<> {
      auto w = d->writer(1, 1);
      for (std::uint64_t i = 0; i < 10; ++i) {
        co_await w.publish_bytes(bytes_of(700 + i));
      }
    }(domain.get()));
    ASSERT_TRUE(run_until([&] { return at_b.size() >= 10; }));
  }  // sub_b leaves scope: RAII unsubscribe

  domain->engine().spawn([](Domain* d) -> sim::Co<> {
    co_await d->writer(1, 1).publish_bytes(bytes_of(999));
  }(domain.get()));
  ASSERT_TRUE(run_until([&] { return at_a.size() >= 11; }));
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(at_a[i], 700 + i);
    EXPECT_EQ(at_b[i], 700 + i);
  }
  EXPECT_EQ(at_a.back(), 999u);
  EXPECT_EQ(at_b.size(), 10u);  // nothing after the subscription died
  EXPECT_EQ(a->samples_received(), 11u);
}

TEST_F(MuxFixture, SessionPublishReachesEveryMemberStripped) {
  make();
  Session* s = mux->connect();
  std::vector<std::uint64_t> at_member;
  domain->reader(2, 1).set_listener(
      [&](const Sample& smp) { at_member.push_back(tag_of(smp.data)); });

  ReplyStatus st = ReplyStatus::busy;
  domain->engine().spawn([](Session* sess, ReplyStatus* out) -> sim::Co<> {
    *out = co_await sess->publish(bytes_of(31337, 48));
  }(s, &st));
  ASSERT_TRUE(run_until([&] { return at_member.size() >= 1; }));
  EXPECT_EQ(st, ReplyStatus::ok);
  // The member saw the client's 48 payload bytes, not the RPC envelope.
  EXPECT_EQ(at_member[0], 31337u);
  EXPECT_EQ(s->publishes_sent(), 1u);
}

TEST_F(MuxFixture, WatermarkShedsWithExplicitBusy) {
  MuxConfig mc;
  mc.credits = 2;
  mc.admit_watermark = 2;
  make(std::move(mc));
  Session* s = mux->connect();

  constexpr std::uint64_t kBurst = 50;
  std::uint64_t done = 0, ok = 0, busy = 0;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              std::uint64_t* d, std::uint64_t* o,
                              std::uint64_t* b) -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      ++*d;
      if (r.status == ReplyStatus::ok) ++*o;
      if (r.status == ReplyStatus::busy) ++*b;
    }(s, i, &done, &ok, &busy));
  }
  ASSERT_TRUE(run_until([&] { return done == kBurst; }));

  // 2 credits + 2 parked below the watermark complete; the rest shed.
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(busy, kBurst - 4);
  EXPECT_EQ(s->rejected_busy(), kBurst - 4);
  const auto stats = domain->cluster().stats();
  const metrics::RelayTierStats* tier = stats.relay(0);
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->requests_shed, kBurst - 4);
  EXPECT_EQ(tier->peak_credit_waiters, 2u);
  // The pool is fixed: the reported limit is the configured one.
  EXPECT_EQ(tier->credits_effective, 2u);
  EXPECT_EQ(tier->credits_configured, 2u);
  // Backpressure released: the pool refills once the replies land.
  EXPECT_EQ(mux->credits_available(), 2u);
  EXPECT_EQ(mux->credit_waiters(), 0u);
}

TEST_F(MuxFixture, TinyRingSaturationBackpressuresInsteadOfDropping) {
  MuxConfig mc;
  mc.ring_window = 2;  // one frame in flight per direction
  mc.credits = 16;
  mc.admit_watermark = 64;
  make(std::move(mc));
  Session* s = mux->connect();

  constexpr std::uint64_t kBurst = 24;
  std::uint64_t done = 0, ok = 0;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              std::uint64_t* d, std::uint64_t* o)
                               -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      ++*d;
      if (r.status == ReplyStatus::ok) ++*o;
    }(s, i, &done, &ok));
  }
  ASSERT_TRUE(run_until([&] { return done == kBurst; }));
  // A saturated shared ring stalls the shipper; frames queue at the
  // gateway and everything still completes.
  EXPECT_EQ(ok, kBurst);
  const auto stats = domain->cluster().stats();
  const metrics::RelayTierStats* tier = stats.relay(0);
  ASSERT_NE(tier, nullptr);
  EXPECT_GT(tier->peak_uplink_queue, 1u);
}

TEST_F(MuxFixture, CloseDrainsInFlightRequestsThenDetaches) {
  make();
  Session* s = mux->connect();
  constexpr std::uint64_t kInFlight = 12;
  std::uint64_t done = 0, ok = 0;
  for (std::uint64_t i = 0; i < kInFlight; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              std::uint64_t* d, std::uint64_t* o)
                               -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      ++*d;
      if (r.status == ReplyStatus::ok) ++*o;
    }(s, i, &done, &ok));
  }
  // Let every request reach the in-flight map, then close underneath them.
  ASSERT_TRUE(run_until([&] { return s->in_flight() == kInFlight; }));
  bool closed = false;
  domain->engine().spawn([](Session* sess, bool* flag) -> sim::Co<> {
    co_await sess->close();
    *flag = true;
  }(s, &closed));
  ASSERT_TRUE(run_until([&] { return closed; }));

  // close() waited: every in-flight request completed normally.
  EXPECT_EQ(done, kInFlight);
  EXPECT_EQ(ok, kInFlight);
  EXPECT_EQ(s->in_flight(), 0u);
  EXPECT_FALSE(s->connected());

  // A closed session refuses new work with an explicit status.
  Reply late;
  bool late_done = false;
  domain->engine().spawn([](Session* sess, Reply* out,
                            bool* flag) -> sim::Co<> {
    *out = co_await sess->request(bytes_of(1));
    *flag = true;
  }(s, &late, &late_done));
  ASSERT_TRUE(run_until([&] { return late_done; }));
  EXPECT_EQ(late.status, ReplyStatus::cancelled);
}

TEST_F(MuxFixture, CancelResolvesInFlightNowAndCountsLateReplies) {
  make();
  Session* s = mux->connect();
  constexpr std::uint64_t kInFlight = 8;
  std::uint64_t done = 0, cancelled = 0;
  for (std::uint64_t i = 0; i < kInFlight; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              std::uint64_t* d, std::uint64_t* c)
                               -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      ++*d;
      if (r.status == ReplyStatus::cancelled) ++*c;
    }(s, i, &done, &cancelled));
  }
  // Let the requests get admitted and staged, then cut the session.
  ASSERT_TRUE(run_until([&] { return s->in_flight() >= kInFlight; }));
  s->cancel();
  ASSERT_TRUE(run_until([&] { return done == kInFlight; }));
  EXPECT_EQ(cancelled, kInFlight);
  EXPECT_FALSE(s->connected());
  EXPECT_EQ(s->cancelled_requests(), kInFlight);

  // The already-relayed requests still flow to delivery; their replies
  // arrive after the owner is gone and are counted, not dropped.
  ASSERT_TRUE(run_until([&] {
    return domain->cluster().stats().relay(0)->late_replies > 0;
  }));
  const auto stats = domain->cluster().stats();
  EXPECT_GT(stats.relay(0)->late_replies, 0u);
  EXPECT_EQ(stats.relay(0)->requests_cancelled, kInFlight);
}

TEST_F(MuxFixture, CancelWhileParkedForCreditLeavesQueueIntact) {
  MuxConfig mc;
  mc.credits = 1;
  // A short link overhead: the cancelled waiters' coroutine frames die
  // long before the credit comes back, so a stale queue entry would be
  // popped dangling (the regression this guards against, caught under
  // ASan).
  mc.per_message_overhead = 100;
  mc.admit_watermark = 8;
  make(std::move(mc));
  Session* a = mux->connect();
  Session* b = mux->connect();

  Reply ra;
  bool a_done = false;
  domain->engine().spawn([](Session* sess, Reply* out,
                            bool* flag) -> sim::Co<> {
    *out = co_await sess->request(bytes_of(1));
    *flag = true;
  }(a, &ra, &a_done));
  ASSERT_TRUE(run_until([&] { return mux->credits_available() == 0; }));

  // Park three requests of b behind the lone outstanding credit, then cut
  // the session while they wait.
  std::uint64_t b_done = 0, b_cancelled = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              std::uint64_t* d, std::uint64_t* c)
                               -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      ++*d;
      if (r.status == ReplyStatus::cancelled) ++*c;
    }(b, 10 + i, &b_done, &b_cancelled));
  }
  ASSERT_TRUE(run_until([&] { return mux->credit_waiters() == 3; }));
  b->cancel();
  ASSERT_TRUE(run_until([&] { return b_done == 3; }));
  EXPECT_EQ(b_cancelled, 3u);

  // a's reply returns the credit; return_credit walks the (now empty)
  // queue, the pool refills, and a fresh request is admitted normally.
  ASSERT_TRUE(run_until([&] { return a_done; }));
  EXPECT_EQ(ra.status, ReplyStatus::ok);
  ASSERT_TRUE(run_until([&] { return mux->credits_available() == 1; }));
  EXPECT_EQ(mux->credit_waiters(), 0u);

  Reply r2;
  bool done2 = false;
  domain->engine().spawn([](Session* sess, Reply* out,
                            bool* flag) -> sim::Co<> {
    *out = co_await sess->request(bytes_of(2));
    *flag = true;
  }(a, &r2, &done2));
  ASSERT_TRUE(run_until([&] { return done2; }));
  EXPECT_EQ(r2.status, ReplyStatus::ok);

  // Admission is counted per request actually sent: a's two requests only
  // (the cancelled waiters never consumed an admission).
  const auto stats = domain->cluster().stats();
  EXPECT_EQ(stats.relay(0)->requests_admitted, 2u);
}

TEST_F(MuxFixture, ResubscribeSupersedesAndStaleHandleIsInert) {
  make();
  Session* s = mux->connect();
  std::vector<std::uint64_t> at_old, at_new;
  Subscription first = s->subscribe(
      [&](const Sample& smp) { at_old.push_back(tag_of(smp.data)); });
  Subscription second = s->subscribe(
      [&](const Sample& smp) { at_new.push_back(tag_of(smp.data)); });
  // Destroying the superseded handle must not cancel the live listener.
  first.cancel();

  domain->engine().spawn([](Domain* d) -> sim::Co<> {
    co_await d->writer(1, 1).publish_bytes(bytes_of(555));
  }(domain.get()));
  ASSERT_TRUE(run_until([&] { return at_new.size() >= 1; }));
  EXPECT_EQ(at_new[0], 555u);
  EXPECT_TRUE(at_old.empty());

  // The live handle still owns the subscription and can cancel it.
  second.cancel();
  domain->engine().spawn([](Domain* d) -> sim::Co<> {
    co_await d->writer(1, 1).publish_bytes(bytes_of(556));
  }(domain.get()));
  ASSERT_TRUE(run_until(
      [&] { return domain->reader(2, 1).samples_received() >= 2; }));
  EXPECT_EQ(at_new.size(), 1u);
}

TEST_F(MuxFixture, ZeroLengthRequestAndPublishComplete) {
  make();
  Session* s = mux->connect();
  std::size_t member_samples = 0;
  domain->reader(2, 1).set_listener(
      [&](const Sample&) { ++member_samples; });

  Reply reply;
  ReplyStatus pub = ReplyStatus::busy;
  bool done = false;
  domain->engine().spawn([](Session* sess, Reply* out, ReplyStatus* ps,
                            bool* flag) -> sim::Co<> {
    *out = co_await sess->request({});
    *ps = co_await sess->publish({});
    *flag = true;
  }(s, &reply, &pub, &done));
  ASSERT_TRUE(run_until([&] { return done && member_samples >= 2; }));
  EXPECT_EQ(reply.status, ReplyStatus::ok);
  EXPECT_TRUE(reply.data.empty());  // echo of the empty request
  EXPECT_GE(reply.seq, 0);
  EXPECT_EQ(pub, ReplyStatus::ok);
}

TEST_F(MuxFixture, RelayCrashDisconnectsEverySessionWithoutHanging) {
  make();
  Session* a = mux->connect();
  Session* b = mux->connect();
  std::uint64_t done = 0, disconnected = 0;
  for (Session* s : {a, b}) {
    for (std::uint64_t i = 0; i < 6; ++i) {
      domain->engine().spawn([](Session* sess, std::uint64_t tag,
                                std::uint64_t* d, std::uint64_t* dc)
                                 -> sim::Co<> {
        const Reply r = co_await sess->request(bytes_of(tag));
        ++*d;
        if (r.status == ReplyStatus::disconnected) ++*dc;
      }(s, i, &done, &disconnected));
    }
  }
  ASSERT_TRUE(run_until([&] { return a->in_flight() + b->in_flight() > 0; }));
  domain->cluster().node(0).stop();  // the relay crashes

  // Every request resolves — clients observe the disconnect, they never
  // hang on a dead relay.
  ASSERT_TRUE(run_until([&] { return done == 12; }));
  EXPECT_GT(disconnected, 0u);
  EXPECT_FALSE(a->connected());
  EXPECT_FALSE(b->connected());
  EXPECT_FALSE(mux->connected());
  EXPECT_EQ(mux->connect(), nullptr);  // no sessions onto a dead tier

  const auto stats = domain->cluster().stats();
  const metrics::RelayTierStats* tier = stats.relay(0);
  ASSERT_NE(tier, nullptr);
  EXPECT_GT(tier->disconnects, 0u);
  EXPECT_EQ(tier->sessions_live, 0u);
}

TEST_F(MuxFixture, SessionCapRefusesFurtherConnects) {
  MuxConfig mc;
  mc.max_sessions = 2;
  make(std::move(mc));
  EXPECT_NE(mux->connect(), nullptr);
  EXPECT_NE(mux->connect(), nullptr);
  EXPECT_EQ(mux->connect(), nullptr);
  EXPECT_EQ(domain->cluster().stats().relay(0)->sessions_shed, 1u);
  EXPECT_EQ(mux->live_sessions(), 2u);
}

TEST_F(MuxFixture, OversizeRequestThrowsDescriptively) {
  make();
  Session* s = mux->connect();
  bool threw = false;
  domain->engine().spawn([](Session* sess, bool* flag) -> sim::Co<> {
    try {
      co_await sess->request(std::vector<std::byte>(4096));
    } catch (const std::invalid_argument&) {
      *flag = true;
    }
  }(s, &threw));
  ASSERT_TRUE(run_until([&] { return threw; }));
}

TEST_F(MuxFixture, DomainShutdownResolvesInFlightAsDisconnected) {
  make();
  Session* s = mux->connect();
  std::uint64_t done = 0, disconnected = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              std::uint64_t* d, std::uint64_t* dc)
                               -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      ++*d;
      if (r.status == ReplyStatus::disconnected) ++*dc;
    }(s, i, &done, &disconnected));
  }
  ASSERT_TRUE(run_until([&] { return s->in_flight() > 0; }));
  domain->shutdown();  // drains the event queue deterministically
  EXPECT_EQ(done, 5u);
  EXPECT_GT(disconnected, 0u);
}

TEST_F(MuxFixture, DeterministicAcrossIdenticalRuns) {
  auto run_once = [this]() {
    make();
    Session* s = mux->connect();
    std::vector<std::pair<std::int64_t, sim::Nanos>> trace_out;
    std::uint64_t done = 0;
    for (std::uint64_t i = 0; i < 10; ++i) {
      domain->engine().spawn([](Session* sess, std::uint64_t tag,
                                std::vector<std::pair<std::int64_t,
                                                      sim::Nanos>>* out,
                                std::uint64_t* d) -> sim::Co<> {
        const Reply r = co_await sess->request(bytes_of(tag));
        out->push_back({r.seq, r.rtt});
        ++*d;
      }(s, i, &trace_out, &done));
    }
    EXPECT_TRUE(run_until([&] { return done == 10; }));
    return trace_out;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
}

TEST_F(MuxFixture, ReplyShipOverlapsGatewayDemux) {
  // The reply ship (relay) and the demux (gateway) run on different
  // machines: a burst drains at the slower stage's per-frame rate, not at
  // the sum of both stages' costs.
  constexpr sim::Nanos kOverhead = 10'000;
  constexpr std::uint32_t kRequests = 100;
  MuxConfig mc;
  mc.per_message_overhead = kOverhead;
  mc.credits = kRequests;  // no admission waits
  make(std::move(mc));
  Session* s = mux->connect();
  const sim::Nanos start = domain->engine().now();
  sim::Nanos last = 0;
  std::uint64_t ok = 0;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              sim::Engine* eng, sim::Nanos* last_at,
                              std::uint64_t* n_ok) -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      if (r.status == ReplyStatus::ok) ++*n_ok;
      *last_at = eng->now();
    }(s, i, &domain->engine(), &last, &ok));
  }
  ASSERT_TRUE(run_until([&] { return ok == kRequests; }));
  const sim::Nanos elapsed = last - start;
  EXPECT_LE(elapsed, kRequests * kOverhead * 3 / 2);

  // Both endpoints were busy for most of the burst at once: one coroutine
  // running both could not accumulate more busy time than elapsed time.
  const auto stats = domain->cluster().stats();
  const metrics::RelayTierStats* tier = stats.relay(0);
  ASSERT_NE(tier, nullptr);
  EXPECT_GT(tier->downlink_busy_ns + tier->demux_busy_ns, elapsed);
  EXPECT_EQ(tier->demux_busy_ns, kRequests * kOverhead);
  EXPECT_EQ(tier->ingress_busy_ns, kRequests * kOverhead);
  EXPECT_GT(tier->uplink_busy_ns, 0);
  EXPECT_GT(tier->publish_busy_ns, 0);
}

TEST_F(MuxFixture, FramesStagedWhileTheShipperIsBusyLeaveAsOneRingWrite) {
  // The uplink shipper posts every frame the ring has room for as one
  // batch: one data write and one trailer write, then it stays busy for
  // each frame's link overhead plus the posts.
  constexpr std::uint64_t kBatch = 6;
  make();
  const sim::Nanos overhead = MuxConfig{}.per_message_overhead;
  Session* s = mux->connect();
  const net::Fabric::NicStats& gateway = domain->cluster().fabric().stats(4);
  std::uint64_t ok = 0;
  const auto fire = [&](std::uint64_t tag) {
    domain->engine().spawn([](Session* sess, std::uint64_t t,
                              std::uint64_t* n) -> sim::Co<> {
      if ((co_await sess->request(bytes_of(t))).status == ReplyStatus::ok) {
        ++*n;
      }
    }(s, tag, &ok));
  };
  fire(0);
  // The first frame ships alone. The next requests reach the gateway one
  // client-link overhead later, while the shipper is still busy with it.
  ASSERT_TRUE(run_until([&] { return mux->tier_stats().uplink_ring_writes > 0; }));
  for (std::uint64_t i = 1; i <= kBatch; ++i) fire(i);
  const metrics::RelayTierStats before = mux->tier_stats();
  const std::uint64_t writes_before = gateway.writes_posted;
  const sim::Nanos post_before = gateway.post_cpu;
  ASSERT_TRUE(run_until([&] { return ok == kBatch + 1; }));

  const metrics::RelayTierStats after = mux->tier_stats();
  EXPECT_EQ(before.uplink_ring_writes, 1u);
  EXPECT_EQ(before.uplink_frames, 1u);
  EXPECT_EQ(after.uplink_ring_writes, 2u);
  EXPECT_EQ(after.uplink_frames, kBatch + 1);
  EXPECT_EQ(gateway.writes_posted - writes_before, 2u);
  const sim::Nanos posts = gateway.post_cpu - post_before;
  EXPECT_GT(posts, 0);
  EXPECT_EQ(after.uplink_busy_ns - before.uplink_busy_ns,
            static_cast<sim::Nanos>(kBatch) * overhead + posts);
}

TEST_F(MuxFixture, RelayKeepsUpAboveTheOneActorBound) {
  // One relay actor paid the 3 us link overhead and then the ~1.5 us send
  // for every frame, which capped a relay near 220 k frames/s. With the
  // ingress and the publish as two stages and batched link writes, 300 k
  // requests/s for 2 ms all resolve ok, and the last reply trails the last
  // arrival by about one unloaded round trip.
  constexpr sim::Nanos kGap = 3'333;  // 300 k requests/s
  constexpr sim::Nanos kWindow = sim::millis(2);
  make();
  std::vector<Session*> sessions;
  for (int i = 0; i < 64; ++i) sessions.push_back(mux->connect());
  struct Load {
    std::uint64_t offered = 0, resolved = 0, ok = 0;
    sim::Nanos last_arrival = 0, last_reply = 0;
  } load;
  sim::Engine& eng = domain->engine();
  const sim::Nanos start = eng.now();
  eng.spawn([](sim::Engine* e, std::vector<Session*>* ss, Load* l,
               sim::Nanos end) -> sim::Co<> {
    while (e->now() + kGap < end) {
      co_await e->sleep(kGap);
      Session* sess = (*ss)[l->offered % ss->size()];
      ++l->offered;
      l->last_arrival = e->now();
      e->spawn([](sim::Engine* e2, Session* s2, Load* l2,
                  std::uint64_t tag) -> sim::Co<> {
        const Reply r = co_await s2->request(bytes_of(tag));
        ++l2->resolved;
        if (r.status == ReplyStatus::ok) ++l2->ok;
        l2->last_reply = e2->now();
      }(e, sess, l, l->offered));
    }
  }(&eng, &sessions, &load, start + kWindow));
  ASSERT_TRUE(run_until([&] {
    return load.offered > 0 && eng.now() >= start + kWindow &&
           load.resolved == load.offered;
  }));
  EXPECT_EQ(load.offered, 600u);
  EXPECT_EQ(load.ok, load.offered);
  EXPECT_LE(load.last_reply - load.last_arrival, sim::micros(100));
}

TEST_F(MuxFixture, RelayCrashWithParsedFramesDisconnectsAndStopsEveryActor) {
  // Member 3 stalls, so no relayed request becomes stable: the relay's
  // multicast window fills and its publish stage blocks in send() while
  // the ingress stage keeps parsing frames behind it. The relay then
  // crashes with frames parsed but not published.
  MuxConfig mc;
  mc.credits = 256;
  make(std::move(mc));
  const sim::Nanos overhead = MuxConfig{}.per_message_overhead;
  Session* s = mux->connect();
  domain->cluster().fabric().host(3).slow_cpu(sim::seconds(1));
  constexpr std::uint64_t kRequests = 160;
  std::uint64_t done = 0, disconnected = 0;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              std::uint64_t* d, std::uint64_t* dc)
                               -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      ++*d;
      if (r.status == ReplyStatus::disconnected) ++*dc;
    }(s, i, &done, &disconnected));
  }
  const auto parsed_unpublished = [&] {
    const auto parsed = static_cast<std::uint64_t>(
        mux->tier_stats().ingress_busy_ns / overhead);
    return parsed - domain->cluster().node(0).counters().messages_sent;
  };
  ASSERT_TRUE(run_until([&] { return parsed_unpublished() >= 8; }));
  EXPECT_EQ(mux->actors_running(), 5u);
  domain->cluster().node(0).stop();  // the relay crashes

  ASSERT_TRUE(run_until([&] { return done == kRequests; }));
  EXPECT_EQ(disconnected, kRequests);
  EXPECT_EQ(s->disconnected_requests(), kRequests);
  EXPECT_FALSE(mux->connected());
  // Every actor exits once its current wait or batch ends (the uplink
  // shipper stays busy for its last batch, 3 us of link overhead per
  // frame); none is left suspended on a dead relay.
  ASSERT_TRUE(run_until([&] { return mux->actors_running() == 0; },
                        domain->engine().now() + sim::millis(1)));
}

TEST_F(MuxFixture, CloseReturnsAtTheInstantTheLastReplyCompletes) {
  make();
  Session* s = mux->connect();
  constexpr std::uint64_t kInFlight = 12;
  std::uint64_t done = 0;
  sim::Nanos last_reply = -1;
  for (std::uint64_t i = 0; i < kInFlight; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              sim::Engine* eng, std::uint64_t* d,
                              sim::Nanos* at) -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      EXPECT_EQ(r.status, ReplyStatus::ok);
      ++*d;
      *at = eng->now();
    }(s, i, &domain->engine(), &done, &last_reply));
  }
  ASSERT_TRUE(run_until([&] { return s->in_flight() == kInFlight; }));
  sim::Nanos closed_at = -1;
  domain->engine().spawn([](Session* sess, sim::Engine* eng,
                            sim::Nanos* at) -> sim::Co<> {
    co_await sess->close();
    *at = eng->now();
  }(s, &domain->engine(), &closed_at));
  ASSERT_TRUE(run_until([&] { return closed_at >= 0; }));
  EXPECT_EQ(done, kInFlight);
  EXPECT_EQ(closed_at, last_reply);
  EXPECT_FALSE(s->connected());
}

/// A request on `sess` that records when it resolved and how.
sim::Co<> timed_request(Session* sess, std::uint64_t tag, sim::Engine* eng,
                        ReplyStatus* status, sim::Nanos* at) {
  const Reply r = co_await sess->request(bytes_of(tag));
  *status = r.status;
  *at = eng->now();
}

TEST_F(MuxFixture, CancelResolvesAParkedRequestAtThatInstant) {
  MuxConfig mc;
  mc.credits = 1;
  make(std::move(mc));
  sim::Engine& eng = domain->engine();
  Session* a = mux->connect();
  Session* b = mux->connect();
  ReplyStatus a_status = ReplyStatus::busy, b_status = ReplyStatus::busy;
  sim::Nanos a_at = -1, b_at = -1;
  eng.spawn(timed_request(a, 1, &eng, &a_status, &a_at));
  ASSERT_TRUE(run_until([&] { return mux->credits_available() == 0; }));
  eng.spawn(timed_request(b, 2, &eng, &b_status, &b_at));
  ASSERT_TRUE(run_until([&] { return mux->credit_waiters() == 1; }));

  const sim::Nanos cancel_at = eng.now() + 1'001;
  eng.schedule_fn(cancel_at, [b] { b->cancel(); });
  ASSERT_TRUE(run_until([&] { return b_at >= 0; }));
  EXPECT_EQ(b_status, ReplyStatus::cancelled);
  EXPECT_EQ(b_at, cancel_at);
  EXPECT_EQ(mux->credit_waiters(), 0u);
  ASSERT_TRUE(run_until([&] { return a_at >= 0; }));
  EXPECT_EQ(a_status, ReplyStatus::ok);
}

TEST_F(MuxFixture, CloseResolvesAParkedRequestAndReturnsAtThatInstant) {
  MuxConfig mc;
  mc.credits = 1;
  make(std::move(mc));
  sim::Engine& eng = domain->engine();
  Session* a = mux->connect();
  Session* b = mux->connect();
  ReplyStatus a_status = ReplyStatus::busy, b_status = ReplyStatus::busy;
  sim::Nanos a_at = -1, b_at = -1;
  eng.spawn(timed_request(a, 1, &eng, &a_status, &a_at));
  ASSERT_TRUE(run_until([&] { return mux->credits_available() == 0; }));
  eng.spawn(timed_request(b, 2, &eng, &b_status, &b_at));
  ASSERT_TRUE(run_until([&] { return mux->credit_waiters() == 1; }));

  // b has nothing admitted, only the parked request: close() resolves it
  // and has nothing left to wait for.
  const sim::Nanos close_at = eng.now() + 1'001;
  sim::Nanos closed_at = -1;
  eng.schedule_fn(close_at, [&] {
    eng.spawn([](Session* sess, sim::Engine* e,
                 sim::Nanos* at) -> sim::Co<> {
      co_await sess->close();
      *at = e->now();
    }(b, &eng, &closed_at));
  });
  ASSERT_TRUE(run_until([&] { return closed_at >= 0 && b_at >= 0; }));
  EXPECT_EQ(b_status, ReplyStatus::cancelled);
  EXPECT_EQ(b_at, close_at);
  EXPECT_EQ(closed_at, close_at);
  EXPECT_FALSE(b->connected());
  ASSERT_TRUE(run_until([&] { return a_at >= 0; }));
  EXPECT_EQ(a_status, ReplyStatus::ok);
}

TEST_F(MuxFixture, IdleMuxStopsEveryActorAtTheRelayCrash) {
  // Member 3 is descheduled, so the two admitted requests never become
  // stable: their replies wait at the relay, three more requests park for
  // a credit, and every actor parks on its signal. The relay's crash
  // rings its doorbell; the ingress stage notices and disconnects, which
  // resolves every request and wakes every other actor, all at the crash
  // instant.
  MuxConfig mc;
  mc.credits = 2;
  make(std::move(mc));
  sim::Engine& eng = domain->engine();
  domain->cluster().fabric().host(3).slow_cpu(sim::seconds(1));
  Session* s = mux->connect();
  constexpr int kRequests = 5;
  ReplyStatus status[kRequests];
  sim::Nanos at[kRequests];
  for (int i = 0; i < kRequests; ++i) {
    at[i] = -1;
    eng.spawn(timed_request(s, i, &eng, &status[i], &at[i]));
  }
  eng.run_to(sim::micros(500));
  ASSERT_EQ(mux->credit_waiters(), 3u);
  ASSERT_EQ(s->in_flight(), 2u);
  ASSERT_EQ(mux->actors_running(), 5u);

  const sim::Nanos crash_at = eng.now() + 1'001;
  eng.schedule_fn(crash_at, [this] { domain->cluster().crash(0); });
  eng.run_to(crash_at);
  EXPECT_EQ(mux->actors_running(), 0u);
  EXPECT_FALSE(mux->connected());
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(status[i], ReplyStatus::disconnected) << "request " << i;
    EXPECT_EQ(at[i], crash_at) << "request " << i;
  }
}

TEST_F(MuxFixture, OkReplyWaitsForEveryTopicMemberToDeliver) {
  // An ok reply means every topic member delivered the request, not just
  // the relay. The moment the first member delivers, the request is stable
  // (every member has it); the polling threads of the non-relay members
  // that have not delivered it yet stall, and the reply is held until they
  // catch up.
  constexpr sim::Nanos kStall = 100'000;
  make();
  Session* s = mux->connect();
  std::vector<std::uint64_t> delivered(4, 0);
  sim::Nanos stalled_until = -1;
  std::size_t stalled = 0;
  for (net::NodeId n = 0; n < 4; ++n) {
    domain->reader(n, 1).set_listener([&, n](const Sample&) {
      ++delivered[n];
      if (stalled_until >= 0) return;
      stalled_until = domain->engine().now() + kStall;
      for (net::NodeId m = 1; m < 4; ++m) {
        if (delivered[m] > 0) continue;
        domain->cluster().fabric().host(m).slow_cpu(stalled_until);
        ++stalled;
      }
    });
  }
  Reply reply;
  std::vector<std::uint64_t> at_reply;
  sim::Nanos replied_at = -1;
  domain->engine().spawn([](Session* sess, Reply* out,
                            std::vector<std::uint64_t>* seen,
                            const std::vector<std::uint64_t>* live,
                            sim::Engine* eng, sim::Nanos* at) -> sim::Co<> {
    *out = co_await sess->request(bytes_of(7));
    *seen = *live;
    *at = eng->now();
  }(s, &reply, &at_reply, &delivered, &domain->engine(), &replied_at));

  ASSERT_TRUE(run_until([&] { return replied_at >= 0; }));
  ASSERT_GT(stalled, 0u);
  EXPECT_EQ(reply.status, ReplyStatus::ok);
  EXPECT_EQ(at_reply, (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_GE(replied_at, stalled_until);
}

TEST(MuxLatency, AtomicSessionEchoPaysItsHopsAndRoundsNotABackoff) {
  // Fig 18's front-tier echo at the atomic QoS: one session, one request
  // in flight, a 1 KB body through relay 0 into a five-member topic with
  // 10 KB samples, on Derecho's full polling lap. A request pays its
  // path's hops, link overheads and polling rounds. A claim that waits out
  // the relay's idle backoff, or a ring that lands mid-round and is
  // dropped, adds up to idle_backoff_max (50 us) to it.
  core::ClusterConfig cc;
  cc.nodes = 6;
  cc.park_after = 0;
  Domain domain(cc);
  TopicConfig tc;
  tc.name = "echo";
  tc.topic_id = 1;
  tc.qos = Qos::atomic_multicast;
  tc.max_sample_size = 10240;
  tc.publishers = {0};
  tc.subscribers = {0, 1, 2, 3, 4};
  tc.opts = core::ProtocolOptions::spindle();
  domain.create_topic(tc);
  ClientMux& mux = domain.create_client_mux(1, 5, 0);
  Session* session = mux.connect();
  domain.start();

  metrics::Histogram rtt;
  bool done = false;
  domain.engine().spawn([](Session* s, metrics::Histogram* h,
                           bool* flag) -> sim::Co<> {
    const std::vector<std::byte> body(1024);
    for (int i = 0; i < 200; ++i) {
      const Reply r = co_await s->request(body);
      if (r.status == ReplyStatus::ok) {
        h->add(static_cast<std::uint64_t>(r.rtt));
      }
    }
    *flag = true;
  }(session, &rtt, &done));
  ASSERT_TRUE(domain.engine().run_until([&] { return done; },
                                        sim::seconds(10)));
  ASSERT_EQ(rtt.count(), 200u);

  const net::TimingModel& tm = domain.cluster().fabric().timing();
  const core::CpuModel& cpu = domain.cluster().cpu();
  // Five fabric hops, each posted once. The uplink frame, the topic
  // message and the reply frame each ship a whole 10 KB slot, and the
  // relay's copy to its last subscriber leaves the NIC behind three
  // others; the received_num acks and delivered_num pushes are 16 bytes.
  const sim::Nanos hops =
      3 * (tm.post_cpu_first + tm.isolated_latency(10240)) +
      3 * tm.occupancy(10240) +
      2 * (tm.post_cpu_first + tm.isolated_latency(16));
  // Three link overheads: the client endpoint, the relay's ingress and the
  // gateway's demux (the uplink shipper pays its own after posting).
  const sim::Nanos links = 3 * MuxConfig{}.per_message_overhead;
  const sim::Nanos send = cpu.send_setup + cpu.construction_cost(1048);
  // Four polling stages in a row (the relay's send, a subscriber's
  // receive, its delivery, the relay's delivery), each up to two rounds
  // of under 1 us: one the input lands in, one that serves it.
  const sim::Nanos rounds = 4 * 2 * sim::micros(1);
  const sim::Nanos bound = hops + links + send + rounds;
  EXPECT_LT(rtt.percentile(50), static_cast<std::uint64_t>(bound))
      << "p50 " << rtt.percentile(50) << " ns, bound " << bound << " ns";
}

TEST(MuxValidation, RejectsParallelEngine) {
  // The mux's actors touch both endpoints' rings and doorbells from one
  // engine; in parallel mode those live in different partitions.
  core::ClusterConfig cc;
  cc.nodes = 6;
  cc.sim_threads = 2;
  Domain domain(cc);
  ASSERT_GT(domain.cluster().sim_workers(), 1u);
  TopicConfig tc;
  tc.name = "p";
  tc.topic_id = 1;
  tc.max_sample_size = 256;
  tc.publishers = {0, 1, 2, 3};
  tc.subscribers = {0, 1, 2, 3};
  domain.create_topic(tc);
  EXPECT_THROW(domain.create_client_mux(1, 4, 0), std::invalid_argument);
}

TEST(MuxValidation, RejectsBadTopologies) {
  core::ClusterConfig cc;
  cc.nodes = 5;
  Domain domain(cc);
  TopicConfig tc;
  tc.name = "v";
  tc.topic_id = 1;
  tc.max_sample_size = 256;
  tc.publishers = {0};
  tc.subscribers = {0, 1};
  domain.create_topic(tc);

  // Relay must subscribe and publish; the gateway must be a spare node.
  EXPECT_THROW(domain.create_client_mux(1, 4, 2), std::invalid_argument);
  EXPECT_THROW(domain.create_client_mux(1, 4, 1), std::invalid_argument);
  EXPECT_THROW(domain.create_client_mux(1, 1, 0), std::invalid_argument);
  EXPECT_THROW(domain.create_client_mux(1, 0, 0), std::invalid_argument);
  EXPECT_THROW(domain.create_client_mux(1, 9, 0), std::invalid_argument);

  MuxConfig bad;
  bad.ring_window = 1;
  EXPECT_THROW(domain.create_client_mux(1, 4, 0, std::move(bad)),
               std::invalid_argument);

  domain.create_client_mux(1, 4, 0);  // valid
  domain.start();
  EXPECT_THROW(domain.create_client_mux(1, 4, 0), std::logic_error);
}

}  // namespace
}  // namespace spindle::dds
