// Unit tests for the network model and communication daemon: serialization
// and latency math, ingress contention, duplex modes, crash-epoch frame
// dropping, rendezvous, the cost model, and the service-call resend rules.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "net/daemon.hpp"
#include "net/network.hpp"
#include "net/service_call.hpp"
#include "net/service_port.hpp"

namespace mpiv::net {
namespace {

Message frame(NodeId src, NodeId dst, std::uint64_t wire_bytes,
              MsgKind kind = MsgKind::kControl) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.kind = kind;
  m.wire_bytes = wire_bytes;
  return m;
}

struct Net {
  sim::Engine eng;
  CostModel cost;
  Network net{eng, 4, cost};
  std::vector<std::pair<sim::Time, Message>> delivered;

  void attach_all() {
    for (NodeId n = 0; n < 4; ++n) {
      net.attach(n, [this](Message&& m) {
        delivered.emplace_back(eng.now(), std::move(m));
      });
    }
  }
};

TEST(Network, OneWayTimeIsTxPlusWire) {
  Net t;
  t.attach_all();
  const std::uint64_t bytes = 10000;
  t.net.send(frame(0, 1, bytes));
  t.eng.run();
  ASSERT_EQ(t.delivered.size(), 1u);
  EXPECT_EQ(t.delivered[0].first, t.cost.tx_time(bytes) + t.cost.wire_latency);
}

TEST(Network, EgressSerializesBackToBackFrames) {
  Net t;
  t.attach_all();
  t.net.send(frame(0, 1, 5000));
  t.net.send(frame(0, 2, 5000));
  t.eng.run();
  ASSERT_EQ(t.delivered.size(), 2u);
  // Second frame waits for the first to finish serializing at the source.
  EXPECT_EQ(t.delivered[1].first - t.delivered[0].first, t.cost.tx_time(5000));
}

TEST(Network, IngressContentionQueuesConcurrentSenders) {
  // Two senders to one destination: the second transfer queues on the
  // destination NIC — the mechanism that saturates a single Event Logger.
  Net t;
  t.attach_all();
  t.net.send(frame(0, 3, 20000));
  t.net.send(frame(1, 3, 20000));
  t.eng.run();
  ASSERT_EQ(t.delivered.size(), 2u);
  EXPECT_GE(t.delivered[1].first - t.delivered[0].first, t.cost.tx_time(20000));
}

TEST(Network, CrashDropsInFlightTowardNode) {
  Net t;
  t.attach_all();
  t.net.send(frame(0, 1, 100000));  // ~9 ms transfer
  t.eng.run_until(sim::from_ms(1));
  t.net.crash_node(1);
  t.eng.run();
  EXPECT_TRUE(t.delivered.empty());
  EXPECT_EQ(t.net.frames_dropped(), 1u);
}

TEST(Network, FramesFromCrashedNodeStillDeliver) {
  // A frame already on the wire when its sender dies was sent: deliver it.
  Net t;
  t.attach_all();
  t.net.send(frame(0, 1, 1000));
  t.eng.run_until(10);  // frame is in flight
  t.net.crash_node(0);
  t.eng.run();
  EXPECT_EQ(t.delivered.size(), 1u);
}

TEST(Network, RestartAcceptsNewTraffic) {
  Net t;
  t.attach_all();
  t.net.crash_node(2);
  t.net.restart_node(2);
  t.net.send(frame(0, 2, 1000));
  t.eng.run();
  EXPECT_EQ(t.delivered.size(), 1u);
}

TEST(Network, DeadNodeEmitsNothing) {
  Net t;
  t.attach_all();
  t.net.crash_node(0);
  t.net.send(frame(0, 1, 1000));
  t.eng.run();
  EXPECT_TRUE(t.delivered.empty());
}

TEST(Network, PartitionHoldsCrossingFramesUntilHeal) {
  Net t;
  t.attach_all();
  const sim::Time window = 20 * sim::kMillisecond;
  const sim::Time backoff = 2 * sim::kMillisecond;
  t.net.partition({0, 1}, {2, 3}, window, backoff);
  EXPECT_EQ(t.net.active_partitions(), 1u);
  t.net.send(frame(0, 2, 1000));  // crosses the cut: held
  t.net.send(frame(0, 1, 1000));  // same side: unaffected
  t.eng.run();
  ASSERT_EQ(t.delivered.size(), 2u);
  EXPECT_EQ(t.net.frames_partitioned(), 1u);
  // Same-side frame sails through...
  EXPECT_EQ(t.delivered[0].second.dst, NodeId{1});
  EXPECT_LT(t.delivered[0].first, window);
  // ...the crossing frame arrives only after heal + backoff.
  EXPECT_EQ(t.delivered[1].second.dst, NodeId{2});
  EXPECT_GE(t.delivered[1].first, window + backoff);
  EXPECT_EQ(t.net.frames_dropped(), 0u);  // held, never lost
}

TEST(Network, PartitionHealPreservesSendOrder) {
  // Several frames from one source cross the cut mid-window; after the heal
  // they must reach the destination in their original send order (the
  // fabric retries are FIFO for equal release times and the ingress
  // serializer spaces them out).
  Net t;
  t.attach_all();
  t.net.partition({0}, {1}, 10 * sim::kMillisecond, sim::kMillisecond);
  for (std::uint64_t i = 0; i < 4; ++i) {
    Message m = frame(0, 1, 2000);
    m.ssn = i + 1;
    t.net.send(std::move(m));
  }
  t.eng.run();
  ASSERT_EQ(t.delivered.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.delivered[i].second.ssn, i + 1);
    EXPECT_GE(t.delivered[i].first, 11 * sim::kMillisecond);
  }
  EXPECT_EQ(t.net.frames_partitioned(), 4u);
}

TEST(Network, OverlappingPartitionsCompose) {
  // A frame crossing two active cuts waits for the later heal.
  Net t;
  t.attach_all();
  t.net.partition({0}, {1}, 5 * sim::kMillisecond, 0);
  t.net.partition({0}, {1, 2}, 15 * sim::kMillisecond, 0);
  t.net.send(frame(0, 1, 1000));
  t.eng.run();
  ASSERT_EQ(t.delivered.size(), 1u);
  EXPECT_GE(t.delivered[0].first, 15 * sim::kMillisecond);
}

TEST(Daemon, CrashedDaemonDeliversNothingBeforeRestartAndKeepsOrder) {
  // While the daemon is down nothing crosses the delivery boundary — not
  // even frames whose CPU charge was already in flight when the crash hit —
  // and the backlog releases after restart in arrival (FIFO) order.
  sim::Engine eng;
  CostModel cost;
  Network net{eng, 2, cost};
  Daemon d0(net, 0, ChannelKind::kV);
  Daemon d1(net, 1, ChannelKind::kV);
  std::vector<std::pair<sim::Time, Message>> up1;
  d1.attach_upper([&](Message&& m) { up1.emplace_back(eng.now(), std::move(m)); });
  d0.attach_upper([](Message&&) {});

  d1.crash_daemon();
  for (std::uint64_t i = 1; i <= 3; ++i) {
    Message m;
    m.kind = MsgKind::kAppData;
    m.src = 0;
    m.dst = 1;
    m.src_rank = 0;
    m.dst_rank = 1;
    m.ssn = i;
    m.payload = Payload{512, i};
    d0.submit_app(std::move(m));
  }
  const sim::Time restart_at = 5 * sim::kMillisecond;
  std::size_t drained = 0;
  eng.at(restart_at, [&] { drained = d1.restart_daemon(); });
  eng.run();
  EXPECT_EQ(drained, 3u);
  ASSERT_EQ(up1.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(up1[i].second.ssn, i + 1);       // original send order
    EXPECT_GE(up1[i].first, restart_at);       // nothing leaked early
  }
}

TEST(Daemon, CrashedDaemonHoldsTrafficUntilRestart) {
  // While the daemon is down nothing moves in either direction; the backlog
  // drains in order on restart and nothing is lost.
  sim::Engine eng;
  CostModel cost;
  Network net{eng, 2, cost};
  Daemon d0(net, 0, ChannelKind::kV);
  Daemon d1(net, 1, ChannelKind::kV);
  std::vector<Message> up1;
  d1.attach_upper([&up1](Message&& m) { up1.push_back(std::move(m)); });
  d0.attach_upper([](Message&&) {});

  d1.crash_daemon();
  EXPECT_TRUE(d1.daemon_down());
  Message m;
  m.kind = MsgKind::kAppData;
  m.src = 0;
  m.dst = 1;
  m.src_rank = 0;
  m.dst_rank = 1;
  m.ssn = 1;
  m.payload = Payload{512, 7};
  d0.submit_app(std::move(m));
  eng.run();
  EXPECT_TRUE(up1.empty());  // arrived at the NIC, stuck in the socket buffer

  const std::size_t drained = d1.restart_daemon();
  EXPECT_FALSE(d1.daemon_down());
  EXPECT_EQ(drained, 1u);
  eng.run();
  ASSERT_EQ(up1.size(), 1u);
  EXPECT_EQ(up1[0].ssn, 1u);

  // reset() (a node-level restart) discards any new backlog.
  d1.crash_daemon();
  d1.reset();
  EXPECT_FALSE(d1.daemon_down());
  EXPECT_EQ(d1.restart_daemon(), 0u);
}

TEST(CostModel, TxTimeScalesWithBytes) {
  CostModel c;
  EXPECT_GT(c.tx_time(2000), c.tx_time(1000));
  // 100 Mb/s with framing overhead: 1 MB takes ~94 ms.
  const double ms = sim::to_ms(c.tx_time(1 << 20));
  EXPECT_NEAR(ms, 8.0 * 1.12 * 1.048576 * 10.0, 0.5);
}

TEST(CostModel, FlopsTime) {
  CostModel c;
  EXPECT_NEAR(sim::to_sec(c.flops_time(c.node_gflops * 1e9)), 1.0, 1e-9);
}

TEST(Daemon, AppMessageReachesPeerRuntime) {
  sim::Engine eng;
  CostModel cost;
  Network net(eng, 2, cost);
  Daemon d0(net, 0, ChannelKind::kV);
  Daemon d1(net, 1, ChannelKind::kV);
  std::vector<Message> up1;
  d0.attach_upper([](Message&&) {});
  d1.attach_upper([&](Message&& m) { up1.push_back(std::move(m)); });

  Message m;
  m.src = 0;
  m.dst = 1;
  m.kind = MsgKind::kAppData;
  m.src_rank = 0;
  m.dst_rank = 1;
  m.ssn = 1;
  m.payload = {512, 42};
  d0.submit_app(std::move(m));
  eng.run();
  ASSERT_EQ(up1.size(), 1u);
  EXPECT_EQ(up1[0].payload.check, 42u);
  EXPECT_EQ(d0.app_msgs_sent(), 1u);
  EXPECT_EQ(d0.app_bytes_sent(), 512u);
}

TEST(Daemon, RendezvousForLargeMessages) {
  sim::Engine eng;
  CostModel cost;
  Network net(eng, 2, cost);
  Daemon d0(net, 0, ChannelKind::kV);
  Daemon d1(net, 1, ChannelKind::kV);
  std::vector<Message> up1;
  d0.attach_upper([](Message&&) {});
  d1.attach_upper([&](Message&& m) { up1.push_back(std::move(m)); });

  Message big;
  big.src = 0;
  big.dst = 1;
  big.kind = MsgKind::kAppData;
  big.payload = {cost.eager_threshold + 1, 7};
  d0.submit_app(std::move(big));
  eng.run();
  ASSERT_EQ(up1.size(), 1u);  // RTS/CTS consumed inside the daemons
  EXPECT_EQ(up1[0].payload.check, 7u);
  // Three fabric crossings happened (RTS, CTS, DATA).
  EXPECT_EQ(net.frames_sent(), 3u);
}

TEST(Daemon, ResetDropsParkedRendezvous) {
  sim::Engine eng;
  CostModel cost;
  Network net(eng, 2, cost);
  Daemon d0(net, 0, ChannelKind::kV);
  Daemon d1(net, 1, ChannelKind::kV);
  std::vector<Message> up1;
  d0.attach_upper([](Message&&) {});
  d1.attach_upper([&](Message&& m) { up1.push_back(std::move(m)); });

  Message big;
  big.src = 0;
  big.dst = 1;
  big.kind = MsgKind::kAppData;
  big.payload = {cost.eager_threshold + 1, 7};
  d0.submit_app(std::move(big));
  d0.reset();  // crash before the CTS comes back: payload is gone
  eng.run();
  EXPECT_TRUE(up1.empty());
}

TEST(Daemon, P4HandoffCostsMoreThanVPipe) {
  sim::Engine eng;
  CostModel cost;
  Network net(eng, 2, cost);
  Daemon p4(net, 0, ChannelKind::kP4);
  Daemon v(net, 1, ChannelKind::kV);
  EXPECT_GT(p4.app_handoff_cost(1), v.app_handoff_cost(1));
  // Per-byte: P4 pays the extra staging copy.
  const sim::Time p4_per_byte = p4.app_handoff_cost(100000) - p4.app_handoff_cost(0);
  const sim::Time v_per_byte = v.app_handoff_cost(100000) - v.app_handoff_cost(0);
  EXPECT_GT(p4_per_byte, v_per_byte);
}

TEST(ServicePort, ChargesSerializeFifo) {
  sim::Engine eng;
  CostModel cost;
  Network net(eng, 2, cost);
  ServicePort port(net, 0);
  std::vector<sim::Time> at;
  port.charge_then(1000, [&] { at.push_back(eng.now()); });
  port.charge_then(500, [&] { at.push_back(eng.now()); });
  eng.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], 1000);
  EXPECT_EQ(at[1], 1500);
}

// --- ServiceCall ------------------------------------------------------------

constexpr sim::Time kMs = sim::kMillisecond;

/// Drives one ServiceCall from a client process and records every send.
struct CallRig {
  explicit CallRig(sim::Time retry) : call(net, retry) {}

  sim::Task<void> client(ServiceCall::Resolve resolve,
                         ServiceCall::Resend rule) {
    result = co_await call.call(
        std::move(resolve),
        [this](NodeId target) { sends.emplace_back(eng.now(), target); },
        rule);
  }
  void start(ServiceCall::Resolve resolve, ServiceCall::Resend rule) {
    proc.start(client(std::move(resolve), rule));
  }
  /// Delivers a reply tagged `arg` at time `t`.
  void reply_at(sim::Time t, std::uint64_t arg) {
    eng.at(t, [this, arg] {
      Message m;
      m.arg = arg;
      call.deliver(std::move(m));
    });
  }

  sim::Engine eng;
  CostModel cost;
  Network net{eng, 4, cost};
  ServiceCall call;
  sim::Process& proc = eng.create_process("client");
  std::vector<std::pair<sim::Time, NodeId>> sends;
  std::optional<std::optional<Message>> result;  // set once the call returns
};

ServiceCall::Resolve fixed(NodeId node) {
  return [node] { return node; };
}

TEST(ServiceCall, WithoutRetrySendsOnceAndArmsNoTimer) {
  CallRig r(0);
  r.start(fixed(2), ServiceCall::Resend::kEveryPeriod);
  r.eng.run();
  // Only the client's first resume ran; it sent and parked with nothing
  // scheduled behind it.
  EXPECT_EQ(r.eng.events_executed(), 1u);
  EXPECT_EQ(r.eng.queue_size(), 0u);
  ASSERT_EQ(r.sends.size(), 1u);
  EXPECT_EQ(r.sends[0].second, 2u);
  EXPECT_FALSE(r.result);

  r.reply_at(700 * kMs, 9);
  r.eng.run();
  EXPECT_EQ(r.eng.events_executed(), 3u);  // + the reply and the resume
  EXPECT_EQ(r.sends.size(), 1u);
  ASSERT_TRUE(r.result && *r.result);
  EXPECT_EQ((*r.result)->arg, 9u);
}

TEST(ServiceCall, TargetLostRuleWaitsOutASlowServerAndResendsAfterACrash) {
  CallRig r(10 * kMs);
  r.start(fixed(2), ServiceCall::Resend::kIfTargetLost);
  // Live but slow: three deadlines pass without a resend.
  r.eng.run_until(35 * kMs);
  EXPECT_EQ(r.sends.size(), 1u);
  // The server crashes and comes back: its epoch moved, so the request it
  // held is gone and goes out again at the next deadline.
  r.net.crash_node(2);
  r.net.restart_node(2);
  r.eng.run_until(45 * kMs);
  ASSERT_EQ(r.sends.size(), 2u);
  EXPECT_EQ(r.sends[1].first, 40 * kMs);
  // The resend restarts the watch: a live server gets its periods again.
  r.eng.run_until(75 * kMs);
  EXPECT_EQ(r.sends.size(), 2u);
  r.reply_at(80 * kMs, 1);
  r.eng.run_until(200 * kMs);
  ASSERT_TRUE(r.result && *r.result);
  EXPECT_EQ(r.sends.size(), 2u);
}

TEST(ServiceCall, TargetLostRuleResendsWhileTheServerIsDown) {
  CallRig r(10 * kMs);
  r.net.crash_node(2);
  r.start(fixed(2), ServiceCall::Resend::kIfTargetLost);
  r.eng.run_until(25 * kMs);
  ASSERT_EQ(r.sends.size(), 3u);
  EXPECT_EQ(r.sends[1].first, 10 * kMs);
  EXPECT_EQ(r.sends[2].first, 20 * kMs);
}

TEST(ServiceCall, EveryPeriodRuleReResolvesAndEndsWhenNoTargetIsLeft) {
  CallRig r(10 * kMs);
  std::vector<NodeId> route = {1, 2, 3};
  std::size_t asked = 0;
  r.start(
      [&] { return ++asked <= route.size() ? route[asked - 1] : kNoNode; },
      ServiceCall::Resend::kEveryPeriod);
  r.eng.run_until(100 * kMs);
  // Every target is live, yet each period resends, to wherever the
  // resolver points at that moment.
  ASSERT_EQ(r.sends.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.sends[i].first, static_cast<sim::Time>(i) * 10 * kMs);
    EXPECT_EQ(r.sends[i].second, route[i]);
  }
  // The resolver gave up at the fourth send: the call ends, no reply.
  EXPECT_EQ(asked, 4u);
  ASSERT_TRUE(r.result);
  EXPECT_FALSE(*r.result);
}

TEST(ServiceCall, RepliesToACancelledCallAreNotTakenByTheNextCall) {
  CallRig r(10 * kMs);
  r.start(fixed(2), ServiceCall::Resend::kIfTargetLost);
  r.eng.run_until(5 * kMs);
  ASSERT_EQ(r.sends.size(), 1u);
  // The server's answer lands, but the client dies before it resumes. Its
  // teardown cancels the call, and then a duplicate answer arrives.
  Message held;
  held.arg = 1;
  EXPECT_TRUE(r.call.deliver(std::move(held)));
  r.proc.kill();
  r.call.cancel();
  Message late;
  late.arg = 3;
  EXPECT_FALSE(r.call.deliver(std::move(late)));

  // The next incarnation's call waits for its own reply, through the dead
  // call's stale deadline wake-up at 10 ms.
  r.start(fixed(2), ServiceCall::Resend::kIfTargetLost);
  r.eng.run_until(30 * kMs);
  EXPECT_EQ(r.sends.size(), 2u);
  EXPECT_FALSE(r.result);
  r.reply_at(31 * kMs, 2);
  r.eng.run_until(40 * kMs);
  ASSERT_TRUE(r.result && *r.result);
  EXPECT_EQ((*r.result)->arg, 2u);
}

}  // namespace
}  // namespace mpiv::net
