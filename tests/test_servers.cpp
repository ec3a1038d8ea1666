// Unit tests for the stable servers: Event Logger storage/acks/GC/recovery
// and the transactional checkpoint server with versioning.
#include <gtest/gtest.h>

#include "ckpt/checkpoint_server.hpp"
#include "ckpt/scheduler.hpp"
#include "elog/event_logger.hpp"

namespace mpiv {
namespace {

struct Rig {
  sim::Engine eng;
  ftapi::NodeLayout layout{4};
  net::CostModel cost;
  net::Network net{eng, layout.total_nodes(), cost};
  ftapi::ElStats el_stats;
  // One serving shard owns every rank; the base observer ignores events.
  elog::ElDirectory dir = [] {
    elog::ElDirectory d;
    d.init(4, 1, 0);
    return d;
  }();
  ftapi::FaultObserver observer;
  elog::EventLogger el{net, layout, &el_stats, 0, dir, observer};
  ckpt::CheckpointServer ckpt{net, layout};
  std::vector<net::Message> inbox;

  Rig() {
    // Node 0 plays the client; capture whatever comes back.
    net.attach(0, [this](net::Message&& m) { inbox.push_back(std::move(m)); });
    for (net::NodeId n = 1; n < 4; ++n) net.attach(n, [](net::Message&&) {});
    net.attach(layout.dispatcher_node(), [](net::Message&&) {});
  }

  void send(net::Message m) {
    m.src = 0;
    m.wire_bytes = cost.header_bytes + m.payload.bytes + m.body.size();
    net.send(std::move(m));
  }

  net::Message el_event(std::uint32_t creator, std::uint64_t seq) {
    net::Message m;
    m.kind = net::MsgKind::kElEvent;
    m.dst = layout.el_node();
    m.src_rank = static_cast<int>(creator);
    m.body.put_u32(1);
    ftapi::Determinant d;
    d.creator = creator;
    d.seq = seq;
    d.src = 1;
    d.ssn = seq;
    d.serialize(m.body);
    return m;
  }
};

TEST(EventLoggerTest, StoresAndAcksWithStableVector) {
  Rig r;
  r.send(r.el_event(0, 1));
  r.send(r.el_event(0, 2));
  r.eng.run();
  EXPECT_EQ(r.el.stable(0), 2u);
  ASSERT_GE(r.inbox.size(), 2u);
  // The last ack's stable vector covers both events.
  net::Message& ack = r.inbox.back();
  ASSERT_EQ(ack.kind, net::MsgKind::kElAck);
  EXPECT_EQ(ack.body.get_u64(), 2u);  // creator 0
  EXPECT_EQ(ack.body.get_u64(), 0u);  // creator 1
}

TEST(EventLoggerTest, OutOfOrderEventsDoNotAdvanceStability) {
  Rig r;
  r.send(r.el_event(0, 2));  // gap: seq 1 missing
  r.eng.run();
  EXPECT_EQ(r.el.stable(0), 0u);
  r.send(r.el_event(0, 1));
  r.eng.run();
  EXPECT_EQ(r.el.stable(0), 2u);  // hole filled
}

TEST(EventLoggerTest, DuplicateResubmissionsIgnored) {
  Rig r;
  r.send(r.el_event(0, 1));
  r.send(r.el_event(0, 1));
  r.eng.run();
  EXPECT_EQ(r.el.stable(0), 1u);
  EXPECT_EQ(r.el.stored_count(), 1u);
}

TEST(EventLoggerTest, GcAdvancesStabilityAndPrunes) {
  Rig r;
  r.send(r.el_event(0, 1));
  r.eng.run();
  net::Message gc;
  gc.kind = net::MsgKind::kControl;
  gc.tag = static_cast<std::int32_t>(mpi::CtlSub::kElGc);
  gc.src_rank = 0;
  gc.arg = 5;  // checkpoint covers receptions <= 5
  gc.dst = r.layout.el_node();
  r.send(std::move(gc));
  r.eng.run();
  EXPECT_EQ(r.el.stable(0), 5u);
  EXPECT_EQ(r.el.stored_count(), 0u);
}

TEST(EventLoggerTest, RecoveryReturnsStableVectorAndDeterminants) {
  Rig r;
  for (std::uint64_t s = 1; s <= 3; ++s) r.send(r.el_event(2, s));
  r.eng.run();
  r.inbox.clear();
  net::Message req;
  req.kind = net::MsgKind::kElRecoveryReq;
  req.dst = r.layout.el_node();
  req.arg = 2;
  r.send(std::move(req));
  r.eng.run();
  ASSERT_EQ(r.inbox.size(), 1u);
  net::Message& resp = r.inbox[0];
  ASSERT_EQ(resp.kind, net::MsgKind::kElRecoveryResp);
  // Stable vector first...
  EXPECT_EQ(resp.body.get_u64(), 0u);
  EXPECT_EQ(resp.body.get_u64(), 0u);
  EXPECT_EQ(resp.body.get_u64(), 3u);
  EXPECT_EQ(resp.body.get_u64(), 0u);
  // ...then the stored determinants of rank 2.
  const std::uint32_t n = resp.body.get_u32();
  ASSERT_EQ(n, 3u);
  for (std::uint32_t i = 0; i < n; ++i) {
    const ftapi::Determinant d = ftapi::Determinant::deserialize(resp.body);
    EXPECT_EQ(d.creator, 2u);
    EXPECT_EQ(d.seq, i + 1);
  }
}

TEST(CheckpointServerTest, StoreFetchRoundTrip) {
  Rig r;
  net::Message st;
  st.kind = net::MsgKind::kCkptStore;
  st.dst = r.layout.ckpt_node();
  st.src_rank = 0;
  st.arg = 1;  // version
  st.payload.bytes = 1 << 20;
  st.body.put_u64(0xFACE);
  r.send(std::move(st));
  r.eng.run();
  ASSERT_EQ(r.inbox.size(), 1u);
  EXPECT_EQ(r.inbox[0].kind, net::MsgKind::kCkptStoreAck);
  EXPECT_TRUE(r.ckpt.has_image(0));
  EXPECT_EQ(r.ckpt.latest_version(0), 1u);

  r.inbox.clear();
  net::Message f;
  f.kind = net::MsgKind::kCkptFetchReq;
  f.dst = r.layout.ckpt_node();
  f.arg = 0;  // rank
  f.ssn = 0;  // latest
  r.send(std::move(f));
  r.eng.run();
  ASSERT_EQ(r.inbox.size(), 1u);
  EXPECT_EQ(r.inbox[0].arg, 1u);
  EXPECT_EQ(r.inbox[0].body.get_u64(), 0xFACEu);
  EXPECT_EQ(r.inbox[0].payload.bytes, 1u << 20);
}

TEST(CheckpointServerTest, FetchMissingRankSaysNo) {
  Rig r;
  net::Message f;
  f.kind = net::MsgKind::kCkptFetchReq;
  f.dst = r.layout.ckpt_node();
  f.arg = 3;
  r.send(std::move(f));
  r.eng.run();
  ASSERT_EQ(r.inbox.size(), 1u);
  EXPECT_EQ(r.inbox[0].arg, 0u);
}

TEST(CheckpointServerTest, VersionedFetchForCoordinatedRollback) {
  Rig r;
  for (std::uint64_t v = 1; v <= 2; ++v) {
    net::Message st;
    st.kind = net::MsgKind::kCkptStore;
    st.dst = r.layout.ckpt_node();
    st.src_rank = 0;
    st.arg = v;
    st.body.put_u64(0xA0 + v);
    r.send(std::move(st));
  }
  r.eng.run();
  r.inbox.clear();
  net::Message f;
  f.kind = net::MsgKind::kCkptFetchReq;
  f.dst = r.layout.ckpt_node();
  f.arg = 0;
  f.ssn = 1;  // the older, globally-complete snapshot
  r.send(std::move(f));
  r.eng.run();
  ASSERT_EQ(r.inbox.size(), 1u);
  EXPECT_EQ(r.inbox[0].arg, 1u);
  EXPECT_EQ(r.inbox[0].body.get_u64(), 0xA1u);
}

TEST(CheckpointServerTest, DiskSerializesConcurrentStores) {
  Rig r;
  const sim::Time t0 = r.eng.now();
  for (int rank = 0; rank < 2; ++rank) {
    net::Message st;
    st.kind = net::MsgKind::kCkptStore;
    st.dst = r.layout.ckpt_node();
    st.src_rank = rank;
    st.arg = 1;
    st.payload.bytes = 4 << 20;
    r.send(std::move(st));
  }
  r.eng.run();
  // Two 4 MB images through one disk: at least 2 x disk time.
  const double disk_s = 2.0 * (4.0 * (1 << 20)) * 8.0 / r.cost.ckpt_disk_bps;
  EXPECT_GE(sim::to_sec(r.eng.now() - t0), disk_s);
}

TEST(SchedulerTest, RoundRobinCyclesThroughRanks) {
  sim::Engine eng;
  ftapi::NodeLayout layout{3};
  net::CostModel cost;
  net::Network net(eng, layout.total_nodes(), cost);
  std::vector<int> requests;
  for (int rk = 0; rk < 3; ++rk) {
    net.attach(layout.rank_node(rk), [&requests, rk](net::Message&& m) {
      if (m.kind == net::MsgKind::kControl &&
          m.tag == static_cast<std::int32_t>(mpi::CtlSub::kCkptRequest)) {
        requests.push_back(rk);
      }
    });
  }
  net.attach(layout.el_node(), [](net::Message&&) {});
  net.attach(layout.ckpt_node(), [](net::Message&&) {});
  net.attach(layout.dispatcher_node(), [](net::Message&&) {});
  ckpt::CheckpointScheduler sched(net, layout, ckpt::Policy::kRoundRobin,
                                  10 * sim::kMillisecond, 1);
  sched.start();
  eng.run_until(65 * sim::kMillisecond);
  sched.stop();
  eng.run_until(100 * sim::kMillisecond);
  ASSERT_GE(requests.size(), 6u);
  EXPECT_EQ(requests[0], 0);
  EXPECT_EQ(requests[1], 1);
  EXPECT_EQ(requests[2], 2);
  EXPECT_EQ(requests[3], 0);
}

TEST(SchedulerTest, NonePolicyNeverRequests) {
  sim::Engine eng;
  ftapi::NodeLayout layout{2};
  net::CostModel cost;
  net::Network net(eng, layout.total_nodes(), cost);
  for (net::NodeId n = 0; n < layout.total_nodes(); ++n) {
    net.attach(n, [](net::Message&&) {});
  }
  ckpt::CheckpointScheduler sched(net, layout, ckpt::Policy::kNone,
                                  10 * sim::kMillisecond, 1);
  sched.start();
  eng.run_until(100 * sim::kMillisecond);
  EXPECT_EQ(sched.requests_sent(), 0u);
}

}  // namespace
}  // namespace mpiv
