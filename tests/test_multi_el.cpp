// Tests for the distributed Event Logger (the paper's §VI future work; see
// PAPER.md — "Key observations" 6-7 — for the LU/16 single-EL saturation
// that motivates sharding):
// determinants shard by creator rank, shards exchange stable-clock arrays,
// garbage collection still happens everywhere, and crash recovery remains
// exact with any shard count.
#include <gtest/gtest.h>

#include "runtime/cluster.hpp"
#include "workloads/apps.hpp"

namespace mpiv {
namespace {

using runtime::Cluster;
using runtime::ClusterConfig;
using runtime::ClusterReport;
using runtime::ProtocolKind;
using workloads::ChecksumResult;

ClusterConfig cfg_with_shards(int shards, int nranks = 6) {
  ClusterConfig cfg;
  cfg.nranks = nranks;
  cfg.protocol = ProtocolKind::kCausal;
  cfg.strategy = causal::StrategyKind::kVcausal;
  cfg.event_logger = true;
  cfg.el_shards = shards;
  cfg.ckpt_policy = ckpt::Policy::kRoundRobin;
  cfg.ckpt_interval = 60 * sim::kMillisecond;
  return cfg;
}

TEST(MultiEl, ShardAssignmentIsRoundRobin) {
  ftapi::NodeLayout layout{6, 3};
  EXPECT_EQ(layout.el_shard_for_rank(0), 0);
  EXPECT_EQ(layout.el_shard_for_rank(1), 1);
  EXPECT_EQ(layout.el_shard_for_rank(2), 2);
  EXPECT_EQ(layout.el_shard_for_rank(3), 0);
  EXPECT_NE(layout.el_node(0), layout.el_node(2));
  EXPECT_EQ(layout.total_nodes(), 6u + 3u + 2u);
  EXPECT_GT(layout.ckpt_node(), layout.el_node(2));
}

TEST(MultiEl, EventsLandOnTheOwningShard) {
  ClusterConfig cfg = cfg_with_shards(2);
  auto result = std::make_shared<ChecksumResult>(cfg.nranks);
  Cluster cluster(cfg);
  ClusterReport rep = cluster.run(workloads::make_ring_app(20, 1024, result));
  ASSERT_TRUE(rep.completed);
  // Every rank's determinants are stable at its own shard.
  for (int r = 0; r < cfg.nranks; ++r) {
    const int shard = r % 2;
    EXPECT_GT(cluster.event_logger(shard).stable(static_cast<std::uint32_t>(r)), 0u)
        << "rank " << r;
  }
}

TEST(MultiEl, ClockExchangeSpreadsStability) {
  // After the run, shard 0 must know (via the exchange) about stability of
  // ranks owned by shard 1 and vice versa.
  ClusterConfig cfg = cfg_with_shards(2);
  auto result = std::make_shared<ChecksumResult>(cfg.nranks);
  Cluster cluster(cfg);
  ClusterReport rep = cluster.run(workloads::make_ring_app(20, 1024, result));
  ASSERT_TRUE(rep.completed);
  EXPECT_GT(cluster.event_logger(0).stable(1), 0u);  // rank 1 owned by shard 1
  EXPECT_GT(cluster.event_logger(1).stable(0), 0u);  // rank 0 owned by shard 0
}

class MultiElRecovery : public ::testing::TestWithParam<int> {};

TEST_P(MultiElRecovery, CrashRecoveryExactWithAnyShardCount) {
  ClusterConfig cfg = cfg_with_shards(GetParam());
  auto ref_result = std::make_shared<ChecksumResult>(cfg.nranks);
  sim::Time ref_time;
  {
    Cluster cluster(cfg);
    ClusterReport rep = cluster.run(
        workloads::make_random_then_ring_app(10, 25, 7, 1024, ref_result));
    ASSERT_TRUE(rep.completed);
    ref_time = rep.completion_time;
  }
  cfg.campaign.injections.push_back(
      fault::rank_crash_at(ref_time * 3 / 4, 1));
  auto result = std::make_shared<ChecksumResult>(cfg.nranks);
  Cluster cluster(cfg);
  ClusterReport rep = cluster.run(
      workloads::make_random_then_ring_app(10, 25, 7, 1024, result));
  ASSERT_TRUE(rep.completed);
  EXPECT_EQ(rep.faults_injected, 1u);
  EXPECT_EQ(result->checksums, ref_result->checksums);
}

INSTANTIATE_TEST_SUITE_P(Shards, MultiElRecovery, ::testing::Values(1, 2, 3, 6),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

TEST(MultiEl, ShardsReducePiggybackUnderLoad) {
  // The LU-like bottleneck: with one overloaded EL the acks lag and
  // piggybacks accumulate; sharding restores the garbage collection.
  auto run_shards = [](int shards) {
    ClusterConfig cfg = cfg_with_shards(shards, 8);
    cfg.ckpt_policy = ckpt::Policy::kNone;
    cfg.cost.el_service = 120 * sim::kMicrosecond;  // deliberately slow EL
    auto result = std::make_shared<ChecksumResult>(cfg.nranks);
    Cluster cluster(cfg);
    ClusterReport rep =
        cluster.run(workloads::make_random_any_app(40, 3, 512, result));
    EXPECT_TRUE(rep.completed);
    return rep.totals();
  };
  const ftapi::RankStats one = run_shards(1);
  const ftapi::RankStats four = run_shards(4);
  EXPECT_LT(four.pb_bytes_sent, one.pb_bytes_sent);
  EXPECT_LT(four.el_ack_latency_us.mean(), one.el_ack_latency_us.mean());
}

}  // namespace
}  // namespace mpiv
