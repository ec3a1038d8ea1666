// Edge-case fault-injection tests: crashes during checkpoint stores
// (transactionality end-to-end), crash storms, faults while another
// recovery is pending, pessimistic wildcard replay, coordinated rollback
// with repeated faults, and recovery under a starved Event Logger.
#include <gtest/gtest.h>

#include "runtime/cluster.hpp"
#include "scenario/runner.hpp"
#include "workloads/apps.hpp"

namespace mpiv {
namespace {

using runtime::Cluster;
using runtime::ClusterConfig;
using runtime::ClusterReport;
using runtime::ProtocolKind;
using workloads::ChecksumResult;

struct RunOutput {
  ClusterReport report;
  ChecksumResult checksums{0};
};

RunOutput run_ring(ClusterConfig cfg, int laps = 50) {
  auto result = std::make_shared<ChecksumResult>(cfg.nranks);
  Cluster cluster(cfg);
  ClusterReport rep = cluster.run(workloads::make_ring_app(laps, 2048, result));
  return {rep, *result};
}

/// Crashes `rank` at `at`: a timed campaign injection.
void crash_at(ClusterConfig& cfg, sim::Time at, int rank) {
  cfg.campaign.injections.push_back(fault::rank_crash_at(at, rank));
}

ClusterConfig causal_cfg(int nranks = 5) {
  ClusterConfig cfg;
  cfg.nranks = nranks;
  cfg.protocol = ProtocolKind::kCausal;
  cfg.strategy = causal::StrategyKind::kManetho;
  cfg.ckpt_policy = ckpt::Policy::kRoundRobin;
  cfg.ckpt_interval = 30 * sim::kMillisecond;
  return cfg;
}

TEST(RecoveryEdge, CrashSweepAcrossRunAndRanks) {
  // Property sweep: kill rank r at fraction f of the run, for a grid of
  // (r, f) — every combination must recover to identical results.
  ClusterConfig cfg = causal_cfg();
  const RunOutput ref = run_ring(cfg);
  ASSERT_TRUE(ref.report.completed);
  for (int rank = 0; rank < cfg.nranks; rank += 2) {
    for (int pct : {10, 35, 60, 85}) {
      ClusterConfig c2 = cfg;
      crash_at(c2, ref.report.completion_time * pct / 100, rank);
      RunOutput out = run_ring(c2);
      ASSERT_TRUE(out.report.completed) << "rank " << rank << " at " << pct << "%";
      EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums)
          << "rank " << rank << " at " << pct << "%";
    }
  }
}

TEST(RecoveryEdge, CrashLikelyDuringCheckpointKeepsOldImageUsable) {
  // Dense fault times around the checkpoint cadence: some runs kill the
  // rank while its store transaction is in flight. Either the transaction
  // committed (new image) or it did not (old image) — both must recover.
  ClusterConfig cfg = causal_cfg(4);
  cfg.ckpt_interval = 20 * sim::kMillisecond;
  const RunOutput ref = run_ring(cfg);
  ASSERT_TRUE(ref.report.completed);
  for (int k = 1; k <= 6; ++k) {
    ClusterConfig c2 = cfg;
    // Just after every k-th scheduler tick, when rank (k-1)%4 may be
    // mid-store (the store itself takes ~5+ ms).
    crash_at(c2, 20 * sim::kMillisecond * k + 6 * sim::kMillisecond, (k - 1) % 4);
    RunOutput out = run_ring(c2);
    ASSERT_TRUE(out.report.completed) << "tick " << k;
    EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums) << "tick " << k;
  }
}

TEST(RecoveryEdge, RepeatedCrashesOfSameRank) {
  ClusterConfig cfg = causal_cfg(4);
  const RunOutput ref = run_ring(cfg, 80);
  ASSERT_TRUE(ref.report.completed);
  ClusterConfig c2 = cfg;
  for (int k = 1; k <= 4; ++k) {
    crash_at(c2, ref.report.completion_time * k / 5, 2);
  }
  RunOutput out = run_ring(c2, 80);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.faults_injected, 4u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
}

TEST(RecoveryEdge, NearSimultaneousFaultsAreSerialized) {
  // Two faults 1 ms apart: the dispatcher must queue the second until the
  // first recovery completes, and both must replay correctly.
  ClusterConfig cfg = causal_cfg(5);
  const RunOutput ref = run_ring(cfg, 60);
  ASSERT_TRUE(ref.report.completed);
  ClusterConfig c2 = cfg;
  crash_at(c2, ref.report.completion_time / 2, 1);
  crash_at(c2, ref.report.completion_time / 2 + sim::kMillisecond, 3);
  RunOutput out = run_ring(c2, 60);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.faults_injected, 2u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
}

TEST(RecoveryEdge, PessimisticReplaysWildcardOrders) {
  ClusterConfig cfg;
  cfg.nranks = 6;
  cfg.protocol = ProtocolKind::kPessimistic;
  cfg.ckpt_policy = ckpt::Policy::kNone;
  auto run_it = [&cfg] {
    auto result = std::make_shared<ChecksumResult>(cfg.nranks);
    Cluster cluster(cfg);
    ClusterReport rep = cluster.run(
        workloads::make_random_then_ring_app(10, 25, 11, 1024, result));
    return RunOutput{rep, *result};
  };
  const RunOutput ref = run_it();
  ASSERT_TRUE(ref.report.completed);
  crash_at(cfg, ref.report.completion_time * 3 / 4, 2);
  RunOutput out = run_it();
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
}

TEST(RecoveryEdge, CoordinatedSurvivesRepeatedRollbacks) {
  ClusterConfig cfg;
  cfg.nranks = 4;
  cfg.protocol = ProtocolKind::kCoordinated;
  cfg.ckpt_policy = ckpt::Policy::kAllAtOnce;
  cfg.ckpt_interval = 60 * sim::kMillisecond;
  const RunOutput ref = run_ring(cfg, 70);
  ASSERT_TRUE(ref.report.completed);
  ClusterConfig c2 = cfg;
  crash_at(c2, ref.report.completion_time / 3, 0);
  crash_at(c2, ref.report.completion_time * 2 / 3, 2);
  RunOutput out = run_ring(c2, 70);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.faults_injected, 2u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
}

TEST(RecoveryEdge, CoordinatedRollbackBeforeFirstWaveRestartsFromScratch) {
  // A crash before the first checkpoint wave commits must roll every rank
  // back to the start, not to whatever image it alone managed to store:
  // such an image is ahead of the other ranks' restart state. Seed 43
  // crashes rank 0 inside that window.
  for (const std::uint64_t seed : {1, 2, 43}) {
    SCOPED_TRACE(seed);
    scenario::ScenarioSpec spec = scenario::parse_scenario_text(
        "variant = coordinated\n"
        "nranks = 8\n"
        "ckpt_policy = round-robin\n"
        "ckpt_interval = 100ms\n"
        "detection_delay = 10ms\n"
        "max_sim_time = 3s\n"
        "compare_reference = true\n"
        "workload = ring\n"
        "workload.laps = 150\n"
        "workload.bytes = 2048\n"
        "[faults]\n"
        "rank_rate = 120\n");
    spec.seed = seed;
    const scenario::RunResult r = scenario::run_spec(spec);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.report.faults_injected, 0u);
    EXPECT_EQ(r.outcome(), scenario::Outcome::kRecoveredExact);
  }
}

TEST(RecoveryEdge, StarvedEventLoggerStillRecoversCorrectly) {
  // An EL that cannot keep up degrades performance, never correctness.
  ClusterConfig cfg = causal_cfg(4);
  cfg.cost.el_service = 400 * sim::kMicrosecond;
  const RunOutput ref = run_ring(cfg);
  ASSERT_TRUE(ref.report.completed);
  ClusterConfig c2 = cfg;
  crash_at(c2, ref.report.completion_time / 2, 1);
  RunOutput out = run_ring(c2);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
}

TEST(RecoveryEdge, FaultFreeRunsPayNoRecoveryCost) {
  ClusterConfig cfg = causal_cfg(4);
  RunOutput out = run_ring(cfg);
  ASSERT_TRUE(out.report.completed);
  const ftapi::RankStats t = out.report.totals();
  EXPECT_EQ(t.recovery_events, 0u);
  EXPECT_EQ(t.replayed_receptions, 0u);
  EXPECT_EQ(t.recovery_total_time, 0);
}

// --- Event Logger shard loss ------------------------------------------------

/// Injects a permanent crash of EL shard `shard` at `at` into `cfg`.
void crash_el(ClusterConfig& cfg, sim::Time at, int shard) {
  fault::Injection inj;
  inj.target = fault::Target::kElShard;
  inj.index = shard;
  inj.at = at;
  cfg.campaign.injections.push_back(inj);
}

TEST(RecoveryEdge, ElShardLossThenRankCrashRecoversExactly) {
  // Shard 0 (even ranks) dies; shard 1 mounts its log and absorbs its
  // ranks. A re-homed rank then crashes: its replay set must reassemble
  // from the successor's mounted log + survivors, bit for bit.
  ClusterConfig cfg = causal_cfg(6);
  cfg.el_shards = 2;
  const RunOutput ref = run_ring(cfg);
  ASSERT_TRUE(ref.report.completed);

  ClusterConfig c2 = cfg;
  crash_el(c2, ref.report.completion_time / 4, 0);
  c2.campaign.el_failover_delay = 10 * sim::kMillisecond;
  crash_at(c2, ref.report.completion_time / 2, 2);
  RunOutput out = run_ring(c2);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.fault_counts.el_crashes, 1u);
  EXPECT_EQ(out.report.fault_counts.el_failovers, 1u);
  EXPECT_EQ(out.report.faults_injected, 1u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
  // The recovery has a complete per-phase timeline.
  ASSERT_EQ(out.report.recoveries.size(), 1u);
  EXPECT_TRUE(out.report.recoveries[0].complete());
}

TEST(RecoveryEdge, RankCrashDuringElOutageWindowStillRecovers) {
  // The rank dies while its home shard is down and before failover
  // completes: the recovery fetch retransmits until the successor serves
  // the mounted log.
  ClusterConfig cfg = causal_cfg(6);
  cfg.el_shards = 2;
  const RunOutput ref = run_ring(cfg);
  ASSERT_TRUE(ref.report.completed);

  ClusterConfig c2 = cfg;
  const sim::Time t = ref.report.completion_time / 2;
  crash_el(c2, t - sim::kMillisecond, 0);
  // Failover completes only after the rank's recovery already started
  // (detection takes 250 ms, the first fetch fires into the dead shard).
  c2.campaign.el_failover_delay = 300 * sim::kMillisecond;
  c2.campaign.service_retry = 60 * sim::kMillisecond;
  crash_at(c2, t, 0);
  RunOutput out = run_ring(c2);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.fault_counts.el_failovers, 1u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
}

TEST(RecoveryEdge, ElShardLossFailsOverToStandby) {
  ClusterConfig cfg = causal_cfg(6);
  cfg.el_shards = 2;
  cfg.el_standby = 1;
  const RunOutput ref = run_ring(cfg);
  ASSERT_TRUE(ref.report.completed);

  ClusterConfig c2 = cfg;
  crash_el(c2, ref.report.completion_time / 4, 1);
  c2.campaign.el_failover = fault::ElFailover::kStandby;
  c2.campaign.el_failover_delay = 10 * sim::kMillisecond;
  crash_at(c2, ref.report.completion_time / 2, 1);
  RunOutput out = run_ring(c2);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.fault_counts.el_failovers, 1u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
}

TEST(RecoveryEdge, ShardCrashDuringPeerOutageWaitsForTheOutageToEnd) {
  // Shard 0 crashes while shard 1 — the only failover target — is in a
  // transient outage. The engine must retry the failover until shard 1 is
  // back (its log was never lost) instead of abandoning shard 0's ranks to
  // the permanent no-EL regime.
  ClusterConfig cfg = causal_cfg(6);
  cfg.el_shards = 2;
  const RunOutput ref = run_ring(cfg);
  ASSERT_TRUE(ref.report.completed);
  const sim::Time t = ref.report.completion_time;

  ClusterConfig c2 = cfg;
  {
    fault::Injection outage;
    outage.target = fault::Target::kElShard;
    outage.index = 1;
    outage.at = t / 5;
    outage.action = fault::Action::kOutage;
    outage.duration = 40 * sim::kMillisecond;
    c2.campaign.injections.push_back(outage);
  }
  crash_el(c2, t / 5 + sim::kMillisecond, 0);  // inside shard 1's outage
  c2.campaign.el_failover_delay = 5 * sim::kMillisecond;
  crash_at(c2, t / 5 + 60 * sim::kMillisecond, 2);
  RunOutput out = run_ring(c2);
  ASSERT_TRUE(out.report.completed);
  // The failover eventually landed (no abandonment) and recovery is exact.
  EXPECT_EQ(out.report.fault_counts.el_failovers, 1u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
}

TEST(RecoveryEdge, CascadingShardCrashesExhaustAndAbandonTheEl) {
  // Both shards die. The second crash finds no successor: its ranks run in
  // the no-EL regime from then on — the run must still complete and, with
  // no later rank faults, stay exact.
  ClusterConfig cfg = causal_cfg(6);
  cfg.el_shards = 2;
  const RunOutput ref = run_ring(cfg);
  ASSERT_TRUE(ref.report.completed);

  ClusterConfig c2 = cfg;
  crash_el(c2, ref.report.completion_time / 5, 0);
  crash_el(c2, ref.report.completion_time / 2, 1);
  c2.campaign.el_failover_delay = 10 * sim::kMillisecond;
  RunOutput out = run_ring(c2);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.fault_counts.el_crashes, 2u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
}

TEST(RecoveryEdge, DaemonCrashDuringElFailoverStillRecovers) {
  // Shard 0 dies; while the successor is still mounting its log, the
  // daemon of a re-homed rank dies too. The rank's EL traffic backs up in
  // the dead daemon, drains into the successor after the respawn, and a
  // later crash of that same rank must replay exactly from the mounted log.
  ClusterConfig cfg = causal_cfg(6);
  cfg.el_shards = 2;
  const RunOutput ref = run_ring(cfg);
  ASSERT_TRUE(ref.report.completed);
  const sim::Time t = ref.report.completion_time;

  ClusterConfig c2 = cfg;
  crash_el(c2, t / 4, 0);
  c2.campaign.el_failover_delay = 20 * sim::kMillisecond;
  c2.campaign.service_retry = 60 * sim::kMillisecond;
  {
    fault::Injection dmn;  // rank 2 is served by shard 0 (round-robin)
    dmn.target = fault::Target::kDaemon;
    dmn.index = 2;
    dmn.at = t / 4 + 5 * sim::kMillisecond;  // inside the failover window
    dmn.duration = 30 * sim::kMillisecond;
    c2.campaign.injections.push_back(dmn);
  }
  crash_at(c2, t / 2, 2);
  RunOutput out = run_ring(c2);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.fault_counts.el_failovers, 1u);
  EXPECT_EQ(out.report.fault_counts.daemon_crashes, 1u);
  EXPECT_EQ(out.report.faults_injected, 1u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
  ASSERT_EQ(out.report.daemon_outages.size(), 1u);
  EXPECT_TRUE(out.report.daemon_outages[0].complete());
}

TEST(RecoveryEdge, RankCrashWhileItsDaemonIsDownSupersedesTheOutage) {
  // The rank dies mid-daemon-outage: the node-level restart replaces the
  // daemon respawn (the pending respawn must not resurrect stale frames),
  // and the recovery itself must still be exact.
  ClusterConfig cfg = causal_cfg(6);
  const RunOutput ref = run_ring(cfg);
  ASSERT_TRUE(ref.report.completed);
  const sim::Time t = ref.report.completion_time;

  ClusterConfig c2 = cfg;
  {
    fault::Injection dmn;
    dmn.target = fault::Target::kDaemon;
    dmn.index = 3;
    dmn.at = t / 2 - 5 * sim::kMillisecond;
    dmn.duration = 40 * sim::kMillisecond;  // outage spans the rank crash
    c2.campaign.injections.push_back(dmn);
  }
  crash_at(c2, t / 2, 3);
  RunOutput out = run_ring(c2);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.fault_counts.daemon_crashes, 1u);
  EXPECT_EQ(out.report.faults_injected, 1u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
  // The outage record stays open-ended — the node restart superseded it.
  ASSERT_EQ(out.report.daemon_outages.size(), 1u);
  EXPECT_FALSE(out.report.daemon_outages[0].complete());
}

TEST(RecoveryEdge, DaemonFaultAfterSupersedingRankCrashStillFires) {
  // Daemon of rank 3 dies; the rank itself crashes moments later, which
  // restarts the node (daemon included) and ends the outage early. A
  // second daemon fault inside the ORIGINAL respawn window must still
  // fire — the engine must consult the live daemon state, not a latch
  // pinned until the first (now superseded) respawn timer.
  ClusterConfig cfg = causal_cfg(6);
  const RunOutput ref = run_ring(cfg);
  ASSERT_TRUE(ref.report.completed);
  const sim::Time t = ref.report.completion_time;

  ClusterConfig c2 = cfg;
  auto daemon_at = [&c2](sim::Time at, sim::Time downtime) {
    fault::Injection dmn;
    dmn.target = fault::Target::kDaemon;
    dmn.index = 3;
    dmn.at = at;
    dmn.duration = downtime;
    c2.campaign.injections.push_back(dmn);
  };
  daemon_at(t / 2 - 2 * sim::kMillisecond, 60 * sim::kMillisecond);
  crash_at(c2, t / 2, 3);  // supersedes outage 1
  daemon_at(t / 2 + 10 * sim::kMillisecond, 20 * sim::kMillisecond);
  RunOutput out = run_ring(c2);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.fault_counts.daemon_crashes, 2u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
  // Outage 1 stays open-ended (superseded); outage 2 completes on its own
  // respawn timer.
  ASSERT_EQ(out.report.daemon_outages.size(), 2u);
  EXPECT_FALSE(out.report.daemon_outages[0].complete());
  EXPECT_TRUE(out.report.daemon_outages[1].complete());
}

TEST(RecoveryEdge, PartitionAcrossARecoveryHealsInOrder) {
  // A partition cuts the recovering rank off from half the survivors right
  // around the crash: determinant collection and payload resends stall
  // until the heal, then the held frames arrive in their original order and
  // the replay must still be exact.
  ClusterConfig cfg = causal_cfg(6);
  const RunOutput ref = run_ring(cfg);
  ASSERT_TRUE(ref.report.completed);
  const sim::Time t = ref.report.completion_time;

  ClusterConfig c2 = cfg;
  {
    fault::Injection part;
    part.target = fault::Target::kFabric;
    part.action = fault::Action::kPartition;
    part.at = t / 2 + sim::kMillisecond;  // opens while detection runs
    part.duration = 400 * sim::kMillisecond;  // outlives detect (250 ms)
    part.magnitude = 2 * sim::kMillisecond;
    part.group_a = {1};
    part.group_b = {4, 5};
    c2.campaign.injections.push_back(part);
  }
  crash_at(c2, t / 2, 1);
  RunOutput out = run_ring(c2);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.fault_counts.partitions, 1u);
  EXPECT_EQ(out.report.faults_injected, 1u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
  ASSERT_EQ(out.report.recoveries.size(), 1u);
  EXPECT_TRUE(out.report.recoveries[0].complete());
}

/// Injects a service-side partition: `services_a` (EL shard ids) cut away
/// from ranks `group_b` for `duration`.
void cut_services(ClusterConfig& cfg, sim::Time at, std::vector<int> services_a,
                  std::vector<int> group_b, sim::Time duration) {
  fault::Injection inj;
  inj.target = fault::Target::kFabric;
  inj.action = fault::Action::kPartition;
  inj.at = at;
  inj.duration = duration;
  inj.magnitude = 2 * sim::kMillisecond;
  inj.services_a = std::move(services_a);
  inj.group_b = std::move(group_b);
  cfg.campaign.injections.push_back(inj);
}

TEST(RecoveryEdge, SplitBrainReconcilesToOneLogAndReplaysExactly) {
  // Shard 0 is cut away from ranks 2 and 4 but NOT from rank 0: it stays
  // live, still storing rank 0's determinants, while suspicion re-homes
  // the cut clients onto shard 1 with an epoch bump — both shards accept
  // submissions until the heal. Records shard 0 stored whose acks the cut
  // parked are resubmitted to shard 1 (el_ack_build is raised so some are
  // always in that window), so the heal-time merge must drop real
  // (creator, seq) duplicates. A post-heal crash of a re-homed rank then
  // proves the merged log replays the reference bit for bit.
  ClusterConfig cfg = causal_cfg(6);
  cfg.el_shards = 2;
  cfg.cost.el_ack_build = 500 * sim::kMicrosecond;
  const RunOutput ref = run_ring(cfg, 80);
  ASSERT_TRUE(ref.report.completed);
  const sim::Time t = ref.report.completion_time;

  ClusterConfig c2 = cfg;
  cut_services(c2, t / 4, {0}, {2, 4}, 60 * sim::kMillisecond);
  c2.campaign.detection_delay = 10 * sim::kMillisecond;
  c2.campaign.service_retry = 10 * sim::kMillisecond;
  crash_at(c2, t / 4 + 100 * sim::kMillisecond, 2);
  RunOutput out = run_ring(c2, 80);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.fault_counts.partitions, 1u);
  EXPECT_EQ(out.report.fault_counts.el_suspects, 1u);
  EXPECT_EQ(out.report.fault_counts.el_failovers, 1u);
  EXPECT_EQ(out.report.fault_counts.el_reconciles, 1u);
  ASSERT_EQ(out.report.el_reconciles.size(), 1u);
  const fault::ElReconcileRecord& rec = out.report.el_reconciles[0];
  EXPECT_TRUE(rec.complete());
  EXPECT_EQ(rec.stale_shard, 0);
  EXPECT_EQ(rec.successor, 1);
  EXPECT_EQ(rec.moved_ranks, 2);
  EXPECT_EQ(rec.detect_ns(), 10 * sim::kMillisecond);
  // The dual-log window produced real duplicates, the merge dropped them,
  // and the first one is localized to a moved rank.
  EXPECT_GE(rec.dup_dropped, 1u);
  EXPECT_TRUE(rec.first_dup_rank == 2 || rec.first_dup_rank == 4);
  const std::uint64_t dup_total =
      out.report.rank_stats[2].el_dup_submissions +
      out.report.rank_stats[4].el_dup_submissions;
  EXPECT_GE(dup_total, rec.dup_dropped);
  // Ranks outside the cut never hit the dedup or fence paths.
  for (const int r : {0, 1, 3, 5}) {
    EXPECT_EQ(out.report.rank_stats[static_cast<std::size_t>(r)]
                  .el_dup_submissions,
              0u)
        << "rank " << r;
    EXPECT_EQ(out.report.rank_stats[static_cast<std::size_t>(r)]
                  .stale_acks_fenced,
              0u)
        << "rank " << r;
  }
  // The replay from the merged log is exact.
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
  ASSERT_EQ(out.report.recoveries.size(), 1u);
  EXPECT_TRUE(out.report.recoveries[0].complete());
}

TEST(RecoveryEdge, RehomeWhileSuccessorPartitionedRetriesIntoTheHeal) {
  // Shard 0 crashes while the only successor (shard 1) is itself cut away
  // from shard 0's clients. The failover must not mount the log onto an
  // unreachable successor: it retries until the cut heals, then mounts,
  // and a later crash of a re-homed rank still replays exactly.
  ClusterConfig cfg = causal_cfg(6);
  cfg.el_shards = 2;
  const RunOutput ref = run_ring(cfg, 80);
  ASSERT_TRUE(ref.report.completed);
  const sim::Time t = ref.report.completion_time;

  ClusterConfig c2 = cfg;
  // Shard 1 unreachable from the even ranks (shard 0's clientele); shard
  // 1's own clients are untouched, so no suspicion fires for the cut
  // itself — it is pure environment for the crash failover under test.
  cut_services(c2, t / 4 - 2 * sim::kMillisecond, {1}, {0, 2, 4},
               40 * sim::kMillisecond);
  crash_el(c2, t / 4, 0);
  c2.campaign.el_failover_delay = 5 * sim::kMillisecond;
  c2.campaign.service_retry = 10 * sim::kMillisecond;
  crash_at(c2, t / 4 + 80 * sim::kMillisecond, 2);
  RunOutput out = run_ring(c2, 80);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.fault_counts.el_crashes, 1u);
  // Exactly one failover — the retries did not double-mount — and no
  // split-brain machinery engaged (the dead shard cannot stay live).
  EXPECT_EQ(out.report.fault_counts.el_failovers, 1u);
  EXPECT_EQ(out.report.fault_counts.el_suspects, 0u);
  EXPECT_TRUE(out.report.el_reconciles.empty());
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
  ASSERT_EQ(out.report.recoveries.size(), 1u);
  EXPECT_TRUE(out.report.recoveries[0].complete());
}

TEST(RecoveryEdge, FaultStormSurvivesOverlappingInjections) {
  // Chaos: an EL shard dies, a link degrades, the checkpoint server blips,
  // and two ranks crash close together — all overlapping. Results must
  // still match the quiet run.
  ClusterConfig cfg = causal_cfg(6);
  cfg.el_shards = 2;
  const RunOutput ref = run_ring(cfg, 70);
  ASSERT_TRUE(ref.report.completed);
  const sim::Time t = ref.report.completion_time;

  ClusterConfig c2 = cfg;
  crash_el(c2, t / 5, 1);
  c2.campaign.el_failover_delay = 15 * sim::kMillisecond;
  c2.campaign.service_retry = 80 * sim::kMillisecond;
  {
    fault::Injection link;
    link.target = fault::Target::kLink;
    link.index = 4;
    link.at = t / 4;
    link.action = fault::Action::kDropWindow;
    link.duration = 10 * sim::kMillisecond;
    link.magnitude = 2 * sim::kMillisecond;
    c2.campaign.injections.push_back(link);
    fault::Injection cs;
    cs.target = fault::Target::kCkptServer;
    cs.at = t / 3;
    cs.action = fault::Action::kOutage;
    cs.duration = 50 * sim::kMillisecond;
    c2.campaign.injections.push_back(cs);
  }
  crash_at(c2, t / 2, 3);
  crash_at(c2, t / 2 + 2 * sim::kMillisecond, 0);
  RunOutput out = run_ring(c2, 70);
  ASSERT_TRUE(out.report.completed);
  EXPECT_EQ(out.report.faults_injected, 2u);
  EXPECT_EQ(out.report.fault_counts.el_crashes, 1u);
  EXPECT_EQ(out.report.fault_counts.ckpt_outages, 1u);
  EXPECT_EQ(out.report.fault_counts.link_faults, 1u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums);
  // Every recovery carries a timeline record.
  EXPECT_EQ(out.report.recoveries.size(), 2u);
}

}  // namespace
}  // namespace mpiv
