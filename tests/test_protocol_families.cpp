// End-to-end tests for the non-logging recovery-protocol families: the
// replication hybrid (hot shadow, crash-transparent promotion) and
// ULFM-style shrink-and-repair (survivors revoke, rebuild and continue
// without the victim). Both plug in through the scenario registry, so the
// tests drive them exactly the way mpiv_run does.
#include <gtest/gtest.h>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace mpiv {
namespace {

using scenario::Outcome;
using scenario::ScenarioBuilder;

// ---------------------------------------------------------------------------
// Replica hybrid
// ---------------------------------------------------------------------------

TEST(Replica, CrashIsTransparent) {
  ScenarioBuilder b("replica_crash");
  b.set("variant", "replica")
      .set("nranks", "4")
      .set("workload.laps", "40")
      .set("workload.bytes", "1024")
      .set("detection_delay", "2ms")
      .set("faults.crash_rank", "30ms:1")
      .set("compare_reference", "true");
  const scenario::RunResult r = scenario::run_spec(b.build());

  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.report.faults_injected, 1u);
  // The defining property: no rollback and no replay — the shadow already
  // holds the state, so the recovery timeline has no restart records and
  // nothing was ever replayed.
  EXPECT_TRUE(r.report.recoveries.empty());
  EXPECT_EQ(r.report.totals().replayed_receptions, 0u);
  ASSERT_EQ(r.report.promotions.size(), 1u);
  EXPECT_EQ(r.report.promotions[0].rank, 1);
  EXPECT_TRUE(r.report.promotions[0].complete());
  // Nothing was lost, so the run reproduces the fault-free reference.
  EXPECT_TRUE(r.recovered_exact);
  EXPECT_EQ(r.outcome(), Outcome::kRecoveredExact);
}

TEST(Replica, SteadyStateIsPriced) {
  ScenarioBuilder b("replica_price");
  b.set("variant", "replica")
      .set("nranks", "4")
      .set("replica.sync_interval", "4")
      .set("workload.laps", "40")
      .set("workload.bytes", "2048");
  const scenario::RunResult r = scenario::run_spec(b.build());

  ASSERT_TRUE(r.completed);
  const ftapi::RankStats t = r.report.totals();
  // The visible slice of the 2x compute: every send mirrors its payload.
  EXPECT_GT(t.replica_mirror_cpu, 0);
  // Shadow-sync frames are real fabric traffic, one per sync_interval sends.
  EXPECT_GT(t.replica_sync_msgs, 0u);
  EXPECT_GT(t.replica_sync_bytes, 0u);
  EXPECT_GE(t.app_msgs_sent / 4, t.replica_sync_msgs);
}

TEST(Replica, PromotionsOfDistinctRanksOverlap) {
  // Two crashes inside one detection window: promotions do not serialize
  // (there is no shared recovery resource to contend for).
  ScenarioBuilder b("replica_two");
  b.set("variant", "replica")
      .set("nranks", "4")
      .set("workload.laps", "40")
      .set("workload.bytes", "1024")
      .set("detection_delay", "5ms")
      .set("faults.crash_rank", "30ms:1")
      .set("faults.crash_rank", "31ms:2");
  const scenario::RunResult r = scenario::run_spec(b.build());

  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.report.faults_injected, 2u);
  EXPECT_TRUE(r.report.recoveries.empty());
  ASSERT_EQ(r.report.promotions.size(), 2u);
  EXPECT_TRUE(r.report.promotions[0].complete());
  EXPECT_TRUE(r.report.promotions[1].complete());
}

// ---------------------------------------------------------------------------
// ULFM shrink-and-repair
// ---------------------------------------------------------------------------

TEST(Ulfm, ShrinkAndRepairContinuesWithSurvivors) {
  ScenarioBuilder b("ulfm_crash");
  b.set("variant", "ulfm")
      .set("nranks", "4")
      .set("workload.laps", "40")
      .set("workload.bytes", "1024")
      .set("detection_delay", "2ms")
      .set("ulfm.repair_cost", "5ms")
      .set("faults.crash_rank", "30ms:1")
      .set("compare_reference", "true");
  const scenario::RunResult r = scenario::run_spec(b.build());

  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.report.faults_injected, 1u);
  // No restart/replay machinery: the victim stays dead.
  EXPECT_TRUE(r.report.recoveries.empty());
  ASSERT_EQ(r.report.repairs.size(), 1u);
  const fault::RepairRecord& rec = r.report.repairs[0];
  EXPECT_EQ(rec.victim, 1);
  EXPECT_EQ(rec.survivors, 3);
  EXPECT_TRUE(rec.complete());
  EXPECT_GT(rec.repair_ns(), 0);
  // Each of the three survivors saw the revoke and rebuilt once.
  const ftapi::RankStats t = r.report.totals();
  EXPECT_EQ(t.ulfm_revokes_seen, 3u);
  EXPECT_EQ(t.ulfm_repairs, 3u);
  // A shrunk run cannot match the nranks-wide reference — it classifies as
  // completed_shrunk, strictly better than a bare completion.
  EXPECT_FALSE(r.recovered_exact);
  EXPECT_EQ(r.outcome(), Outcome::kCompletedShrunk);
}

TEST(Ulfm, SecondCrashShrinksAgain) {
  ScenarioBuilder b("ulfm_twice");
  b.set("variant", "ulfm")
      .set("nranks", "4")
      .set("workload.laps", "60")
      .set("workload.bytes", "1024")
      .set("detection_delay", "2ms")
      .set("ulfm.repair_cost", "5ms")
      .set("faults.crash_rank", "20ms:3")
      .set("faults.crash_rank", "60ms:1");
  const scenario::RunResult r = scenario::run_spec(b.build());

  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.report.repairs.size(), 2u);
  EXPECT_EQ(r.report.repairs[0].victim, 3);
  EXPECT_EQ(r.report.repairs[0].survivors, 3);
  EXPECT_EQ(r.report.repairs[1].victim, 1);
  EXPECT_EQ(r.report.repairs[1].survivors, 2);
  EXPECT_TRUE(r.report.repairs[0].complete());
  EXPECT_TRUE(r.report.repairs[1].complete());
  EXPECT_EQ(r.outcome(), Outcome::kCompletedShrunk);
}

TEST(Ulfm, SoleSurvivorStillFinishes) {
  // Shrinking a 2-rank job leaves one survivor; the ring degenerates to
  // its compute phase and the run still completes (shrunk).
  ScenarioBuilder b("ulfm_sole");
  b.set("variant", "ulfm")
      .set("nranks", "2")
      .set("workload.laps", "30")
      .set("workload.bytes", "1024")
      .set("detection_delay", "2ms")
      .set("ulfm.repair_cost", "5ms")
      .set("faults.crash_rank", "10ms:0");
  const scenario::RunResult r = scenario::run_spec(b.build());

  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.report.repairs.size(), 1u);
  EXPECT_EQ(r.report.repairs[0].survivors, 1);
  EXPECT_TRUE(r.report.repairs[0].complete());
  EXPECT_EQ(r.outcome(), Outcome::kCompletedShrunk);
}

TEST(Ulfm, AllDeadIsAbandonment) {
  // The second crash lands inside the first repair window and kills the
  // last survivor: nobody is left to rebuild with, so the run can only be
  // abandoned — it must NOT report completion off a done-set full of
  // corpses.
  ScenarioBuilder b("ulfm_wipeout");
  b.set("variant", "ulfm")
      .set("nranks", "2")
      .set("workload.laps", "30")
      .set("workload.bytes", "1024")
      .set("detection_delay", "2ms")
      .set("ulfm.repair_cost", "10ms")
      .set("faults.crash_rank", "10ms:0")
      .set("faults.crash_rank", "15ms:1");
  const scenario::RunResult r = scenario::run_spec(b.build());

  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.outcome(), Outcome::kAbandoned);
  ASSERT_EQ(r.report.repairs.size(), 2u);
  EXPECT_EQ(r.report.repairs[1].survivors, 0);
}

}  // namespace
}  // namespace mpiv
