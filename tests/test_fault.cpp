// Fault-injection engine tests: campaign parsing and round-trips, trigger
// semantics (timed / event-triggered / stochastic), recovery-timeline phase
// accounting, link perturbations, service outages with client retransmits,
// and the validation satellites (duplicate faults, t <= 0, midrun_frac).
#include <gtest/gtest.h>

#include "runtime/cluster.hpp"
#include "scenario/runner.hpp"
#include "workloads/apps.hpp"

namespace mpiv {
namespace {

using fault::Action;
using fault::Injection;
using fault::Target;
using fault::Trigger;
using scenario::ScenarioBuilder;
using scenario::ScenarioSpec;
using scenario::SpecError;

/// Baseline spec every engine test perturbs: causal logging with an EL,
/// wildcard traffic (so replay correctness is order-sensitive), periodic
/// checkpoints feeding the GC paths.
ScenarioBuilder base(const char* name, int nranks = 6, int shards = 1) {
  ScenarioBuilder b(name);
  b.variant("vcausal:el")
      .nranks(nranks)
      .seed(9)
      .checkpoint(ckpt::Policy::kRoundRobin, 25 * sim::kMillisecond)
      .random_then_ring(/*rand_iters=*/10, /*ring_laps=*/10, /*wseed=*/5,
                        /*bytes=*/2048);
  if (shards > 1) b.el_shards(shards);
  return b;
}

/// Ring-only twin: the ring's matching is source-pinned, so its checksums
/// are invariant under ANY timing perturbation — the right baseline for
/// link faults and service outages, whose different-but-valid wildcard
/// interleavings would legitimately change random_then_ring results.
ScenarioBuilder ring_base(const char* name, int nranks = 6, int shards = 1,
                          int laps = 50) {
  ScenarioBuilder b(name);
  b.variant("vcausal:el")
      .nranks(nranks)
      .seed(9)
      .checkpoint(ckpt::Policy::kRoundRobin, 25 * sim::kMillisecond)
      .ring(laps, 2048);
  if (shards > 1) b.el_shards(shards);
  return b;
}

// ---------------------------------------------------------------------------
// Campaign model: scenario-file syntax, round-trip, builder conveniences.
// ---------------------------------------------------------------------------

TEST(FaultCampaign, FaultsSectionParses) {
  const char* text =
      "[scenario]\n"
      "variant = vcausal:el\n"
      "nranks = 8\n"
      "el_shards = 2\n"
      "el_standby = 1\n"
      "[faults]\n"
      "crash_rank = 120ms:3\n"
      "crash_rank = ckpt@5:1\n"
      "crash_el = 60ms:0\n"
      "crash_el = stored@2000:1\n"
      "el_outage = 10ms:1:25ms\n"
      "ckpt_outage = 40ms:30ms\n"
      "link_latency = 5ms:2:1ms:20ms\n"
      "link_drop = 7ms:4:8ms:2ms\n"
      "rank_rate = 0.5\n"
      "el_failover = standby\n"
      "el_failover_delay = 12ms\n"
      "service_retry = 300ms\n"
      "seed_salt = 77\n";
  const ScenarioSpec spec = scenario::parse_scenario_text(text);
  const fault::Campaign& c = spec.faults.campaign;
  ASSERT_EQ(c.injections.size(), 9u);

  EXPECT_EQ(c.injections[0].target, Target::kRank);
  EXPECT_EQ(c.injections[0].trigger, Trigger::kAt);
  EXPECT_EQ(c.injections[0].at, 120 * sim::kMillisecond);
  EXPECT_EQ(c.injections[0].index, 3);

  EXPECT_EQ(c.injections[1].trigger, Trigger::kOnCheckpoint);
  EXPECT_EQ(c.injections[1].nth, 5u);
  EXPECT_EQ(c.injections[1].index, 1);

  EXPECT_EQ(c.injections[2].target, Target::kElShard);
  EXPECT_EQ(c.injections[2].action, Action::kCrash);

  EXPECT_EQ(c.injections[3].trigger, Trigger::kOnElStored);
  EXPECT_EQ(c.injections[3].nth, 2000u);

  EXPECT_EQ(c.injections[4].action, Action::kOutage);
  EXPECT_EQ(c.injections[4].duration, 25 * sim::kMillisecond);

  EXPECT_EQ(c.injections[5].target, Target::kCkptServer);
  EXPECT_EQ(c.injections[6].action, Action::kLatencySpike);
  EXPECT_EQ(c.injections[6].magnitude, sim::kMillisecond);
  EXPECT_EQ(c.injections[7].action, Action::kDropWindow);
  EXPECT_EQ(c.injections[7].magnitude, 2 * sim::kMillisecond);
  EXPECT_EQ(c.injections[8].trigger, Trigger::kRate);
  EXPECT_DOUBLE_EQ(c.injections[8].rate_per_minute, 0.5);

  EXPECT_EQ(c.el_failover, fault::ElFailover::kStandby);
  EXPECT_EQ(c.el_failover_delay, 12 * sim::kMillisecond);
  EXPECT_EQ(c.service_retry, 300 * sim::kMillisecond);
  EXPECT_EQ(c.seed_salt, 77u);
  EXPECT_EQ(spec.el_standby, 1);
}

TEST(FaultCampaign, DaemonAndPartitionKeysParse) {
  const char* text =
      "[scenario]\n"
      "variant = vcausal:el\n"
      "nranks = 8\n"
      "[faults]\n"
      "crash_daemon = 50ms:2\n"
      "crash_daemon = 80ms:5:15ms\n"
      "daemon_rate = 1.5\n"
      "daemon_restart_delay = 35ms\n"
      "partition = 10ms:0-2+6|3-5:25ms:3ms\n"
      "partition = 40ms:0|1:5ms\n";
  const ScenarioSpec spec = scenario::parse_scenario_text(text);
  const fault::Campaign& c = spec.faults.campaign;
  ASSERT_EQ(c.injections.size(), 5u);

  EXPECT_EQ(c.injections[0].target, Target::kDaemon);
  EXPECT_EQ(c.injections[0].at, 50 * sim::kMillisecond);
  EXPECT_EQ(c.injections[0].index, 2);
  EXPECT_EQ(c.injections[0].duration, 0);  // campaign default downtime

  EXPECT_EQ(c.injections[1].index, 5);
  EXPECT_EQ(c.injections[1].duration, 15 * sim::kMillisecond);

  EXPECT_EQ(c.injections[2].target, Target::kDaemon);
  EXPECT_EQ(c.injections[2].trigger, Trigger::kRate);
  EXPECT_DOUBLE_EQ(c.injections[2].rate_per_minute, 1.5);
  EXPECT_EQ(c.injections[2].index, -1);

  EXPECT_EQ(c.injections[3].target, Target::kFabric);
  EXPECT_EQ(c.injections[3].action, Action::kPartition);
  EXPECT_EQ(c.injections[3].group_a, (std::vector<int>{0, 1, 2, 6}));
  EXPECT_EQ(c.injections[3].group_b, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(c.injections[3].duration, 25 * sim::kMillisecond);
  EXPECT_EQ(c.injections[3].magnitude, 3 * sim::kMillisecond);

  EXPECT_EQ(c.injections[4].magnitude, 2 * sim::kMillisecond);  // default

  EXPECT_EQ(c.daemon_restart_delay, 35 * sim::kMillisecond);
}

TEST(FaultCampaign, ServicePartitionKeysParse) {
  const char* text =
      "[scenario]\n"
      "variant = vcausal:el\n"
      "nranks = 6\n"
      "el_shards = 2\n"
      "[faults]\n"
      "partition_services = 30ms:el0|2+4:80ms:3ms\n"
      "partition_services = 50ms:ckpt+el1|0-2:10ms\n"
      "detection_delay = 5ms\n";
  const ScenarioSpec spec = scenario::parse_scenario_text(text);
  const fault::Campaign& c = spec.faults.campaign;
  ASSERT_EQ(c.injections.size(), 2u);

  EXPECT_EQ(c.injections[0].target, Target::kFabric);
  EXPECT_EQ(c.injections[0].action, Action::kPartition);
  EXPECT_EQ(c.injections[0].at, 30 * sim::kMillisecond);
  EXPECT_TRUE(c.injections[0].group_a.empty());
  EXPECT_EQ(c.injections[0].services_a, (std::vector<int>{0}));
  EXPECT_EQ(c.injections[0].group_b, (std::vector<int>{2, 4}));
  EXPECT_TRUE(c.injections[0].services_b.empty());
  EXPECT_EQ(c.injections[0].duration, 80 * sim::kMillisecond);
  EXPECT_EQ(c.injections[0].magnitude, 3 * sim::kMillisecond);
  EXPECT_TRUE(c.injections[0].cuts_services());

  EXPECT_EQ(c.injections[1].services_a,
            (std::vector<int>{fault::kCkptService, 1}));
  EXPECT_EQ(c.injections[1].group_b, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(c.injections[1].magnitude, 2 * sim::kMillisecond);  // default

  EXPECT_EQ(c.detection_delay, 5 * sim::kMillisecond);

  // A service partition without a service token belongs to faults.partition.
  ScenarioSpec s2;
  EXPECT_THROW(
      scenario::apply_key(s2, "faults.partition_services", "1ms:0|1:5ms"),
      SpecError);
  // The suspicion window must be positive (-1 = inherit is the default, not
  // a scenario-file value).
  EXPECT_THROW(scenario::apply_key(s2, "faults.detection_delay", "0ms"),
               SpecError);
}

TEST(FaultCampaign, BuilderRoundTripsThroughScenarioText) {
  const ScenarioSpec spec =
      base("roundtrip", 8, 2)
          .el_standby(1)
          .crash_el_at(60 * sim::kMillisecond, 0)
          .crash_el_on_stored(1, 500)
          .crash_rank_on_ckpt(3, 2)
          .el_outage(5 * sim::kMillisecond, 1, 9 * sim::kMillisecond)
          .ckpt_outage(11 * sim::kMillisecond, 13 * sim::kMillisecond)
          .link_latency(2 * sim::kMillisecond, 4, 500 * sim::kMicrosecond,
                        6 * sim::kMillisecond)
          .link_drop(3 * sim::kMillisecond, 5, 4 * sim::kMillisecond)
          .crash_daemon_at(8 * sim::kMillisecond, 6)
          .crash_daemon_at(9 * sim::kMillisecond, 7, 3 * sim::kMillisecond)
          .daemon_rate(0.25)
          .daemon_restart_delay(21 * sim::kMillisecond)
          .partition(4 * sim::kMillisecond, {0, 1, 2}, {5, 6},
                     7 * sim::kMillisecond)
          .partition_services(6 * sim::kMillisecond, {}, {2, 4}, {0},
                              {fault::kCkptService}, 9 * sim::kMillisecond)
          .fault_detection_delay(11 * sim::kMillisecond)
          .el_failover(fault::ElFailover::kStandby, 17 * sim::kMillisecond)
          .build();
  const ScenarioSpec back =
      scenario::parse_scenario_text(scenario::to_scenario_text(spec));
  const fault::Campaign& a = spec.faults.campaign;
  const fault::Campaign& b = back.faults.campaign;
  ASSERT_EQ(a.injections.size(), b.injections.size());
  for (std::size_t i = 0; i < a.injections.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.injections[i].target, b.injections[i].target);
    EXPECT_EQ(a.injections[i].index, b.injections[i].index);
    EXPECT_EQ(a.injections[i].trigger, b.injections[i].trigger);
    EXPECT_EQ(a.injections[i].at, b.injections[i].at);
    EXPECT_EQ(a.injections[i].nth, b.injections[i].nth);
    EXPECT_EQ(a.injections[i].action, b.injections[i].action);
    EXPECT_EQ(a.injections[i].duration, b.injections[i].duration);
    EXPECT_EQ(a.injections[i].magnitude, b.injections[i].magnitude);
    EXPECT_EQ(a.injections[i].group_a, b.injections[i].group_a);
    EXPECT_EQ(a.injections[i].group_b, b.injections[i].group_b);
    EXPECT_EQ(a.injections[i].services_a, b.injections[i].services_a);
    EXPECT_EQ(a.injections[i].services_b, b.injections[i].services_b);
  }
  EXPECT_EQ(a.el_failover, b.el_failover);
  EXPECT_EQ(a.el_failover_delay, b.el_failover_delay);
  EXPECT_EQ(a.detection_delay, b.detection_delay);
  EXPECT_EQ(a.daemon_restart_delay, b.daemon_restart_delay);
  EXPECT_EQ(spec.el_standby, back.el_standby);
}

// ---------------------------------------------------------------------------
// Validation satellites.
// ---------------------------------------------------------------------------

TEST(FaultValidation, RejectsDuplicateFaults) {
  ScenarioBuilder b = base("dup");
  b.fault_at(100 * sim::kMillisecond, 2).fault_at(100 * sim::kMillisecond, 2);
  EXPECT_THROW(b.build(), SpecError);
  // Same rank at a different time stays legal (repeated-crash tests rely
  // on it).
  ScenarioBuilder ok = base("dup_ok");
  ok.fault_at(100 * sim::kMillisecond, 2).fault_at(200 * sim::kMillisecond, 2);
  EXPECT_NO_THROW(ok.build());
}

TEST(FaultValidation, RejectsNonPositiveFaultTime) {
  ScenarioBuilder b = base("t0");
  b.fault_at(0, 1);
  EXPECT_THROW(b.build(), SpecError);
}

TEST(FaultValidation, RejectsMidrunFracOutsideUnitInterval) {
  EXPECT_THROW(base("frac_hi").midrun_fault(1, 1.5).build(), SpecError);
  EXPECT_THROW(base("frac_lo").midrun_fault(1, 0.0).build(), SpecError);
  // A bad frac is rejected even without a midrun rank: it is a config typo
  // either way.
  EXPECT_THROW(base("frac_set").set("midrun_fault_frac", "2.0").build(),
               SpecError);
}

TEST(FaultValidation, RejectsCampaignAgainstMissingTargets) {
  // EL crash without an event logger.
  EXPECT_THROW(ScenarioBuilder("noel")
                   .variant("vcausal:noel")
                   .nranks(4)
                   .ring(10, 1024)
                   .crash_el_at(sim::kMillisecond, 0)
                   .build(),
               SpecError);
  // Shard index out of range.
  EXPECT_THROW(base("shard_oob", 6, 2).crash_el_at(sim::kMillisecond, 2).build(),
               SpecError);
  // Permanent crash of the only shard: no failover target.
  EXPECT_THROW(base("no_target").crash_el_at(sim::kMillisecond, 0).build(),
               SpecError);
  // ...but a transient outage of the only shard is fine.
  EXPECT_NO_THROW(
      base("outage_ok").el_outage(sim::kMillisecond, 0, sim::kMillisecond).build());
  // Link fault naming a non-rank.
  EXPECT_THROW(base("link_oob")
                   .link_latency(sim::kMillisecond, 6, sim::kMicrosecond,
                                 sim::kMillisecond)
                   .build(),
               SpecError);
  // Daemon fault naming a non-rank.
  EXPECT_THROW(base("daemon_oob").crash_daemon_at(sim::kMillisecond, 6).build(),
               SpecError);
  // Partition with a rank on both sides / out of range / an empty group.
  EXPECT_THROW(
      base("part_overlap")
          .partition(sim::kMillisecond, {0, 1}, {1, 2}, sim::kMillisecond)
          .build(),
      SpecError);
  EXPECT_THROW(
      base("part_oob")
          .partition(sim::kMillisecond, {0}, {9}, sim::kMillisecond)
          .build(),
      SpecError);
  EXPECT_THROW(base("part_empty")
                   .partition(sim::kMillisecond, {}, {1}, sim::kMillisecond)
                   .build(),
               SpecError);
}

TEST(FaultValidation, ServicePartitionTargetsAreValidated) {
  // Shard id out of range.
  EXPECT_THROW(base("svc_oob", 6, 2)
                   .partition_services(sim::kMillisecond, {}, {2, 4}, {2}, {},
                                       5 * sim::kMillisecond)
                   .build(),
               SpecError);
  // The same shard on both sides of the cut.
  EXPECT_THROW(base("svc_overlap", 6, 2)
                   .partition_services(sim::kMillisecond, {1}, {2}, {0}, {0},
                                       5 * sim::kMillisecond)
                   .build(),
               SpecError);
  // A shard reference without an event logger.
  EXPECT_THROW(ScenarioBuilder("svc_noel")
                   .variant("vcausal:noel")
                   .nranks(4)
                   .ring(10, 1024)
                   .partition_services(sim::kMillisecond, {}, {1, 2}, {0}, {},
                                       5 * sim::kMillisecond)
                   .build(),
               SpecError);
  // A services-only side is legal (the checkpoint server cut away from two
  // ranks), including standby shard ids above el_shards.
  EXPECT_NO_THROW(base("svc_ckpt")
                      .partition_services(sim::kMillisecond, {}, {1, 2},
                                          {fault::kCkptService}, {},
                                          5 * sim::kMillisecond)
                      .build());
  EXPECT_NO_THROW(base("svc_standby", 6, 2)
                      .el_standby(1)
                      .partition_services(sim::kMillisecond, {}, {2, 4}, {2},
                                          {}, 5 * sim::kMillisecond)
                      .build());
}

TEST(FaultValidation, SweptServicePartitionStripsOnlyItsOwnKind) {
  // faults.partition and faults.partition_services are both kFabric, but a
  // sweep axis on one must not strip the other: the rank-only cut survives
  // a swept service cut, and vice versa.
  ScenarioBuilder b = base("svc_sweep", 6, 2);
  b.partition(4 * sim::kMillisecond, {0, 1}, {3, 5}, 7 * sim::kMillisecond)
      .partition_services(6 * sim::kMillisecond, {}, {2, 4}, {0}, {},
                          9 * sim::kMillisecond)
      .sweep("faults.partition_services",
             {"10ms:el0|2+4:20ms", "30ms:el1|1+3:40ms"});
  const std::vector<scenario::RunPoint> points = scenario::expand(b.build());
  ASSERT_EQ(points.size(), 2u);
  for (const scenario::RunPoint& p : points) {
    int plain = 0, service = 0;
    for (const Injection& i : p.spec.faults.campaign.injections) {
      if (i.target != Target::kFabric) continue;
      i.cuts_services() ? ++service : ++plain;
    }
    EXPECT_EQ(plain, 1) << p.label;
    EXPECT_EQ(service, 1) << p.label;
  }
  EXPECT_EQ(points[0].spec.faults.campaign.injections.back().services_a,
            (std::vector<int>{0}));
  EXPECT_EQ(points[1].spec.faults.campaign.injections.back().services_a,
            (std::vector<int>{1}));
}

TEST(FaultValidation, LegacyClusterRejectsBadPlansToo) {
  runtime::ClusterConfig dup;
  dup.protocol = runtime::ProtocolKind::kCausal;
  dup.campaign.injections.push_back(fault::rank_crash_at(1000, 1));
  dup.campaign.injections.push_back(fault::rank_crash_at(1000, 1));
  EXPECT_DEATH(runtime::Cluster{dup}, "duplicate fault");

  runtime::ClusterConfig zero;
  zero.protocol = runtime::ProtocolKind::kCausal;
  zero.campaign.injections.push_back(fault::rank_crash_at(0, 1));
  EXPECT_DEATH(runtime::Cluster{zero}, "t <= 0");
}

TEST(FaultValidation, SeedSweepAxisExpands) {
  ScenarioBuilder b = base("seed_sweep");
  b.set("faults.rank_rate", "2.0").sweep("seed", {"1", "2", "3"});
  const std::vector<scenario::RunPoint> points = scenario::expand(b.build());
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].spec.seed, 1u);
  EXPECT_EQ(points[1].spec.seed, 2u);
  EXPECT_EQ(points[2].spec.seed, 3u);
  // The campaign rides along into every point.
  EXPECT_EQ(points[2].spec.faults.campaign.injections.size(), 1u);
}

TEST(FaultValidation, SweptInjectionKeyReplacesTheBaseLine) {
  // A base [faults] crash_el plus a faults.crash_el sweep axis: each point
  // must carry exactly ONE EL crash (the swept value), not base + sweep —
  // injection keys override under sweeps like every scalar axis. Unrelated
  // injections (the outage) survive.
  ScenarioBuilder b = base("sweep_replace", 6, 2);
  b.crash_el_at(5 * sim::kMillisecond, 0)
      .el_outage(40 * sim::kMillisecond, 1, sim::kMillisecond)
      .sweep("faults.crash_el", {"2ms:0", "8ms:1"});
  const std::vector<scenario::RunPoint> points = scenario::expand(b.build());
  ASSERT_EQ(points.size(), 2u);
  for (const scenario::RunPoint& p : points) {
    int crashes = 0, outages = 0;
    for (const Injection& i : p.spec.faults.campaign.injections) {
      if (i.target == Target::kElShard && i.action == Action::kCrash) ++crashes;
      if (i.target == Target::kElShard && i.action == Action::kOutage) ++outages;
    }
    EXPECT_EQ(crashes, 1) << p.label;
    EXPECT_EQ(outages, 1) << p.label;
  }
  EXPECT_EQ(points[0].spec.faults.campaign.injections.back().at,
            2 * sim::kMillisecond);
  EXPECT_EQ(points[1].spec.faults.campaign.injections.back().index, 1);
}

// ---------------------------------------------------------------------------
// Trigger semantics.
// ---------------------------------------------------------------------------

TEST(FaultTriggers, CheckpointTriggerKillsTheRank) {
  // A short cadence so the victim commits a checkpoint well before the run
  // ends; the ring workload keeps checksums timing-invariant.
  auto make = [](const char* name) {
    return ring_base(name, 6, 1, /*laps=*/80)
        .checkpoint(ckpt::Policy::kRoundRobin, 8 * sim::kMillisecond);
  };
  const scenario::RunResult ref = scenario::run_spec(make("ckpt_ref").build());
  ASSERT_TRUE(ref.completed);

  const scenario::RunResult r =
      scenario::run_spec(make("ckpt_trig").crash_rank_on_ckpt(1, 1).build());
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.report.faults_injected, 1u);
  EXPECT_EQ(r.report.fault_counts.rank_crashes, 1u);
  EXPECT_EQ(r.checksums, ref.checksums);
  // The victim's record exists and is complete.
  ASSERT_EQ(r.report.recoveries.size(), 1u);
  EXPECT_EQ(r.report.recoveries[0].rank, 1);
  EXPECT_TRUE(r.report.recoveries[0].complete());
  // The trigger fired only after the rank committed a checkpoint (its slot
  // in the round-robin cadence is the second tick).
  EXPECT_GT(r.report.recoveries[0].fault_at, 16 * sim::kMillisecond);
}

TEST(FaultTriggers, PlannedAndMidrunCrashesAreCounted) {
  // A builder fault_at() and a midrun crash reach the engine as campaign
  // timed crashes and count as rank crashes.
  const scenario::RunResult planned = scenario::run_spec(
      ring_base("planned").fault_at(20 * sim::kMillisecond, 2).build());
  ASSERT_TRUE(planned.completed);
  EXPECT_EQ(planned.report.faults_injected, 1u);
  EXPECT_EQ(planned.report.fault_counts.rank_crashes, 1u);

  const scenario::RunResult midrun =
      scenario::run_spec(ring_base("midrun").midrun_fault(3).build());
  ASSERT_TRUE(midrun.completed);
  EXPECT_TRUE(midrun.recovered_exact);
  EXPECT_EQ(midrun.report.faults_injected, 1u);
  EXPECT_EQ(midrun.report.fault_counts.rank_crashes, 1u);
}

TEST(FaultTriggers, StoredCountTriggerCrashesTheShard) {
  const scenario::RunResult ref =
      scenario::run_spec(ring_base("stored_ref", 6, 2).build());
  ASSERT_TRUE(ref.completed);

  const scenario::RunResult r = scenario::run_spec(
      ring_base("stored_trig", 6, 2).crash_el_on_stored(0, 40).build());
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.report.fault_counts.el_crashes, 1u);
  EXPECT_EQ(r.report.fault_counts.el_failovers, 1u);
  EXPECT_GT(r.report.first_el_fault, 0);
  EXPECT_EQ(r.checksums, ref.checksums);
}

// ---------------------------------------------------------------------------
// Recovery timeline accounting.
// ---------------------------------------------------------------------------

TEST(RecoveryTimeline, PhasesAreExhaustiveAndOrdered) {
  const scenario::RunResult ref = scenario::run_spec(base("tl_ref").build());
  ASSERT_TRUE(ref.completed);
  const sim::Time crash_at = ref.report.completion_time / 2;

  const scenario::RunResult r =
      scenario::run_spec(base("tl").fault_at(crash_at, 2).build());
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.report.recoveries.size(), 1u);
  const fault::RecoveryRecord& rec = r.report.recoveries[0];
  EXPECT_EQ(rec.rank, 2);
  EXPECT_FALSE(rec.coordinated);
  ASSERT_TRUE(rec.complete());
  EXPECT_EQ(rec.fault_at, crash_at);
  // Detect is exactly the failure detector's delay.
  EXPECT_EQ(rec.detect_ns(), 250 * sim::kMillisecond);
  // Phases are non-negative and partition [fault, replay_done].
  EXPECT_GE(rec.image_ns(), 0);
  EXPECT_GE(rec.collect_ns(), 0);
  EXPECT_GE(rec.replay_ns(), 0);
  EXPECT_EQ(rec.detect_ns() + rec.image_ns() + rec.collect_ns() +
                rec.replay_ns(),
            rec.total_ns());
  // The record's replay count matches the stats probe.
  EXPECT_EQ(rec.replay_events, r.report.totals().recovery_events);
  EXPECT_EQ(r.checksums, ref.checksums);
}

TEST(RecoveryTimeline, CoordinatedRollbackRecordsEveryRank) {
  scenario::ScenarioBuilder b("coord_tl");
  b.variant("coordinated")
      .nranks(4)
      .seed(3)
      .checkpoint(ckpt::Policy::kAllAtOnce, 40 * sim::kMillisecond)
      .ring(40, 2048);
  const scenario::RunResult ref = scenario::run_spec(b.build());
  ASSERT_TRUE(ref.completed);
  scenario::ScenarioBuilder bf("coord_tl_fault");
  bf.variant("coordinated")
      .nranks(4)
      .seed(3)
      .checkpoint(ckpt::Policy::kAllAtOnce, 40 * sim::kMillisecond)
      .ring(40, 2048)
      .fault_at(ref.report.completion_time / 2, 1);
  const scenario::RunResult r = scenario::run_spec(bf.build());
  ASSERT_TRUE(r.completed);
  // One fault, but every rank rolled back: four records, all coordinated.
  ASSERT_EQ(r.report.recoveries.size(), 4u);
  for (const fault::RecoveryRecord& rec : r.report.recoveries) {
    EXPECT_TRUE(rec.coordinated);
    EXPECT_TRUE(rec.complete());
    EXPECT_EQ(rec.replay_events, 0u);  // rollback replays nothing
  }
  EXPECT_EQ(r.checksums, ref.checksums);
}

// ---------------------------------------------------------------------------
// Link perturbation and service outages.
// ---------------------------------------------------------------------------

TEST(LinkFaults, LatencySpikeSlowsTheRunButKeepsResults) {
  const scenario::RunResult ref =
      scenario::run_spec(ring_base("lat_ref").build());
  ASSERT_TRUE(ref.completed);
  const scenario::RunResult r = scenario::run_spec(
      ring_base("lat")
          .link_latency(5 * sim::kMillisecond, 2, sim::kMillisecond,
                        ref.report.completion_time)
          .build());
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.report.fault_counts.link_faults, 1u);
  EXPECT_GT(r.report.completion_time, ref.report.completion_time);
  EXPECT_EQ(r.checksums, ref.checksums);
}

TEST(LinkFaults, DropWindowDelaysButLosesNothing) {
  const scenario::RunResult ref =
      scenario::run_spec(ring_base("drop_ref").build());
  ASSERT_TRUE(ref.completed);
  const scenario::RunResult r = scenario::run_spec(
      ring_base("drop")
          .link_drop(10 * sim::kMillisecond, 3, 15 * sim::kMillisecond)
          .build());
  ASSERT_TRUE(r.completed);
  EXPECT_GE(r.report.completion_time, ref.report.completion_time);
  EXPECT_EQ(r.checksums, ref.checksums);
}

TEST(ServiceOutages, CheckpointServerOutageIsRiddenOut) {
  // The outage covers several checkpoint ticks; clients retransmit and the
  // run (plus a later recovery from one of those images) stays exact.
  const scenario::RunResult ref =
      scenario::run_spec(ring_base("cs_ref").build());
  ASSERT_TRUE(ref.completed);
  const scenario::RunResult r = scenario::run_spec(
      ring_base("cs")
          .ckpt_outage(20 * sim::kMillisecond, 60 * sim::kMillisecond)
          .set("faults.service_retry", "40ms")
          .fault_at(ref.report.completion_time * 9 / 10, 1)
          .build());
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.report.fault_counts.ckpt_outages, 1u);
  EXPECT_EQ(r.report.faults_injected, 1u);
  EXPECT_EQ(r.checksums, ref.checksums);
}

TEST(ServiceOutages, ElOutageFreezesThenResumesStability) {
  const scenario::RunResult ref =
      scenario::run_spec(ring_base("elo_ref").build());
  ASSERT_TRUE(ref.completed);
  const scenario::RunResult r = scenario::run_spec(
      ring_base("elo")
          .el_outage(10 * sim::kMillisecond, 0, 30 * sim::kMillisecond)
          .build());
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.report.fault_counts.el_outages, 1u);
  EXPECT_EQ(r.checksums, ref.checksums);
  // Acks resumed after the outage (stability did not stay frozen).
  EXPECT_GT(r.report.el_stats.acks_sent, 0u);
}

// ---------------------------------------------------------------------------
// Daemon faults and partitions (the failure domains split from rank loss).
// ---------------------------------------------------------------------------

TEST(DaemonFaults, DaemonCrashStallsTheRankButLosesNothing) {
  const scenario::RunResult ref =
      scenario::run_spec(ring_base("dmn_ref").build());
  ASSERT_TRUE(ref.completed);
  const scenario::RunResult r = scenario::run_spec(
      ring_base("dmn")
          .crash_daemon_at(10 * sim::kMillisecond, 2,
                           30 * sim::kMillisecond)
          .build());
  ASSERT_TRUE(r.completed);
  // The rank never died — only its daemon: no recovery, no replay, results
  // identical, and the stall shows up as pure slowdown.
  EXPECT_EQ(r.report.fault_counts.daemon_crashes, 1u);
  EXPECT_EQ(r.report.fault_counts.rank_crashes, 0u);
  EXPECT_EQ(r.report.faults_injected, 0u);
  EXPECT_TRUE(r.report.recoveries.empty());
  EXPECT_EQ(r.checksums, ref.checksums);
  EXPECT_GT(r.report.completion_time, ref.report.completion_time);
  // The outage record carries the daemon's own phases.
  ASSERT_EQ(r.report.daemon_outages.size(), 1u);
  const fault::DaemonOutageRecord& rec = r.report.daemon_outages[0];
  EXPECT_EQ(rec.rank, 2);
  ASSERT_TRUE(rec.complete());
  EXPECT_EQ(rec.fault_at, 10 * sim::kMillisecond);
  EXPECT_EQ(rec.down_ns(), 30 * sim::kMillisecond);
  EXPECT_GT(rec.held_frames, 0u);  // the ring kept talking at the dead node
  EXPECT_EQ(r.report.totals().daemon_down_time, 30 * sim::kMillisecond);
}

TEST(DaemonFaults, OutageRecordClosesWhenTheRunOutlastsIt) {
  // The daemon dies moments before the workload finishes: the run completes
  // while the daemon is still down (the victim had nothing left to send),
  // and the dispatcher stops the engine at completion so the respawn timer
  // never fires. The outage record must still close — at drain time, when
  // teardown restarts the daemon — because an open-ended record here would
  // misreport "lost until abandonment" for a downtime the run outlived.
  const scenario::RunResult ref =
      scenario::run_spec(ring_base("drain_ref").build());
  ASSERT_TRUE(ref.completed);
  const sim::Time t = ref.report.completion_time;

  const sim::Time downtime = 30 * sim::kMillisecond;
  const scenario::RunResult r = scenario::run_spec(
      ring_base("drain_close")
          .crash_daemon_at(t - 20 * sim::kMicrosecond, 1, downtime)
          .build());
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.report.daemon_outages.size(), 1u);
  const fault::DaemonOutageRecord& rec = r.report.daemon_outages[0];
  // The run finished before the respawn: the interesting window this test
  // exists for.
  ASSERT_LT(r.report.completion_time, rec.fault_at + downtime);
  EXPECT_TRUE(rec.complete());
  EXPECT_FALSE(rec.interrupted);
  // Drain-time close: the outage ends when the run does, not at the full
  // scheduled downtime (which lies beyond the run).
  EXPECT_EQ(rec.restart_at, r.report.completion_time);
  EXPECT_GT(rec.down_ns(), 0);
  EXPECT_LT(rec.down_ns(), downtime);
  EXPECT_EQ(r.checksums, ref.checksums);
}

TEST(DaemonFaults, DefaultRestartDelayApplies) {
  const scenario::RunResult r = scenario::run_spec(
      ring_base("dmn_delay")
          .crash_daemon_at(10 * sim::kMillisecond, 1)
          .daemon_restart_delay(12 * sim::kMillisecond)
          .build());
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.report.daemon_outages.size(), 1u);
  EXPECT_EQ(r.report.daemon_outages[0].down_ns(), 12 * sim::kMillisecond);
}

TEST(Partitions, PartitionDelaysButPreservesResults) {
  // Split the ring down the middle for a while: every neighbor pair across
  // the cut stalls, then the held frames heal through in order and the run
  // finishes with identical results.
  const scenario::RunResult ref =
      scenario::run_spec(ring_base("part_ref").build());
  ASSERT_TRUE(ref.completed);
  const scenario::RunResult r = scenario::run_spec(
      ring_base("part")
          .partition(10 * sim::kMillisecond, {0, 1, 2}, {3, 4, 5},
                     25 * sim::kMillisecond)
          .build());
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.report.fault_counts.partitions, 1u);
  EXPECT_EQ(r.checksums, ref.checksums);
  EXPECT_GT(r.report.completion_time, ref.report.completion_time);
}

TEST(Partitions, HealReleasesAfterWindowPlusBackoff) {
  // Partition one rank away from everyone long enough that the window, not
  // the workload, dominates: completion is pushed past heal time.
  const sim::Time window = 200 * sim::kMillisecond;
  const scenario::RunResult r = scenario::run_spec(
      ring_base("part_heal")
          .partition(5 * sim::kMillisecond, {0}, {1, 2, 3, 4, 5}, window,
                     4 * sim::kMillisecond)
          .build());
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.report.completion_time, 5 * sim::kMillisecond + window);
}

// ---------------------------------------------------------------------------
// Chaos soak machinery: compare_reference + the outcome tally.
// ---------------------------------------------------------------------------

TEST(ChaosSoak, MiniSoakTallySumsToSweepSize) {
  // A seeded miniature of scenarios/chaos_soak.scn: Poisson rank + daemon
  // faults crossed with EL redundancy and seeds. Every point must classify
  // into exactly one outcome and the tally must cover the whole sweep.
  // Rates are per minute against runs of ~0.5 simulated seconds, so they
  // need to be in the hundreds to matter; the tight max_sim_time turns a
  // crash spiral into a cheap "abandoned" instead of a 4-hour simulation.
  ScenarioBuilder b = ring_base("mini_soak", 6, 1, /*laps=*/120);
  b.compare_reference()
      .max_sim_time(4 * sim::kSecond)
      .set("faults.service_retry", "100ms")
      .sweep("faults.rank_rate", {"120", "360"})
      .sweep("faults.daemon_rate", {"0", "120"})
      .sweep("el_shards", {"1", "2"})
      .sweep("seed", {"1", "2"});
  const scenario::RunSet set = scenario::run(b.build());
  ASSERT_EQ(set.runs.size(), 16u);
  const scenario::OutcomeCounts t = set.tally();
  EXPECT_EQ(t.total(), set.runs.size());
  EXPECT_EQ(t.skipped, 0u);
  // Faults were really injected (the soak is not a quiet run in disguise)
  // and at least one point made it through with an exact replay.
  std::uint64_t crashes = 0;
  for (const scenario::RunResult& r : set.runs) {
    crashes += r.report.fault_counts.rank_crashes +
               r.report.fault_counts.daemon_crashes;
    EXPECT_TRUE(r.has_reference) << r.label;
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(t.recovered_exact, 0u);
}

TEST(ChaosSoak, RankFaultFreePointRunsOnceAndCountsAsExact) {
  // With compare_reference but no rank crashes anywhere in the plan, the
  // reference IS the measured run (deterministic simulator): one cluster
  // execution serves as both, classified recovered_exact, with the
  // environment faults (here a daemon crash) still injected.
  const scenario::RunResult r = scenario::run_spec(
      ring_base("soak_corner")
          .compare_reference()
          .crash_daemon_at(10 * sim::kMillisecond, 1)
          .build());
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.has_reference);
  EXPECT_EQ(r.outcome(), scenario::Outcome::kRecoveredExact);
  EXPECT_EQ(r.checksums, r.reference_checksums);
  EXPECT_EQ(r.report.fault_counts.daemon_crashes, 1u);
}

TEST(ChaosSoak, OutcomeNamesAreStable) {
  // The JSON report and the aggregation script key on these strings.
  EXPECT_STREQ(scenario::outcome_name(scenario::Outcome::kSkipped), "skipped");
  EXPECT_STREQ(scenario::outcome_name(scenario::Outcome::kAbandoned),
               "abandoned");
  EXPECT_STREQ(scenario::outcome_name(scenario::Outcome::kCompleted),
               "completed");
  EXPECT_STREQ(scenario::outcome_name(scenario::Outcome::kRecoveredExact),
               "recovered_exact");
}

TEST(ServiceOutages, PiggybacksRegrowWhileTheElIsDown) {
  // Random traffic: every message targets a fresh destination, so the
  // growing unstable suffix is re-shipped — the regrowth the ring's fixed
  // neighbor topology hides. (Checksums aren't compared here: wildcard
  // interleavings legitimately differ under perturbed timing; the exact-
  // replay guarantees are covered by the other outage tests.)
  auto make = [](const char* name) {
    ScenarioBuilder b(name);
    b.variant("vcausal:el")
        .nranks(6)
        .seed(9)
        .checkpoint(ckpt::Policy::kRoundRobin, 25 * sim::kMillisecond)
        .random_any(/*iterations=*/30, /*wseed=*/5, /*bytes=*/2048);
    return b;
  };
  const scenario::RunResult healthy = scenario::run_spec(make("regrow_ref").build());
  ASSERT_TRUE(healthy.completed);
  // A long outage: stability freezes, every message carries the growing
  // unstable suffix — the no-EL regime entered dynamically.
  const scenario::RunResult outage = scenario::run_spec(
      make("regrow")
          .el_outage(5 * sim::kMillisecond, 0, healthy.report.completion_time)
          .build());
  ASSERT_TRUE(outage.completed);
  EXPECT_GT(outage.report.totals().pb_peak_msg_events,
            healthy.report.totals().pb_peak_msg_events);
  EXPECT_GT(outage.report.totals().pb_peak_msg_bytes,
            healthy.report.totals().pb_peak_msg_bytes);
}

}  // namespace
}  // namespace mpiv
