// End-to-end tests of the full MPICH-V stack, driven through the scenario
// API: fault-free runs across all protocols produce identical application
// checksums, and — the crux of message logging — runs with injected
// crashes reproduce the exact fault-free results, including for wildcard
// (MPI_ANY_SOURCE) receptions whose delivery order only a correct
// determinant replay can reproduce.
#include <gtest/gtest.h>

#include "scenario/runner.hpp"

namespace mpiv {
namespace {

using scenario::RunResult;
using scenario::ScenarioBuilder;

RunResult run_ring(const scenario::ScenarioSpec& spec) {
  return scenario::run_spec(spec);
}

ScenarioBuilder base_scenario(const char* variant) {
  ScenarioBuilder b("integration");
  b.set("variant", variant)
      .set("nranks", "4")
      .set("ckpt_policy", "round-robin")
      .set("ckpt_interval", "50ms")
      .set("workload", "ring")
      .set("workload.laps", "40")
      .set("workload.bytes", "4096");
  return b;
}

/// A `faults.crash_rank` value: crash `rank` at simulated time `at`.
std::string crash_at(sim::Time at, int rank) {
  return std::to_string(at) + "ns:" + std::to_string(rank);
}

TEST(FaultFree, VdummyRingCompletes) {
  const RunResult out = run_ring(base_scenario("vdummy").build());
  ASSERT_TRUE(out.completed);
  for (const std::uint64_t c : out.checksums) EXPECT_NE(c, 0u);
}

TEST(FaultFree, AllProtocolsAgreeOnRingChecksums) {
  const RunResult ref = run_ring(base_scenario("vdummy").build());
  ASSERT_TRUE(ref.completed);
  for (const char* v : {"p4", "vcausal:el", "vcausal:noel", "pessimistic",
                        "coordinated"}) {
    const RunResult out = run_ring(base_scenario(v).build());
    ASSERT_TRUE(out.completed) << "variant " << v;
    EXPECT_EQ(out.checksums, ref.checksums) << "variant " << v;
  }
}

TEST(FaultFree, CausalStrategiesAgree) {
  const RunResult ref = run_ring(base_scenario("vdummy").build());
  for (const char* v : {"vcausal:el", "vcausal:noel", "manetho:el",
                        "manetho:noel", "logon:el", "logon:noel"}) {
    const RunResult out = run_ring(base_scenario(v).build());
    ASSERT_TRUE(out.completed);
    EXPECT_EQ(out.checksums, ref.checksums) << v;
  }
}

// The central correctness claim: a crash + recovery reproduces the exact
// fault-free execution results. Parameterized over the scenario variant
// names of the six causal configurations.
class FaultRecovery : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultRecovery, RingSurvivesMidRunCrash) {
  ScenarioBuilder b = base_scenario(GetParam());
  const RunResult ref = run_ring(b.build());
  ASSERT_TRUE(ref.completed);

  b.set("faults.crash_rank", crash_at(ref.report.completion_time / 2, 1));
  const RunResult out = run_ring(b.build());
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.report.faults_injected, 1u);
  EXPECT_EQ(out.checksums, ref.checksums);
  EXPECT_GE(out.report.completion_time, ref.report.completion_time);
}

TEST_P(FaultRecovery, WildcardReplayReproducesDeliveryOrder) {
  // Phase 1 (wildcard storm) happens before the fault, phase 2 (ring) is
  // deterministic; with no checkpoints the crashed rank must replay all of
  // phase 1 from determinants. The order-sensitive checksum matches the
  // fault-free run iff every nondeterministic delivery order was replayed
  // exactly.
  ScenarioBuilder b("integration");
  b.set("variant", GetParam())
      .set("nranks", "6")
      .set("workload", "random_then_ring")
      .set("workload.rand_iters", "12")
      .set("workload.ring_laps", "30")
      .set("workload.seed", "42")
      .set("workload.bytes", "2048");
  const RunResult ref = scenario::run_spec(b.build());
  ASSERT_TRUE(ref.completed);

  b.set("faults.crash_rank", crash_at(ref.report.completion_time * 3 / 4, 2));
  const RunResult out = scenario::run_spec(b.build());
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.report.faults_injected, 1u);
  EXPECT_EQ(out.checksums, ref.checksums);
}

TEST_P(FaultRecovery, WildcardFaultRunIsDeterministic) {
  // A faulted wildcard run may legitimately diverge from the fault-free
  // order *after* the crash, but it must itself be reproducible.
  ScenarioBuilder b("integration");
  b.set("variant", GetParam())
      .set("nranks", "6")
      .set("ckpt_policy", "round-robin")
      .set("ckpt_interval", "50ms")
      .set("workload", "random_any")
      .set("workload.iters", "30")
      .set("workload.seed", "42")
      .set("workload.bytes", "2048")
      .set("faults.crash_rank", "120ms:2");
  const RunResult a = scenario::run_spec(b.build());
  const RunResult b_run = scenario::run_spec(b.build());
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b_run.completed);
  EXPECT_EQ(a.checksums, b_run.checksums);
  EXPECT_EQ(a.report.completion_time, b_run.report.completion_time);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, FaultRecovery,
                         ::testing::Values("vcausal:el", "vcausal:noel",
                                           "manetho:el", "manetho:noel",
                                           "logon:el", "logon:noel"),
                         [](const auto& info) {
                           std::string name = info.param;
                           const std::size_t colon = name.find(':');
                           return name.substr(0, colon) + "_" +
                                  (name.substr(colon + 1) == "el" ? "EL"
                                                                  : "noEL");
                         });

TEST(FaultRecovery, PessimisticSurvivesCrash) {
  ScenarioBuilder b = base_scenario("pessimistic");
  const RunResult ref = run_ring(b.build());
  ASSERT_TRUE(ref.completed);
  b.set("faults.crash_rank", crash_at(ref.report.completion_time / 2, 0));
  const RunResult out = run_ring(b.build());
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.checksums, ref.checksums);
}

TEST(FaultRecovery, CoordinatedRollsEveryoneBack) {
  ScenarioBuilder b = base_scenario("coordinated");
  b.set("ckpt_policy", "all-at-once").set("ckpt_interval", "80ms");
  const RunResult ref = run_ring(b.build());
  ASSERT_TRUE(ref.completed);
  b.set("faults.crash_rank", crash_at(ref.report.completion_time / 2, 3));
  const RunResult out = run_ring(b.build());
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.checksums, ref.checksums);
  EXPECT_GT(out.report.completion_time, ref.report.completion_time);
}

TEST(FaultRecovery, CrashBeforeFirstCheckpointRestartsFromScratch) {
  ScenarioBuilder b = base_scenario("vcausal:el");
  b.set("ckpt_policy", "none").set("ckpt_interval", "0");  // no checkpoints
  const RunResult ref = run_ring(b.build());
  ASSERT_TRUE(ref.completed);
  b.set("faults.crash_rank", crash_at(ref.report.completion_time / 2, 1));
  const RunResult out = run_ring(b.build());
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.checksums, ref.checksums);
}

TEST(FaultRecovery, TwoSequentialFaults) {
  ScenarioBuilder b = base_scenario("vcausal:el");
  b.set("workload.laps", "60");
  const RunResult ref = run_ring(b.build());
  ASSERT_TRUE(ref.completed);
  b.set("faults.crash_rank", crash_at(ref.report.completion_time / 4, 1));
  b.set("faults.crash_rank", crash_at(ref.report.completion_time / 2, 2));
  const RunResult out = run_ring(b.build());
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.report.faults_injected, 2u);
  EXPECT_EQ(out.checksums, ref.checksums);
}

TEST(FaultRecovery, MidrunFaultModeMatchesExplicitFault) {
  // The runner's midrun-fault mode (reference + crash at half completion)
  // is exactly the two-run pattern above, packaged.
  ScenarioBuilder b = base_scenario("vcausal:el");
  b.set("midrun_fault_rank", "1");
  const RunResult out = scenario::run_spec(b.build());
  ASSERT_TRUE(out.completed);
  ASSERT_TRUE(out.has_reference);
  EXPECT_EQ(out.report.faults_injected, 1u);
  EXPECT_TRUE(out.recovered_exact);
  EXPECT_GE(out.report.completion_time, out.reference_time);
}

TEST(Determinism, IdenticalConfigIdenticalCompletionTime) {
  ScenarioBuilder b = base_scenario("vcausal:el");
  b.set("faults.crash_rank", "200ms:1");
  const RunResult a = run_ring(b.build());
  const RunResult c = run_ring(b.build());
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.report.completion_time, c.report.completion_time);
  EXPECT_EQ(a.checksums, c.checksums);
}

}  // namespace
}  // namespace mpiv
