// NAS kernel skeleton tests: completion, cross-protocol checksum agreement,
// fault recovery on every kernel, and the workload metadata tables.
#include <gtest/gtest.h>

#include "runtime/cluster.hpp"
#include "workloads/nas.hpp"

namespace mpiv {
namespace {

using runtime::Cluster;
using runtime::ClusterConfig;
using runtime::ClusterReport;
using runtime::ProtocolKind;
using workloads::ChecksumResult;
using workloads::NasClass;
using workloads::NasConfig;
using workloads::NasKernel;

constexpr NasKernel kAllKernels[] = {NasKernel::kBT, NasKernel::kCG,
                                     NasKernel::kLU, NasKernel::kFT,
                                     NasKernel::kMG, NasKernel::kSP};

int small_ranks(NasKernel k) {
  return (k == NasKernel::kBT || k == NasKernel::kSP) ? 4 : 4;
}

struct NasRun {
  ClusterReport report;
  ChecksumResult checksums{0};
};

NasRun run_nas(ClusterConfig cfg, NasConfig ncfg) {
  ncfg.nranks = cfg.nranks;
  auto result = std::make_shared<ChecksumResult>(cfg.nranks);
  Cluster cluster(cfg);
  ClusterReport rep = cluster.run(workloads::make_nas_app(ncfg, result));
  return {rep, *result};
}

TEST(NasMeta, ValidRankCounts) {
  EXPECT_TRUE(workloads::nas_valid_nranks(NasKernel::kBT, 9));
  EXPECT_TRUE(workloads::nas_valid_nranks(NasKernel::kBT, 25));
  EXPECT_FALSE(workloads::nas_valid_nranks(NasKernel::kBT, 8));
  EXPECT_TRUE(workloads::nas_valid_nranks(NasKernel::kCG, 16));
  EXPECT_FALSE(workloads::nas_valid_nranks(NasKernel::kCG, 12));
  EXPECT_TRUE(workloads::nas_valid_nranks(NasKernel::kLU, 2));
}

TEST(NasMeta, FlopTablesAreOrdered) {
  for (NasKernel k : kAllKernels) {
    EXPECT_LT(workloads::nas_total_flops(k, NasClass::kS),
              workloads::nas_total_flops(k, NasClass::kA))
        << workloads::nas_kernel_name(k);
    EXPECT_LT(workloads::nas_total_flops(k, NasClass::kA),
              workloads::nas_total_flops(k, NasClass::kB));
    EXPECT_GT(workloads::nas_iterations(k, NasClass::kA), 0);
  }
}

class NasKernelTest : public ::testing::TestWithParam<NasKernel> {};

TEST_P(NasKernelTest, CompletesUnderVdummy) {
  const NasKernel k = GetParam();
  ClusterConfig cfg;
  cfg.nranks = small_ranks(k);
  cfg.protocol = ProtocolKind::kVdummy;
  NasConfig n{k, NasClass::kS, cfg.nranks, 1.0};
  NasRun out = run_nas(cfg, n);
  ASSERT_TRUE(out.report.completed) << workloads::nas_kernel_name(k);
  for (const std::uint64_t c : out.checksums.checksums) EXPECT_NE(c, 0u);
}

TEST_P(NasKernelTest, ProtocolsAgreeOnChecksums) {
  const NasKernel k = GetParam();
  ClusterConfig cfg;
  cfg.nranks = small_ranks(k);
  cfg.protocol = ProtocolKind::kVdummy;
  NasConfig n{k, NasClass::kS, cfg.nranks, 1.0};
  const NasRun ref = run_nas(cfg, n);
  ASSERT_TRUE(ref.report.completed);
  for (causal::StrategyKind s :
       {causal::StrategyKind::kVcausal, causal::StrategyKind::kManetho,
        causal::StrategyKind::kLogOn}) {
    ClusterConfig c2 = cfg;
    c2.protocol = ProtocolKind::kCausal;
    c2.strategy = s;
    for (bool el : {true, false}) {
      c2.event_logger = el;
      NasRun out = run_nas(c2, n);
      ASSERT_TRUE(out.report.completed);
      EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums)
          << workloads::nas_kernel_name(k) << "/"
          << causal::strategy_kind_name(s) << " el=" << el;
    }
  }
}

TEST_P(NasKernelTest, SurvivesCrashWithIdenticalResults) {
  const NasKernel k = GetParam();
  ClusterConfig cfg;
  cfg.nranks = small_ranks(k);
  cfg.protocol = ProtocolKind::kCausal;
  cfg.strategy = causal::StrategyKind::kManetho;
  cfg.ckpt_policy = ckpt::Policy::kRoundRobin;
  cfg.ckpt_interval = 100 * sim::kMillisecond;
  // Scale short kernels up so the fault strikes while every rank is still
  // running (a fault on a finished rank is correctly skipped).
  NasConfig n{k, NasClass::kS, cfg.nranks, 4.0};
  const NasRun ref = run_nas(cfg, n);
  ASSERT_TRUE(ref.report.completed);

  // The crash arms the checkpoint clients' retransmits. Resending whole
  // images into the busy but live server every retry period would swamp
  // it, so the run must finish within twice the fault-free time.
  cfg.campaign.injections.push_back(
      fault::rank_crash_at(ref.report.completion_time / 5, 1));
  cfg.max_sim_time = 2 * ref.report.completion_time;
  NasRun out = run_nas(cfg, n);
  ASSERT_TRUE(out.report.completed) << workloads::nas_kernel_name(k);
  EXPECT_EQ(out.report.faults_injected, 1u);
  EXPECT_EQ(out.checksums.checksums, ref.checksums.checksums)
      << workloads::nas_kernel_name(k);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, NasKernelTest,
                         ::testing::ValuesIn(kAllKernels),
                         [](const auto& info) {
                           return workloads::nas_kernel_name(info.param);
                         });

TEST(NasScaling, PiggybackGrowsWithoutEventLogger) {
  // The paper's headline: without the EL nothing is ever pruned, so the
  // piggyback volume must be substantially larger.
  ClusterConfig cfg;
  cfg.nranks = 4;
  cfg.protocol = ProtocolKind::kCausal;
  cfg.strategy = causal::StrategyKind::kVcausal;
  NasConfig n{NasKernel::kCG, NasClass::kS, cfg.nranks, 1.0};

  cfg.event_logger = true;
  const NasRun with_el = run_nas(cfg, n);
  cfg.event_logger = false;
  const NasRun without_el = run_nas(cfg, n);
  ASSERT_TRUE(with_el.report.completed);
  ASSERT_TRUE(without_el.report.completed);
  const auto t_el = with_el.report.totals();
  const auto t_no = without_el.report.totals();
  EXPECT_LT(t_el.pb_bytes_sent, t_no.pb_bytes_sent);
  EXPECT_LT(t_el.pb_events_sent, t_no.pb_events_sent);
}

}  // namespace
}  // namespace mpiv
