// Cross-process equivalence harness for the parallel sweep runner: the
// forked worker pool must be invisible in the report. Serial and --jobs N
// executions of the bundled fault grids must produce byte-identical JSON
// (same stanzas, same tallies, same goldens); a worker crash must cost
// exactly its own point (classified `failed`), never the grid.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace mpiv {
namespace {

scenario::ScenarioSpec load(const char* name) {
  const std::string path =
      std::string(MPIV_SOURCE_DIR) + "/scenarios/" + name;
  return scenario::parse_scenario_file(path);
}

std::string run_json(const char* scn, int jobs) {
  scenario::RunOptions opt;
  opt.quick = true;  // the CI-sized grid; identity must hold regardless
  opt.jobs = jobs;
  return scenario::to_json(scenario::run(load(scn), opt));
}

// ---------------------------------------------------------------------------
// Byte identity: the headline contract. Every bundled fault grid renders
// the same bytes out of one process or five.
// ---------------------------------------------------------------------------

TEST(SweepParallel, FaultCampaignByteIdentical) {
  EXPECT_EQ(run_json("fault_campaign.scn", 1), run_json("fault_campaign.scn", 4));
}

TEST(SweepParallel, ChaosSoakByteIdentical) {
  // The chaos grid exercises every outcome class including abandoned
  // points, stochastic fault schedules, and reference passes.
  EXPECT_EQ(run_json("chaos_soak.scn", 1), run_json("chaos_soak.scn", 4));
}

TEST(SweepParallel, FamilyRaceByteIdentical) {
  // Protocol families (replica promotions, ULFM repairs) emit their own
  // conditional JSON sections — the splice must preserve them too.
  EXPECT_EQ(run_json("family_race.scn", 1), run_json("family_race.scn", 4));
}

// ---------------------------------------------------------------------------
// --jobs 1 is the exact serial path: results are fully populated in
// process, with no worker transport artifacts.
// ---------------------------------------------------------------------------

TEST(SweepParallel, Jobs1IsTheInProcessSerialPath) {
  scenario::RunOptions opt;
  opt.quick = true;
  opt.jobs = 1;
  std::vector<const scenario::RunPoint*> order;
  opt.on_result = [&order](const scenario::RunPoint& p,
                           const scenario::RunResult&) {
    order.push_back(&p);
  };
  const scenario::RunSet set = scenario::run(load("chaos_soak.scn"), opt);
  ASSERT_FALSE(set.runs.empty());
  std::size_t ran = 0;
  for (const scenario::RunResult& r : set.runs) {
    EXPECT_TRUE(r.prerendered_json.empty()) << r.label;
    EXPECT_EQ(r.forced_outcome, -1) << r.label;
    EXPECT_FALSE(r.failed) << r.label;
    if (!r.skipped) {
      ++ran;
      EXPECT_FALSE(r.checksums.empty()) << r.label;
      EXPECT_GT(r.events_executed, 0u) << r.label;
    }
  }
  EXPECT_GT(ran, 0u);
  // Serial mode reports progress in sweep order.
  EXPECT_EQ(order.size(), set.runs.size());
}

TEST(SweepParallel, ParallelResultsCarryTheSummaryFields) {
  scenario::RunOptions opt;
  opt.quick = true;
  opt.jobs = 4;
  const scenario::RunSet par = scenario::run(load("chaos_soak.scn"), opt);
  opt.jobs = 1;
  const scenario::RunSet ser = scenario::run(load("chaos_soak.scn"), opt);
  ASSERT_EQ(par.runs.size(), ser.runs.size());
  for (std::size_t i = 0; i < par.runs.size(); ++i) {
    EXPECT_EQ(par.runs[i].label, ser.runs[i].label);
    EXPECT_EQ(par.runs[i].outcome(), ser.runs[i].outcome()) << par.runs[i].label;
    EXPECT_EQ(par.runs[i].completed, ser.runs[i].completed);
    EXPECT_EQ(par.runs[i].report.completion_time,
              ser.runs[i].report.completion_time);
  }
  // And the tallies (what mpiv_run's exit code and the soak aggregation
  // read) agree field for field.
  const scenario::OutcomeCounts a = par.tally();
  const scenario::OutcomeCounts b = ser.tally();
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.completed_shrunk, b.completed_shrunk);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.recovered_exact, b.recovered_exact);
}

// ---------------------------------------------------------------------------
// Worker-crash containment: a dying worker costs exactly its point.
// ---------------------------------------------------------------------------

TEST(SweepParallel, WorkerCrashBecomesAFailedPointNotAGridAbort) {
  scenario::ScenarioSpec spec = load("chaos_soak.scn");
  scenario::apply_quick(spec);
  const std::vector<scenario::RunPoint> points = scenario::expand(spec);
  ASSERT_GT(points.size(), 6u);
  const std::string victim = points[5].label;

  scenario::RunOptions opt;
  opt.jobs = 4;
  opt.before_point = [victim](const scenario::RunPoint& p) {
    if (p.label == victim) std::abort();  // inside the forked worker
  };
  const scenario::RunSet set = scenario::run(spec, opt);
  ASSERT_EQ(set.runs.size(), points.size());

  const scenario::RunResult& lost = set.runs[5];
  EXPECT_EQ(lost.outcome(), scenario::Outcome::kFailed);
  EXPECT_TRUE(lost.failed);
  EXPECT_EQ(lost.label, victim);
  EXPECT_NE(lost.fail_reason.find("worker"), std::string::npos)
      << lost.fail_reason;

  // Exactly one point died; every other point still delivered.
  const scenario::OutcomeCounts t = set.tally();
  EXPECT_EQ(t.failed, 1u);
  EXPECT_TRUE(t.degraded());
  EXPECT_EQ(t.total(), set.runs.size());
  for (std::size_t i = 0; i < set.runs.size(); ++i) {
    if (i == 5) continue;
    EXPECT_NE(set.runs[i].outcome(), scenario::Outcome::kFailed)
        << set.runs[i].label;
  }

  // The report stays renderable and names the casualty.
  const std::string json = scenario::to_json(set);
  EXPECT_NE(json.find("\"failed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"fail_reason\""), std::string::npos);
  EXPECT_NE(json.find("\"failed\": 1"), std::string::npos);
}

}  // namespace
}  // namespace mpiv
