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
// One loop: --jobs 1 runs every point in process and shows on_result the
// full result; either way the set keeps the same summary of each point and
// none of its per-run payload.
// ---------------------------------------------------------------------------

TEST(SweepParallel, Jobs1AndJobs4KeepTheSameSummaries) {
  scenario::ScenarioSpec spec = load("chaos_soak.scn");
  scenario::apply_quick(spec);
  // Observability on, so that a kept trace capture or metrics snapshot
  // would show.
  scenario::apply_key(spec, "trace.enabled", "true");
  scenario::apply_key(spec, "metrics.enabled", "true");
  const std::vector<scenario::RunPoint> points = scenario::expand(spec);

  scenario::RunOptions opt;
  opt.jobs = 1;
  std::vector<std::string> order;
  std::size_t ran = 0;
  opt.on_result = [&order, &ran](const scenario::RunPoint& p,
                                 const scenario::RunResult& r) {
    order.push_back(p.label);
    if (r.skipped) return;
    ++ran;
    EXPECT_FALSE(r.checksums.empty()) << r.label;
    EXPECT_GT(r.events_executed, 0u) << r.label;
    EXPECT_FALSE(r.trace_dump.empty()) << r.label;
    EXPECT_TRUE(r.report.metrics.enabled) << r.label;
  };
  const scenario::RunSet ser = scenario::run(spec, opt);
  opt.jobs = 4;
  opt.on_result = nullptr;
  const scenario::RunSet par = scenario::run(spec, opt);

  // Serial mode reports progress in sweep order, with full results.
  ASSERT_EQ(order.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(order[i], points[i].label);
  }
  EXPECT_GT(ran, 0u);

  ASSERT_EQ(ser.runs.size(), points.size());
  ASSERT_EQ(par.runs.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const scenario::RunResult& a = ser.runs[i];
    const scenario::RunResult& b = par.runs[i];
    EXPECT_EQ(a.label, points[i].label);
    EXPECT_EQ(b.label, a.label);
    EXPECT_EQ(b.axes, a.axes) << a.label;
    EXPECT_EQ(b.skipped, a.skipped) << a.label;
    EXPECT_EQ(b.failed, a.failed) << a.label;
    EXPECT_EQ(b.outcome(), a.outcome()) << a.label;
    EXPECT_EQ(b.completed, a.completed) << a.label;
    EXPECT_EQ(b.report.completion_time, a.report.completion_time) << a.label;
    EXPECT_FALSE(a.stanza.empty()) << a.label;
    EXPECT_EQ(b.stanza, a.stanza) << a.label;
    for (const scenario::RunResult* r : {&a, &b}) {
      EXPECT_TRUE(r->checksums.empty()) << r->label;
      EXPECT_FALSE(r->report.metrics.enabled) << r->label;
      EXPECT_TRUE(r->trace_dump.empty()) << r->label;
      EXPECT_TRUE(r->reference_trace_dump.empty()) << r->label;
    }
  }
  // And the tallies (what mpiv_run's exit code and the soak aggregation
  // read) agree field for field.
  const scenario::OutcomeCounts x = ser.tally();
  const scenario::OutcomeCounts y = par.tally();
  EXPECT_EQ(x.failed, y.failed);
  EXPECT_EQ(x.skipped, y.skipped);
  EXPECT_EQ(x.abandoned, y.abandoned);
  EXPECT_EQ(x.completed_shrunk, y.completed_shrunk);
  EXPECT_EQ(x.completed, y.completed);
  EXPECT_EQ(x.recovered_exact, y.recovered_exact);
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
