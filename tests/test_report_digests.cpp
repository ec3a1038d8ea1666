// Report digests: every bundled scenario's quick-mode JSON report, pinned
// byte for byte. Each `scenarios/*.scn` runs in process (expand ->
// run_point -> to_json, serially) and its report hashes to one FNV-1a
// digest, checked against the table below together with the grid's
// degraded flag (mpiv_run's exit status 3). Three extra stanzas cover
// report sections no bundled quick run emits: trace and metrics objects,
// a skipped point and a failed point.
//
// A change that moves a digest changed what users read. Name the file and
// the reason when re-blessing. To print a fresh table:
//
//   MPIV_BLESS_DIGESTS=1 ./build/test_report_digests
//
// The report of a bundled file is exactly `mpiv_run --quick
// scenarios/<file>` run from the source root, so a moved digest can be
// inspected with that command and `mpiv_stat --diff`. Digests are per
// toolchain, like bench/e2e/expected.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"

namespace mpiv {
namespace {

struct Pin {
  const char* name;  // scenario file, or an extra stanza's name
  std::uint64_t digest;
  bool degraded;
};

// BEGIN DIGEST TABLE
constexpr Pin kPins[] = {
    {"ablation_ckpt_sched.scn", 0xf30cdc088e9a7942ULL, false},
    {"ablation_el_latency.scn", 0xc07fc4afa31eed1aULL, false},
    {"ablation_multi_el.scn", 0x5363e5db1b7dab48ULL, false},
    {"chaos_soak.scn", 0x520de294cd202924ULL, true},
    {"family_race.scn", 0xdf62b0cdae4cc081ULL, false},
    {"fault_campaign.scn", 0x1d6f90c4a3fbd20cULL, false},
    {"fig10.scn", 0x20d5381e59d1f123ULL, false},
    {"fig1_coordinated.scn", 0xbaef5a86425451e8ULL, false},
    {"fig1_logging.scn", 0x8eeb013694bdf4ceULL, true},
    {"fig6a.scn", 0xecf3f4310272d6c2ULL, false},
    {"fig6b.scn", 0x8c5f41ea228a7c04ULL, false},
    {"fig7.scn", 0x4a2ca65d86dd7e16ULL, false},
    {"fig8a.scn", 0x52fa20fd3cd9fe3eULL, false},
    {"fig8b.scn", 0x468731400a72db9bULL, false},
    {"fig9.scn", 0xae1b3c20a47ad014ULL, false},
    {"quickstart.scn", 0x45f72aee2c399770ULL, false},
    {"scale_probe.scn", 0x07dcb7e168a5b24bULL, false},
    {"split_brain.scn", 0x0be4a04fd039daf4ULL, false},
    {"+observed_quickstart", 0x8b5d2872747fb6f9ULL, false},
    {"+skipped_point", 0x7f01cb639e72d0bcULL, false},
    {"+failed_point", 0xcf95c09c4cf54e37ULL, true},
};
// END DIGEST TABLE

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool blessing() {
  const char* v = std::getenv("MPIV_BLESS_DIGESTS");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

const std::string kScenarioDir = std::string(MPIV_SOURCE_DIR) + "/scenarios";

scenario::ScenarioSpec load(const std::string& file) {
  return scenario::parse_scenario_file(kScenarioDir + "/" + file);
}

scenario::RunSet run_quick(const scenario::ScenarioSpec& spec,
                           const std::string& origin) {
  scenario::RunOptions opt;
  opt.quick = true;
  opt.jobs = 1;
  scenario::RunSet set = scenario::run(spec, opt);
  set.origin = origin;
  return set;
}

using Reports = std::vector<std::pair<std::string, scenario::RunSet>>;

/// Every report the table pins, in table order: the bundled files sorted
/// by name, then the extra stanzas.
Reports run_pinned() {
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(kScenarioDir)) {
    if (e.path().extension() == ".scn") {
      files.push_back(e.path().filename().string());
    }
  }
  std::sort(files.begin(), files.end());
  Reports out;
  for (const std::string& f : files) {
    out.emplace_back(f, run_quick(load(f), "scenarios/" + f));
  }

  // Trace and metrics sections: the quickstart crash-recovery run with
  // both observability layers on.
  scenario::ScenarioSpec observed = load("quickstart.scn");
  scenario::apply_key(observed, "trace.enabled", "true");
  scenario::apply_key(observed, "metrics.enabled", "true");
  out.emplace_back("+observed_quickstart",
                   run_quick(observed, "scenarios/quickstart.scn"));

  // A skipped point: BT runs on square rank counts only.
  scenario::ScenarioSpec skip = scenario::ScenarioBuilder("skip_probe")
                                    .nas(workloads::NasKernel::kBT,
                                         workloads::NasClass::kS, 0.01)
                                    .sweep("nranks", {"4", "8"})
                                    .build();
  out.emplace_back("+skipped_point", run_quick(skip, "<builder>"));

  // A failed point: the worker running the second point dies before it
  // delivers a result, exactly as tests/test_sweep_parallel.cpp induces.
  scenario::ScenarioSpec crash = scenario::ScenarioBuilder("crash_probe")
                                     .variant("vcausal:el")
                                     .ring(4, 1024)
                                     .sweep("seed", {"1", "2", "3"})
                                     .build();
  scenario::RunOptions opt;
  opt.jobs = 2;
  opt.before_point = [](const scenario::RunPoint& p) {
    if (p.label == "seed=2") std::abort();  // inside the forked worker
  };
  scenario::RunSet failed = scenario::run(crash, opt);
  out.emplace_back("+failed_point", std::move(failed));
  return out;
}

const Reports& pinned_reports() {
  static const Reports reports = run_pinned();
  return reports;
}

TEST(ReportDigests, EveryBundledReportMatchesItsPin) {
  const Reports& reports = pinned_reports();
  if (blessing()) {
    std::printf("constexpr Pin kPins[] = {\n");
    for (const auto& [name, set] : reports) {
      const std::uint64_t digest = fnv1a(scenario::to_json(set));
      std::printf("    {\"%s\", 0x%016llxULL, %s},\n", name.c_str(),
                  static_cast<unsigned long long>(digest),
                  set.tally().degraded() ? "true" : "false");
    }
    std::printf("};\n");
    GTEST_SKIP() << "blessing: paste the table above into " << __FILE__;
  }
  ASSERT_EQ(reports.size(), std::size(kPins))
      << "the scenario set changed: re-bless the table";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& [name, set] = reports[i];
    ASSERT_EQ(name, kPins[i].name) << "table order: sorted files, then extras";
    EXPECT_EQ(fnv1a(scenario::to_json(set)), kPins[i].digest)
        << name << ": the report bytes moved";
    EXPECT_EQ(set.tally().degraded(), kPins[i].degraded) << name;
  }
}

TEST(ReportDigests, EveryReportParses) {
  // mpiv_stat reads reports with the same codec that writes them.
  for (const auto& [name, set] : pinned_reports()) {
    EXPECT_NO_THROW(util::parse_json(scenario::to_json(set))) << name;
  }
}

TEST(ReportDigests, ExtraStanzasCoverTheirSections) {
  // The extras earn their place only while they emit what they claim to.
  const Reports& reports = pinned_reports();
  const auto json_of = [&reports](const std::string& name) {
    for (const auto& [n, set] : reports) {
      if (n == name) return scenario::to_json(set);
    }
    return std::string();
  };
  const std::string observed = json_of("+observed_quickstart");
  EXPECT_NE(observed.find("\"trace\": {\"records\": "), std::string::npos);
  EXPECT_NE(observed.find("\"histograms\": {\n"), std::string::npos);
  EXPECT_NE(observed.find("\"p99_ack_us\""), std::string::npos);
  EXPECT_NE(json_of("+skipped_point").find("\"skip_reason\": \"BT does not"),
            std::string::npos);
  EXPECT_NE(json_of("+failed_point").find("\"fail_reason\": \"worker killed"),
            std::string::npos);
}

}  // namespace
}  // namespace mpiv
