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
//
// The same reports then carry the reproduction claim: the PaperRelations
// tests check PAPER.md's observations as relations across sweep points,
// and the ScenarioInvariants tests check what each robustness scenario
// (fault campaign, chaos soak, split brain, family race, scale probe)
// exists to show. Digests are exact and per toolchain; the relations are
// portable shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "causal/wire.hpp"
#include "net/cost_model.hpp"
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
    {"ablation_ckpt_sched.scn", 0x057f8be1cefbd44aULL, false},
    {"ablation_el_latency.scn", 0x5f8170468239803eULL, false},
    {"ablation_multi_el.scn", 0x0f238fd1ddc3d412ULL, false},
    {"ablation_wire_format.scn", 0x0248b25dc5bdb518ULL, false},
    {"chaos_soak.scn", 0x27079f62c799fd92ULL, true},
    {"family_race.scn", 0xdf9408b86ba4a5e9ULL, false},
    {"fault_campaign.scn", 0xce2c6e0e091a9edcULL, false},
    {"fig10.scn", 0xa589a3f7897df89cULL, false},
    {"fig10_saturated_el.scn", 0x8cfc55f6e20f234fULL, false},
    {"fig1_coordinated.scn", 0xfe6a680bc9afe4c4ULL, false},
    {"fig1_logging.scn", 0x1a90f5bedd0a6a34ULL, false},
    {"fig6a.scn", 0x8c971007998034aaULL, false},
    {"fig6b.scn", 0x263ab19bbfd12231ULL, false},
    {"fig7.scn", 0xc6f34cb63e6a98e0ULL, false},
    {"fig8a.scn", 0x83de0b85bead0632ULL, false},
    {"fig8b.scn", 0x106d310b012eb851ULL, false},
    {"fig9.scn", 0xb470124a44117aecULL, false},
    {"quickstart.scn", 0x8c3fa83321d8f536ULL, false},
    {"scale_probe.scn", 0x7fbd22b905ed8585ULL, false},
    {"split_brain.scn", 0x3ef0ea5890bfeae9ULL, false},
    {"+observed_quickstart", 0x3fb0cfc9e218eda7ULL, false},
    {"+skipped_point", 0x87a09d71fcb9e27aULL, false},
    {"+failed_point", 0x46bea1c08dae8463ULL, true},
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

// ---------------------------------------------------------------------------
// Paper relations: the observations of PAPER.md, checked on the same quick
// reports. A relation reads the JSON fields docs/BENCHMARKS.md names for
// its figure and asserts the shape the model reproduces, not the paper's
// numbers. Every selection must match at least one run, so a renamed
// variant or axis fails instead of passing on an empty set.
// ---------------------------------------------------------------------------

using util::Json;
using Where = std::vector<std::pair<std::string, std::string>>;

const Json kNoJson;

/// The parsed report of a bundled file.
const Json& report(const std::string& file) {
  static const std::map<std::string, Json> docs = [] {
    std::map<std::string, Json> m;
    for (const auto& [name, set] : pinned_reports()) {
      m.emplace(name, util::parse_json(scenario::to_json(set)));
    }
    return m;
  }();
  const auto it = docs.find(file);
  if (it == docs.end()) {
    ADD_FAILURE() << "no pinned report " << file;
    return kNoJson;
  }
  return it->second;
}

/// Every run of `file`'s report, skipped ones included.
const std::vector<Json>& all_runs(const std::string& file) {
  const Json* runs = report(file).find("runs");
  return runs != nullptr ? runs->items : kNoJson.items;
}

std::string text(const Json& v, std::string_view key) {
  const Json* f = v.find(key);
  return f != nullptr ? f->str : std::string();
}

std::string axis(const Json& run, std::string_view name) {
  const Json* axes = run.find("axes");
  return axes != nullptr ? text(*axes, name) : std::string();
}

/// The run's array field `key`; empty when the report omits it.
const std::vector<Json>& items(const Json& run, std::string_view key) {
  const Json* f = run.find(key);
  return f != nullptr ? f->items : kNoJson.items;
}

bool flag(const Json& v, std::string_view key) {
  const Json* f = v.find(key);
  return f != nullptr && f->boolean;
}

/// A numeric field by dotted path ("el.mean_ack_us", "points.0.latency_us");
/// NaN, and a test failure, when the path does not lead to a number.
double num(const Json& run, std::string_view path) {
  const Json* v = &run;
  for (std::size_t at = 0; v != nullptr && at <= path.size();) {
    std::size_t dot = path.find('.', at);
    if (dot == std::string_view::npos) dot = path.size();
    const std::string_view seg = path.substr(at, dot - at);
    if (v->kind == Json::Kind::kArray) {
      const std::size_t i = std::stoul(std::string(seg));
      v = i < v->items.size() ? &v->items[i] : nullptr;
    } else {
      v = v->find(seg);
    }
    at = dot + 1;
  }
  if (v == nullptr ||
      (v->kind != Json::Kind::kInt && v->kind != Json::Kind::kUint &&
       v->kind != Json::Kind::kDouble)) {
    ADD_FAILURE() << text(run, "label") << ": no number at " << path;
    return std::nan("");
  }
  return v->number();
}

/// The non-skipped runs of `file` whose axes match every pair of `where`,
/// in sweep order. An empty selection fails the test.
std::vector<const Json*> select(const std::string& file,
                                const Where& where = {}) {
  std::vector<const Json*> out;
  for (const Json& run : all_runs(file)) {
    if (text(run, "outcome") == "skipped") continue;
    if (std::all_of(where.begin(), where.end(), [&run](const auto& w) {
          return axis(run, w.first) == w.second;
        })) {
      out.push_back(&run);
    }
  }
  if (out.empty()) {
    std::string sel;
    for (const auto& [k, v] : where) sel += " " + k + "=" + v;
    ADD_FAILURE() << file << ": no run matches" << sel;
  }
  return out;
}

/// The single run of `file` matching `where`.
const Json& one(const std::string& file, const Where& where) {
  const std::vector<const Json*> runs = select(file, where);
  if (runs.size() != 1) {
    if (!runs.empty()) ADD_FAILURE() << file << ": selection is ambiguous";
    return kNoJson;
  }
  return *runs.front();
}

/// The run of `file` on the same sweep point as `run` except `name` = `value`.
const Json& twin(const std::string& file, const Json& run,
                 const std::string& name, const std::string& value) {
  Where where;
  if (const Json* axes = run.find("axes")) {
    for (const auto& [k, v] : axes->members) {
      where.emplace_back(k, k == name ? value : v.str);
    }
  }
  return one(file, where);
}

const char* const kStrategies[] = {"vcausal", "manetho", "logon"};

/// Piggyback management time, % of the run's total CPU (wall x ranks).
double cpu_share_pct(const Json& run) {
  return 100.0 * (num(run, "pb_send_cpu_s") + num(run, "pb_recv_cpu_s")) /
         (num(run, "sim_time_s") * std::stod(axis(run, "nranks")));
}

/// (faults.rank_rate, sim_time_s over the fault-free point's) in sweep
/// order, for the runs of `file` matching `where`.
std::vector<std::pair<double, double>> slowdowns(const std::string& file,
                                                 const Where& where) {
  std::vector<std::pair<double, double>> curve;
  for (const Json* r : select(file, where)) {
    EXPECT_EQ(text(*r, "outcome"), "completed") << text(*r, "label");
    curve.emplace_back(std::stod(axis(*r, "faults.rank_rate")),
                       num(*r, "sim_time_s"));
  }
  if (curve.empty() || curve.front().first != 0.0) {
    ADD_FAILURE() << file << ": the first point is not fault-free";
    return {};
  }
  const double base = curve.front().second;
  for (auto& point : curve) point.second /= base;
  return curve;
}

TEST(PaperRelations, Fig1SlowdownGrowsWithFaultRateFastestWhenCoordinated) {
  // Coordinated checkpointing rolls every rank back; message logging
  // replays only the failed rank.
  const auto coordinated = slowdowns("fig1_coordinated.scn", {});
  for (std::size_t i = 1; i < coordinated.size(); ++i) {
    EXPECT_GT(coordinated[i].second, coordinated[i - 1].second) << i;
  }
  for (const char* v : {"pessimistic", "manetho:el"}) {
    const auto logging = slowdowns("fig1_logging.scn", {{"variant", v}});
    ASSERT_EQ(logging.size(), coordinated.size()) << v;
    for (std::size_t i = 1; i < logging.size(); ++i) {
      ASSERT_EQ(logging[i].first, coordinated[i].first) << v;
      EXPECT_GT(logging[i].second, logging[i - 1].second) << v << " " << i;
      EXPECT_GT(coordinated[i].second, logging[i].second) << v << " " << i;
    }
  }
}

TEST(PaperRelations, Obs1LatencyOrdersP4VdummyThenElBelowNoEl) {
  const auto latency = [](const std::string& variant) {
    return num(one("fig6a.scn", {{"variant", variant}}),
               "points.0.latency_us");
  };
  const double vdummy = latency("vdummy");
  EXPECT_LT(latency("p4"), vdummy);
  double el_min = INFINITY;
  double el_max = 0;
  for (const std::string s : kStrategies) {
    const double el = latency(s + ":el");
    EXPECT_LT(vdummy, el) << s;
    EXPECT_LT(el, latency(s + ":noel")) << s;
    el_min = std::min(el_min, el);
    el_max = std::max(el_max, el);
  }
  // With the EL the three strategies are nearly indistinguishable.
  EXPECT_LT(el_max, 1.01 * el_min);
}

TEST(PaperRelations, Obs1BandwidthUnderRawTcpAndCausalUnderVdummy) {
  // Raw TCP is the analytic bound: one frame's serialization (payload plus
  // 66 header bytes) plus the wire latency, per direction.
  const net::CostModel cost = load("fig6b.scn").cost;
  for (const Json* r : select("fig6b.scn")) {
    for (const Json& p : items(*r, "points")) {
      const auto bytes = static_cast<std::uint64_t>(num(p, "bytes"));
      const double raw_mbps =
          static_cast<double>(bytes) * 8.0 /
          sim::to_us(cost.tx_time(bytes + 66) + cost.wire_latency);
      EXPECT_LT(num(p, "bandwidth_mbps"), raw_mbps)
          << text(*r, "label") << " at " << bytes << " B";
    }
  }
  // At the largest size: Vdummy's full duplex beats P4, the sender-based
  // payload copy puts every causal variant below Vdummy, and the causal
  // curves coincide (ping-pong piggybacks one event whatever the variant).
  const auto top = [](const std::string& variant) {
    const Json& r = one("fig6b.scn", {{"variant", variant}});
    const std::size_t n = items(r, "points").size();
    return n == 0 ? std::nan("")
                  : num(r, "points." + std::to_string(n - 1) +
                               ".bandwidth_mbps");
  };
  const double vdummy = top("vdummy");
  EXPECT_LT(top("p4"), vdummy);
  const double first = top("vcausal:el");
  for (const char* v : {"vcausal:el", "manetho:el", "logon:noel"}) {
    EXPECT_LT(top(v), vdummy) << v;
    EXPECT_NEAR(top(v), first, 0.001 * first) << v;
  }
}

TEST(PaperRelations, Obs2ElCutsPiggybackVolumeForEveryStrategy) {
  for (const std::string s : kStrategies) {
    for (const Json* el : select("fig7.scn", {{"variant", s + ":el"}})) {
      const Json& noel = twin("fig7.scn", *el, "variant", s + ":noel");
      EXPECT_LT(num(*el, "pb_pct"), num(noel, "pb_pct"))
          << text(*el, "label");
    }
  }
}

TEST(PaperRelations, Obs3LogOnPaysOnSendManethoOnReceive) {
  // Fig. 8(a): LogOn's causal reordering lands on the send side, and
  // without the EL it costs more than Vcausal with it.
  for (const Json* logon : select("fig8a.scn", {{"variant", "logon:noel"}})) {
    EXPECT_GT(num(*logon, "pb_send_cpu_s"), num(*logon, "pb_recv_cpu_s"));
    const Json& vcausal = twin("fig8a.scn", *logon, "variant", "vcausal:el");
    EXPECT_GT(cpu_share_pct(*logon), cpu_share_pct(vcausal));
  }
  // Fig. 8(b): Manetho re-crosses its graph on receive. With the EL the
  // whole causality cost stays under 1 % of the run (the grid is FT).
  for (const Json* manetho : select("fig8b.scn", {{"variant", "manetho:el"}})) {
    EXPECT_GT(num(*manetho, "pb_recv_cpu_s"), num(*manetho, "pb_send_cpu_s"));
    const Json& vcausal = twin("fig8b.scn", *manetho, "variant", "vcausal:el");
    EXPECT_GT(num(*manetho, "pb_recv_cpu_s"), num(vcausal, "pb_recv_cpu_s"));
    EXPECT_LT(cpu_share_pct(*manetho), 1.0);
    EXPECT_LT(cpu_share_pct(vcausal), 1.0);
  }
}

TEST(PaperRelations, Obs4ElRaisesThroughputCausalStaysUnderVdummy) {
  int pairs = 0;
  for (const Json* r : select("fig9.scn")) {
    const std::string variant = axis(*r, "variant");
    if (!variant.ends_with(":el")) continue;
    ++pairs;
    const std::string noel = variant.substr(0, variant.size() - 3) + ":noel";
    EXPECT_GT(num(*r, "mops"), num(twin("fig9.scn", *r, "variant", noel), "mops"))
        << text(*r, "label");
    const double vdummy = num(twin("fig9.scn", *r, "variant", "vdummy"), "mops");
    EXPECT_LT(num(*r, "mops"), vdummy) << text(*r, "label");
    EXPECT_LT(num(twin("fig9.scn", *r, "variant", "p4"), "mops"), vdummy);
  }
  EXPECT_GT(pairs, 0) << "fig9: no EL variant in the grid";
}

TEST(PaperRelations, Obs5RecoveryFlatWithElExplodingWithout) {
  std::vector<double> el;
  std::vector<double> noel;
  int last_nranks = 0;
  for (const Json* r : select("fig10.scn", {{"variant", "vcausal:el"}})) {
    const int nranks = std::stoi(axis(*r, "nranks"));
    EXPECT_GT(nranks, last_nranks) << "sweep order";
    last_nranks = nranks;
    EXPECT_EQ(text(*r, "outcome"), "recovered_exact") << text(*r, "label");
    el.push_back(num(*r, "recovery.collect_ms"));
    noel.push_back(num(twin("fig10.scn", *r, "variant", "vcausal:noel"),
                       "recovery.collect_ms"));
    EXPECT_LT(el.back(), noel.back()) << text(*r, "label");
  }
  ASSERT_GE(el.size(), 2u) << "fig10: need two cluster sizes";
  for (std::size_t i = 1; i < noel.size(); ++i) {
    EXPECT_GT(noel[i], noel[i - 1]) << "without the EL, at size " << i;
  }
  // Every survivor ships its copy without the EL: collect grows at least
  // ten times faster in cluster size than the EL's single transfer.
  EXPECT_LT(10.0 * el.back() / el.front(), noel.back() / noel.front());
}

TEST(PaperRelations, Obs6SlowOrSingleElLetsPiggybacksRegrow) {
  // A slower EL acks later, so less is stable at each send.
  const std::vector<const Json*> latency = select("ablation_el_latency.scn");
  for (std::size_t i = 1; i < latency.size(); ++i) {
    EXPECT_GT(num(*latency[i], "el.mean_ack_us"),
              num(*latency[i - 1], "el.mean_ack_us"));
    EXPECT_GT(num(*latency[i], "pb_pct"), num(*latency[i - 1], "pb_pct"));
  }
  // LU/16 saturates one EL: its ack backlog and piggybacks stay an order
  // of magnitude above any sharded EL's.
  const Json& single = one("ablation_multi_el.scn", {{"el_shards", "1"}});
  for (const Json* r : select("ablation_multi_el.scn")) {
    if (axis(*r, "el_shards") == "1") continue;
    EXPECT_GT(num(single, "pb_pct"), 10.0 * num(*r, "pb_pct"))
        << text(*r, "label");
    EXPECT_GT(num(single, "el.mean_ack_us"), 10.0 * num(*r, "el.mean_ack_us"))
        << text(*r, "label");
  }
  // The saturated shard stalls recovery too: collect shrinks with every
  // added shard, while the replay it feeds stays the same.
  const std::vector<const Json*> sat = select("fig10_saturated_el.scn");
  for (std::size_t i = 0; i < sat.size(); ++i) {
    EXPECT_EQ(text(*sat[i], "outcome"), "recovered_exact");
    if (i == 0) continue;
    EXPECT_LT(num(*sat[i], "recoveries.0.collect_ms"),
              num(*sat[i - 1], "recoveries.0.collect_ms"));
    EXPECT_NEAR(num(*sat[i], "recoveries.0.replay_ms"),
                num(*sat[0], "recoveries.0.replay_ms"),
                0.01 * num(*sat[0], "recoveries.0.replay_ms"));
  }
  EXPECT_GE(sat.size(), 2u);
}

TEST(PaperRelations, Obs7ShardingTheElRestoresThroughput) {
  // Past two shards the returns flatten: pb_pct rises 0.05 % from 4 to 8
  // shards, so only "never worse than two shards" is asserted.
  const Json& single = one("ablation_multi_el.scn", {{"el_shards", "1"}});
  const Json& two = one("ablation_multi_el.scn", {{"el_shards", "2"}});
  for (const Json* r : select("ablation_multi_el.scn")) {
    if (axis(*r, "el_shards") == "1") continue;
    EXPECT_GT(num(*r, "mops"), num(single, "mops")) << text(*r, "label");
    EXPECT_LE(num(*r, "pb_pct"), num(two, "pb_pct")) << text(*r, "label");
  }
}

TEST(PaperRelations, WireFormatLogOnIsWiderPerEventThanFactored) {
  // Section III-C: LogOn emits Manetho's selection in causal order and
  // cannot factor it by creator, so each event costs more bytes.
  const auto per_event = [](const Json& r) {
    return num(r, "pb_bytes") / num(r, "pb_events");
  };
  for (const Json* logon :
       select("ablation_wire_format.scn", {{"variant", "logon:noel"}})) {
    EXPECT_GE(per_event(*logon),
              static_cast<double>(causal::wire::kPlainPerEvent));
    const Json& manetho =
        twin("ablation_wire_format.scn", *logon, "variant", "manetho:noel");
    EXPECT_EQ(num(*logon, "pb_events"), num(manetho, "pb_events"));
    for (const char* v : {"vcausal:noel", "manetho:noel"}) {
      const Json& factored = twin("ablation_wire_format.scn", *logon,
                                  "variant", v);
      EXPECT_GE(per_event(factored),
                static_cast<double>(causal::wire::kFactoredPerEvent));
      EXPECT_GT(per_event(*logon), per_event(factored))
          << text(factored, "label");
    }
  }
}

TEST(PaperRelations, CheckpointsBoundTheSenderLogAndTheReplay) {
  // Section IV-B: sender-based payloads are freed when their receiver
  // checkpoints, so any schedule beats none on memory and replay length.
  const Json& none = one("ablation_ckpt_sched.scn", {{"ckpt_policy", "none"}});
  for (const Json* r : select("ablation_ckpt_sched.scn")) {
    if (axis(*r, "ckpt_policy") == "none") continue;
    EXPECT_LT(num(*r, "sender_log_peak_bytes"),
              num(none, "sender_log_peak_bytes"))
        << text(*r, "label");
    EXPECT_LT(num(*r, "recovery.events"), num(none, "recovery.events"))
        << text(*r, "label");
  }
}

// ---------------------------------------------------------------------------
// Scenario invariants: what each robustness scenario exists to show, on
// its quick grid.
// ---------------------------------------------------------------------------

TEST(ScenarioInvariants, FaultCampaignFailsOverAndRecoversExactly) {
  for (const Json* r : select("fault_campaign.scn")) {
    EXPECT_EQ(num(*r, "faults.el_failovers"), 1.0);
    const std::vector<Json>& recs = items(*r, "recoveries");
    EXPECT_FALSE(recs.empty());
    for (const Json& rec : recs) {
      EXPECT_TRUE(flag(rec, "complete"));
      EXPECT_GE(num(rec, "detect_ms"), 0.0);
    }
    const Json* ref = r->find("reference");
    EXPECT_TRUE(ref != nullptr && flag(*ref, "recovered_exact"));
  }
}

TEST(ScenarioInvariants, ChaosSoakCompletionNeverFallsWithElShards) {
  const std::string file = "chaos_soak.scn";
  EXPECT_EQ(num(report(file), "outcomes.total"),
            static_cast<double>(all_runs(file).size()));
  // (rank rate, daemon rate) -> el_shards -> {finished, non-skipped runs}
  std::map<std::pair<std::string, std::string>,
           std::map<int, std::pair<int, int>>>
      grid;
  for (const Json* r : select(file)) {
    auto& cell = grid[{axis(*r, "faults.rank_rate"),
                       axis(*r, "faults.daemon_rate")}]
                     [std::stoi(axis(*r, "el_shards"))];
    const std::string outcome = text(*r, "outcome");
    cell.first += outcome == "completed" || outcome == "recovered_exact";
    ++cell.second;
  }
  for (const auto& [rates, by_shards] : grid) {
    double last = -1;
    for (const auto& [shards, cell] : by_shards) {
      const double p = static_cast<double>(cell.first) / cell.second;
      EXPECT_GE(p, last) << "rank/min " << rates.first << ", daemon/min "
                         << rates.second << ", el_shards " << shards;
      last = p;
    }
  }
}

TEST(ScenarioInvariants, SplitBrainReconcilesWithoutSurvivingDuplicates) {
  for (const Json* r : select("split_brain.scn")) {
    SCOPED_TRACE(text(*r, "label"));
    EXPECT_GE(num(*r, "faults.partitions"), 1.0);
    EXPECT_GE(num(*r, "faults.el_suspects"), 1.0);
    EXPECT_GE(num(*r, "faults.el_reconciles"), 1.0);
    const std::vector<Json>& recs = items(*r, "el_reconciles");
    EXPECT_EQ(static_cast<double>(recs.size()),
              num(*r, "faults.el_reconciles"));
    double resubmitted = 0;
    for (const Json& s : items(*r, "rank_stats")) {
      resubmitted += num(s, "el_dup_submissions");
    }
    for (const Json& rec : recs) {
      EXPECT_TRUE(flag(rec, "complete"));
      // The successor can only drop what clients resubmitted to it.
      EXPECT_LE(num(rec, "dup_dropped"), resubmitted);
    }
    if (const Json* ref = r->find("reference")) {
      EXPECT_TRUE(flag(*ref, "recovered_exact"));
    }
  }
}

TEST(ScenarioInvariants, FamilyRaceEveryFamilyRecoversInItsOwnWay) {
  scenario::ScenarioSpec spec = load("family_race.scn");
  scenario::apply_quick(spec);
  for (const Json* r : select("family_race.scn")) {
    SCOPED_TRACE(text(*r, "label"));
    const std::string outcome = text(*r, "outcome");
    EXPECT_TRUE(outcome == "completed" || outcome == "recovered_exact" ||
                outcome == "completed_shrunk" || outcome == "abandoned")
        << outcome;
    const bool finished = outcome != "abandoned";
    const std::string variant = axis(*r, "variant");
    const std::string nranks_axis = axis(*r, "nranks");
    const int nranks =
        nranks_axis.empty() ? spec.nranks : std::stoi(nranks_axis);
    const double crashes = num(*r, "faults.rank_crashes");
    const std::vector<Json>& recs = items(*r, "recoveries");
    if (variant == "replica") {
      // Crash-transparent: the shadow takes over, nothing restarts.
      EXPECT_TRUE(recs.empty());
      const std::vector<Json>& proms = items(*r, "promotions");
      EXPECT_EQ(static_cast<double>(proms.size()), crashes);
      for (const Json& p : proms) EXPECT_TRUE(!finished || flag(p, "complete"));
    } else if (variant == "ulfm") {
      // Shrink and repair: one repair per crash, one survivor fewer each.
      EXPECT_TRUE(recs.empty());
      const std::vector<Json>& repairs = items(*r, "repairs");
      EXPECT_EQ(static_cast<double>(repairs.size()), crashes);
      for (std::size_t i = 0; i < repairs.size(); ++i) {
        EXPECT_EQ(num(repairs[i], "survivors"),
                  static_cast<double>(nranks - 1 - static_cast<int>(i)));
        EXPECT_TRUE(!finished || flag(repairs[i], "complete"));
      }
    } else if (crashes > 0 && finished) {
      // Logging and coordinated restart from records.
      EXPECT_FALSE(recs.empty());
    }
  }
}

TEST(ScenarioInvariants, ScaleProbeCarriesTheMetricsSections) {
  for (const Json* r : select("scale_probe.scn")) {
    SCOPED_TRACE(text(*r, "label"));
    EXPECT_GE(num(*r, "el.p99_ack_us"), num(*r, "el.p50_ack_us"));
    const Json* metrics = r->find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_NE(metrics->find("histograms"), nullptr);
    EXPECT_GT(num(*metrics, "series.rows"), 0.0);
  }
}

}  // namespace
}  // namespace mpiv
