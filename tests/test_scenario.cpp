// Tests for the scenario layer: builder validation, registry lookups,
// scenario-file parse round-trips, sweep expansion (cartesian + skip
// semantics), quick overlays, lowering, and the JSON report shape.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "util/json.hpp"

namespace mpiv {
namespace {

using scenario::ScenarioBuilder;
using scenario::ScenarioSpec;
using scenario::SpecError;

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const SpecError& e) {
    return e.what();
  }
  return "";
}

// ---------------------------------------------------------------------------
// Builder validation (build() must reject, with actionable messages)
// ---------------------------------------------------------------------------

TEST(Builder, RejectsNonPositiveRanks) {
  const std::string msg =
      error_of([] { ScenarioBuilder("t").nranks(0).build(); });
  EXPECT_NE(msg.find("nranks must be in [1, 4096] (got 0)"), std::string::npos)
      << msg;
  EXPECT_THROW(ScenarioBuilder("t").nranks(-3).build(), SpecError);
}

TEST(Builder, RejectsBadShardCounts) {
  const std::string msg = error_of(
      [] { ScenarioBuilder("t").variant("vcausal:el").el_shards(0).build(); });
  EXPECT_NE(msg.find("el_shards must be >= 1"), std::string::npos) << msg;
  // More shards than ranks is impossible to place.
  EXPECT_THROW(
      ScenarioBuilder("t").variant("vcausal:el").nranks(4).el_shards(8).build(),
      SpecError);
}

TEST(Builder, RejectsShardsWithoutEventLogger) {
  const std::string msg = error_of([] {
    ScenarioBuilder("t").variant("vcausal:noel").nranks(8).el_shards(2).build();
  });
  EXPECT_NE(msg.find("disables the event logger"), std::string::npos) << msg;
  // Unset shards with a no-EL variant stays fine, and so does an explicit
  // el_shards = 1 (no sharding) — matching the Cluster-level check.
  EXPECT_NO_THROW(ScenarioBuilder("t").variant("vcausal:noel").build());
  EXPECT_NO_THROW(
      ScenarioBuilder("t").variant("vcausal:noel").el_shards(1).build());
}

TEST(Builder, RejectsFaultPlanNamingMissingRank) {
  const std::string msg = error_of([] {
    ScenarioBuilder("t").nranks(4).variant("vcausal:el").fault_at(1000, 4).build();
  });
  EXPECT_NE(msg.find("names rank 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("0..3"), std::string::npos) << msg;
  EXPECT_THROW(
      ScenarioBuilder("t").nranks(4).variant("vcausal:el").midrun_fault(9).build(),
      SpecError);
}

TEST(Builder, RejectsFaultsUnderP4) {
  EXPECT_THROW(ScenarioBuilder("t").variant("p4").fault_at(10, 0).build(),
               SpecError);
}

TEST(Builder, RejectsUnknownWorkloadParameters) {
  const std::string msg = error_of([] {
    ScenarioBuilder("t").workload("ring").wparam("lapz", 20).build();
  });
  EXPECT_NE(msg.find("no parameter 'lapz'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("laps, bytes"), std::string::npos) << msg;
}

TEST(Builder, SwitchingWorkloadsDropsStaleParameters) {
  // The textual path (apply_key / scenario files / --set) matches the
  // builder contract: a new workload name clears the old workload's
  // parameters instead of leaking them into the new one.
  ScenarioSpec spec = scenario::parse_scenario_text(
      "workload = random_any\n"
      "workload.bytes = 1111\n"
      "workload = ring\n");
  EXPECT_TRUE(spec.workload.params.empty());
  scenario::apply_key(spec, "nas", "lu:A:0.1");
  EXPECT_EQ(spec.workload.params.size(), 3u);  // kernel/class/scale only
}

TEST(Builder, AcceptsTheDefaultSpec) {
  const ScenarioSpec spec = ScenarioBuilder("defaults").build();
  EXPECT_EQ(spec.nranks, 4);
  EXPECT_EQ(spec.variant.protocol, runtime::ProtocolKind::kVdummy);
  EXPECT_EQ(spec.workload.name, "ring");
}

// ---------------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------------

TEST(Registry, ResolvesKnownNames) {
  EXPECT_EQ(scenario::protocols().at("p4").kind, runtime::ProtocolKind::kP4);
  EXPECT_EQ(scenario::strategies().at("manetho").kind,
            causal::StrategyKind::kManetho);
  EXPECT_NE(scenario::workload_registry().find("nas"), nullptr);
  EXPECT_EQ(scenario::workload_registry().find("no_such_thing"), nullptr);
}

TEST(Registry, UnknownNameErrorListsWhatIsRegistered) {
  const std::string msg =
      error_of([] { scenario::strategies().at("vclausal"); });
  EXPECT_NE(msg.find("unknown strategy 'vclausal'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("vcausal"), std::string::npos) << msg;
  EXPECT_NE(msg.find("logon"), std::string::npos) << msg;
}

TEST(Registry, UnknownProtocolErrorNamesOffenderAndFamilies) {
  const std::string msg = error_of([] { scenario::protocols().at("raft"); });
  EXPECT_NE(msg.find("unknown protocol 'raft'"), std::string::npos) << msg;
  // The listing must include the newer families, not just the seed set.
  EXPECT_NE(msg.find("replica"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ulfm"), std::string::npos) << msg;
  EXPECT_NE(msg.find("coordinated"), std::string::npos) << msg;
}

TEST(Registry, UnknownWorkloadErrorNamesOffender) {
  const std::string msg =
      error_of([] { scenario::workload_registry().at("matmul"); });
  EXPECT_NE(msg.find("unknown workload 'matmul'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ring"), std::string::npos) << msg;
  EXPECT_NE(msg.find("nas"), std::string::npos) << msg;
}

TEST(Registry, EveryRegisteredNameParsesBackThroughScn) {
  // Whatever is registered must be reachable from a .scn file and survive
  // a serialize/reparse cycle — a protocol you can instantiate but not
  // name in a scenario is a registration bug.
  for (const auto& [name, e] : scenario::protocols().entries()) {
    if (e.kind == runtime::ProtocolKind::kCausal) continue;  // needs strategy
    const ScenarioSpec spec =
        scenario::parse_scenario_text("variant = " + name + "\n");
    EXPECT_EQ(spec.variant.protocol, e.kind) << name;
    const ScenarioSpec again =
        scenario::parse_scenario_text(scenario::to_scenario_text(spec));
    EXPECT_EQ(again.variant.protocol, e.kind) << name;
    EXPECT_EQ(again.variant.name, spec.variant.name) << name;
  }
  for (const auto& [name, e] : scenario::strategies().entries()) {
    for (const char* suffix : {":el", ":noel"}) {
      const ScenarioSpec spec =
          scenario::parse_scenario_text("variant = " + name + suffix + "\n");
      EXPECT_EQ(spec.variant.protocol, runtime::ProtocolKind::kCausal);
      EXPECT_EQ(spec.variant.strategy, e.kind) << name << suffix;
      const ScenarioSpec again =
          scenario::parse_scenario_text(scenario::to_scenario_text(spec));
      EXPECT_EQ(again.variant.strategy, e.kind) << name << suffix;
      EXPECT_EQ(again.variant.event_logger, spec.variant.event_logger);
    }
  }
  for (const auto& [name, e] : scenario::workload_registry().entries()) {
    const ScenarioSpec spec =
        scenario::parse_scenario_text("workload = " + name + "\n");
    EXPECT_EQ(spec.workload.name, name);
    const ScenarioSpec again =
        scenario::parse_scenario_text(scenario::to_scenario_text(spec));
    EXPECT_EQ(again.workload.name, name);
  }
}

TEST(Registry, StrategyFactoryResolvesThroughRegistry) {
  // causal::make_strategy is now a registry lookup; names must agree.
  auto s = causal::make_strategy(causal::StrategyKind::kLogOn);
  EXPECT_STREQ(s->name(), "LogOn");
  EXPECT_STREQ(causal::strategy_kind_name(causal::StrategyKind::kVcausal),
               "Vcausal");
}

TEST(Registry, VariantNamesParse) {
  const scenario::VariantSpec v = scenario::parse_variant("manetho:noel");
  EXPECT_EQ(v.protocol, runtime::ProtocolKind::kCausal);
  EXPECT_EQ(v.strategy, causal::StrategyKind::kManetho);
  EXPECT_FALSE(v.event_logger);
  EXPECT_EQ(v.label, "Manetho (no EL)");
  // Unsuffixed causal strategies default to the EL being on.
  EXPECT_TRUE(scenario::parse_variant("vcausal").event_logger);
  EXPECT_THROW(scenario::parse_variant("p4:noel"), SpecError);
  const std::string msg =
      error_of([] { scenario::parse_variant("mpich-p5"); });
  EXPECT_NE(msg.find("unknown variant"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// Scenario file format
// ---------------------------------------------------------------------------

TEST(ScenarioFile, ParseRoundTripPreservesTheSpec) {
  ScenarioBuilder b("roundtrip");
  net::CostModel cost;
  cost.el_service = 120 * sim::kMicrosecond;
  b.variant("logon:el")
      .nranks(9)
      .el_shards(3)
      .seed(42)
      .cost(cost)
      .checkpoint(ckpt::Policy::kRandom, 75 * sim::kMillisecond)
      .fault_at(120 * sim::kMillisecond, 2)
      .fault_rate(0.5)
      .nas(workloads::NasKernel::kBT, workloads::NasClass::kA, 0.15)
      .sweep("nranks", {"4", "9", "16"});
  const ScenarioSpec spec = b.build();

  const ScenarioSpec reparsed =
      scenario::parse_scenario_text(scenario::to_scenario_text(spec));
  EXPECT_EQ(reparsed.name, spec.name);
  EXPECT_EQ(reparsed.variant.name, spec.variant.name);
  EXPECT_EQ(reparsed.variant.protocol, spec.variant.protocol);
  EXPECT_EQ(reparsed.variant.strategy, spec.variant.strategy);
  EXPECT_EQ(reparsed.nranks, spec.nranks);
  EXPECT_EQ(reparsed.el_shards, spec.el_shards);
  EXPECT_EQ(reparsed.seed, spec.seed);
  EXPECT_EQ(reparsed.cost.el_service, spec.cost.el_service);
  EXPECT_EQ(reparsed.ckpt_policy, spec.ckpt_policy);
  EXPECT_EQ(reparsed.ckpt_interval, spec.ckpt_interval);
  const std::vector<fault::Injection>& inj =
      reparsed.faults.campaign.injections;
  ASSERT_EQ(inj.size(), 2u);
  EXPECT_EQ(inj[0].at, spec.faults.campaign.injections[0].at);
  EXPECT_EQ(inj[0].index, spec.faults.campaign.injections[0].index);
  EXPECT_DOUBLE_EQ(inj[1].rate_per_minute, 0.5);
  EXPECT_EQ(reparsed.workload.name, "nas");
  EXPECT_EQ(reparsed.workload.params, spec.workload.params);
  ASSERT_EQ(reparsed.sweep.size(), 1u);
  EXPECT_EQ(reparsed.sweep[0].first, "nranks");
  EXPECT_EQ(reparsed.sweep[0].second,
            (std::vector<std::string>{"4", "9", "16"}));
}

TEST(ScenarioFile, TraceKeysRoundTripAndStayOutOfDefaultText) {
  ScenarioBuilder b("traced");
  b.variant("vcausal:el")
      .nranks(4)
      .trace()
      .trace_capacity(1024)
      .trace_dir("/tmp/mpiv-traces")
      .compare_reference();
  const ScenarioSpec spec = b.build();

  const std::string text = scenario::to_scenario_text(spec);
  EXPECT_NE(text.find("[trace]"), std::string::npos) << text;
  const ScenarioSpec reparsed = scenario::parse_scenario_text(text);
  EXPECT_TRUE(reparsed.trace.enabled);
  EXPECT_EQ(reparsed.trace.capacity, 1024u);
  EXPECT_EQ(reparsed.trace_dir, "/tmp/mpiv-traces");
  EXPECT_TRUE(reparsed.compare_reference);

  // A spec that never touched the trace knobs must not grow a [trace]
  // section (keeps goldens of emitted text stable).
  ScenarioBuilder plain("plain");
  plain.variant("vcausal:el").nranks(4);
  EXPECT_EQ(scenario::to_scenario_text(plain.build()).find("[trace]"),
            std::string::npos);

  // The flat key spelling works outside the section header too.
  const ScenarioSpec flat = scenario::parse_scenario_text(
      "trace.enabled = true\ntrace.capacity = 256\n");
  EXPECT_TRUE(flat.trace.enabled);
  EXPECT_EQ(flat.trace.capacity, 256u);

  // validate() bounds the per-lane ring.
  const std::string msg = error_of([] {
    ScenarioSpec bad;
    bad.trace.capacity = 4;
    scenario::validate(bad);
  });
  EXPECT_NE(msg.find("trace.capacity"), std::string::npos) << msg;
}

TEST(ScenarioFile, FamilyKeysRoundTripAndStayOutOfDefaultText) {
  const ScenarioSpec spec = scenario::parse_scenario_text(
      "variant = replica\n"
      "replica.sync_interval = 4\n"
      "ulfm.repair_cost = 7ms\n");
  EXPECT_EQ(spec.replica_sync_interval, 4);
  EXPECT_EQ(spec.ulfm_repair_cost, 7 * sim::kMillisecond);

  const std::string text = scenario::to_scenario_text(spec);
  EXPECT_NE(text.find("replica.sync_interval = 4"), std::string::npos) << text;
  const ScenarioSpec reparsed = scenario::parse_scenario_text(text);
  EXPECT_EQ(reparsed.replica_sync_interval, 4);
  EXPECT_EQ(reparsed.ulfm_repair_cost, 7 * sim::kMillisecond);

  // Default values stay out of emitted text (keeps text goldens stable).
  const std::string plain =
      scenario::to_scenario_text(ScenarioBuilder("plain").build());
  EXPECT_EQ(plain.find("replica.sync_interval"), std::string::npos);
  EXPECT_EQ(plain.find("ulfm.repair_cost"), std::string::npos);
  EXPECT_EQ(plain.find("payload_at_sender"), std::string::npos);

  // validate() bounds the new knobs.
  EXPECT_NE(error_of([] {
              scenario::validate(scenario::parse_scenario_text(
                  "replica.sync_interval = -2\n"));
            }).find("replica.sync_interval"),
            std::string::npos);
}

TEST(ScenarioFile, FuzzedTextParsesOrRaisesSpecErrorNeverCrashes) {
  // Seeded mutation fuzz over the parser: every mutant must either parse
  // into a spec whose serialization is a fixed point of the round trip, or
  // raise SpecError — anything else (crash, UB under the sanitizer leg,
  // non-canonical serialization) fails here.
  std::vector<std::string> bases;
  {
    ScenarioBuilder b("fuzz_base");
    b.variant("manetho:el")
        .nranks(8)
        .el_shards(2)
        .seed(7)
        .checkpoint(ckpt::Policy::kRoundRobin, 30 * sim::kMillisecond)
        .compare_reference()
        .sweep("nranks", {"4", "8"})
        .sweep("seed", {"1", "2", "3"});
    bases.push_back(scenario::to_scenario_text(b.build()));
  }
  {
    std::ifstream f(std::string(MPIV_SOURCE_DIR) +
                    "/scenarios/chaos_soak.scn");
    ASSERT_TRUE(f.good());
    std::ostringstream text;
    text << f.rdbuf();
    bases.push_back(text.str());
  }

  const std::string charset =
      "abcdefghijklmnopqrstuvwxyz0123456789=.,:[]#|+- \t\n";
  std::mt19937_64 rng(0xf022);
  std::size_t parsed_ok = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::string text = bases[iter % bases.size()];
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng() % text.size();
      switch (rng() % 4) {
        case 0: text[at] = charset[rng() % charset.size()]; break;
        case 1: text.erase(at, 1); break;
        case 2:
          text.insert(at, 1, charset[rng() % charset.size()]);
          break;
        case 3: {  // duplicate the line containing `at`
          std::size_t begin = text.rfind('\n', at);
          begin = begin == std::string::npos ? 0 : begin + 1;
          std::size_t end = text.find('\n', at);
          end = end == std::string::npos ? text.size() : end + 1;
          text.insert(begin, text.substr(begin, end - begin));
          break;
        }
      }
    }
    try {
      const ScenarioSpec spec = scenario::parse_scenario_text(text, "fuzz");
      const std::string t1 = scenario::to_scenario_text(spec);
      const ScenarioSpec reparsed = scenario::parse_scenario_text(t1, "fuzz2");
      ASSERT_EQ(scenario::to_scenario_text(reparsed), t1)
          << "round trip is not a fixed point for mutant " << iter << ":\n"
          << text;
      ++parsed_ok;
    } catch (const SpecError&) {
      // Rejecting a mutant is fine; crashing on one is not.
    }
  }
  // The mutation distribution must exercise the accept path too, or the
  // round-trip half of this test silently tests nothing.
  EXPECT_GT(parsed_ok, 20u);
}

TEST(ScenarioFile, PayloadAtSenderIsCausalOnly) {
  // The flag round-trips on a causal variant...
  ScenarioBuilder b("pas");
  b.variant("vcausal:el").payload_at_sender();
  const std::string text = scenario::to_scenario_text(b.build());
  EXPECT_NE(text.find("payload_at_sender = true"), std::string::npos) << text;
  EXPECT_TRUE(scenario::parse_scenario_text(text).payload_at_sender);
  EXPECT_NO_THROW(scenario::validate(scenario::parse_scenario_text(text)));

  // ...and is rejected, naming the variant, anywhere else.
  const std::string msg = error_of([] {
    scenario::validate(scenario::parse_scenario_text(
        "variant = replica\npayload_at_sender = true\n"));
  });
  EXPECT_NE(msg.find("payload_at_sender"), std::string::npos) << msg;
  EXPECT_NE(msg.find("replica"), std::string::npos) << msg;
}

TEST(ScenarioFile, ParseErrorsCarryFileAndLine) {
  const std::string msg = error_of([] {
    scenario::parse_scenario_text("[scenario]\nnranks = 4\nbogus_key = 1\n",
                                  "demo.scn");
  });
  EXPECT_NE(msg.find("demo.scn:3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown scenario key 'bogus_key'"), std::string::npos)
      << msg;
  EXPECT_THROW(scenario::parse_scenario_text("[nonsense]\n"), SpecError);
  EXPECT_THROW(scenario::parse_scenario_text("no equals sign\n"), SpecError);
  EXPECT_THROW(scenario::parse_scenario_text("nranks = twelve\n"), SpecError);
}

TEST(ScenarioFile, DurationsAndCommentsParse) {
  const ScenarioSpec spec = scenario::parse_scenario_text(
      "# comment\n"
      "ckpt_policy = round-robin   # trailing comment\n"
      "ckpt_interval = 75ms\n"
      "detection_delay = 250us\n"
      "max_sim_time = 2h\n");
  EXPECT_EQ(spec.ckpt_policy, ckpt::Policy::kRoundRobin);
  EXPECT_EQ(spec.ckpt_interval, 75 * sim::kMillisecond);
  EXPECT_EQ(spec.detection_delay, 250 * sim::kMicrosecond);
  EXPECT_EQ(spec.max_sim_time, 2LL * 3600 * sim::kSecond);
}

TEST(ScenarioFile, NumbersThatDoNotFitTheirFieldAreRejected) {
  // Unchecked, each value would wrap in a narrowing cast, silently turn a
  // stream off, abort in the RNG, hang the engine, or convert a double to
  // int64 out of range.
  struct Case {
    const char* text;
    const char* key;
  };
  for (const Case& c : {
           Case{"nranks = 4294967300\n", "'nranks'"},
           Case{"[trace]\ncapacity = 4294967312\n", "'trace.capacity'"},
           Case{"[faults]\nrank_rate = nan\n", "'faults.rank_rate'"},
           Case{"[faults]\nrank_rate = inf\n", "'faults.rank_rate'"},
           Case{"[faults]\nrank_rate = 1e300\n", "'faults.rank_rate'"},
           Case{"max_sim_time = 1e300s\n", "'max_sim_time'"},
           Case{"[faults]\ndaemon_rate = 7e10\n", "'faults.daemon_rate'"},
           Case{"[faults]\ncrash_rank = 1ms:4294967296\n",
                "'faults.crash_rank'"},
           Case{"[cost]\nnode_gflops = inf\n", "'cost.node_gflops'"},
       }) {
    const std::string msg =
        error_of([&] { scenario::parse_scenario_text(c.text, "demo.scn"); });
    EXPECT_NE(msg.find(c.key), std::string::npos) << c.text << msg;
    EXPECT_NE(msg.find("demo.scn:"), std::string::npos) << c.text << msg;
  }
  // The largest fitting values still parse.
  const ScenarioSpec ok = scenario::parse_scenario_text(
      "nranks = 2147483647\n"
      "trace.capacity = 4294967295\n"
      "faults.rank_rate = 6e10\n"
      "max_sim_time = 9e18\n");
  EXPECT_EQ(ok.nranks, 2147483647);
  EXPECT_EQ(ok.trace.capacity, 4294967295u);
  EXPECT_EQ(ok.max_sim_time, 9000000000000000000);
}

TEST(ScenarioFile, OutOfBoundSweepValuesAreSkippedPoints) {
  // Values that fit their field but break a bound are validate()'s call,
  // so a sweep corner stays a skipped point rather than a parse error.
  const ScenarioSpec spec = scenario::parse_scenario_text(
      "[sweep]\n"
      "nranks = 4, 5000\n"
      "trace.capacity = 8, 64\n");
  const std::vector<scenario::RunPoint> points = scenario::expand(spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_NE(points[0].skip_reason.find("trace.capacity must be in [16, "
                                       "4194304] (got 8)"),
            std::string::npos)
      << points[0].skip_reason;
  EXPECT_FALSE(points[1].skipped) << points[1].skip_reason;
  EXPECT_NE(points[3].skip_reason.find("nranks must be in [1, 4096] (got "
                                       "5000)"),
            std::string::npos)
      << points[3].skip_reason;
}

// ---------------------------------------------------------------------------
// The key table: one row per key drives parse, print, --list and the docs
// ---------------------------------------------------------------------------

std::string mpiv_run_list() {
  std::string out;
  std::FILE* p = ::popen(MPIV_RUN_BINARY " --list", "r");
  if (p == nullptr) return out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) out.append(buf, n);
  ::pclose(p);
  return out;
}

TEST(KeyTable, EveryRowAppliesRoundTripsAndIsListed) {
  const std::string listing = mpiv_run_list();
  ASSERT_NE(listing.find("[faults]"), std::string::npos) << listing;
  std::size_t rows = 0;
  for (const scenario::KeyInfo& k : scenario::key_table()) {
    SCOPED_TRACE(k.key);
    ++rows;
    // `workload.*` stands for the parameter family; exercise one member.
    std::string key = k.key;
    if (key.back() == '*') key.replace(key.size() - 1, 1, "laps");

    ScenarioSpec flat;
    ASSERT_NO_THROW(scenario::apply_key(flat, key, k.example));
    const std::string text = scenario::to_scenario_text(flat);
    EXPECT_EQ(scenario::to_scenario_text(scenario::parse_scenario_text(text)),
              text);

    // The same line under its [section] header lands identically.
    const std::string section = k.section;
    const std::string local = section == "scenario"
                                  ? key
                                  : key.substr(section.size() + 1);
    const ScenarioSpec sectioned = scenario::parse_scenario_text(
        "[" + section + "]\n" + local + " = " + k.example + "\n");
    EXPECT_EQ(scenario::to_scenario_text(sectioned), text);

    EXPECT_NE(listing.find(std::string(" ") + k.key + " "), std::string::npos);
  }
  EXPECT_EQ(rows, 56u);  // 55 keys plus the workload.* family

  ScenarioSpec spec;
  EXPECT_THROW(scenario::apply_key(spec, "faults.no_such_key", "1"), SpecError);
  const std::string msg =
      error_of([&] { scenario::apply_key(spec, "cost.no_such_key", "1"); });
  EXPECT_NE(msg.find("cost.wire_latency"), std::string::npos) << msg;
}

TEST(KeyTable, BundledScenariosReachATextFixedPoint) {
  // Every bundled scenario, parsed and at every expanded point, full and
  // quick, serializes to text that parses back to the same text.
  std::size_t files = 0;
  for (const char* dir : {"/scenarios", "/bench/e2e/workloads"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(MPIV_SOURCE_DIR) + dir)) {
      if (entry.path().extension() != ".scn") continue;
      SCOPED_TRACE(entry.path().string());
      ++files;
      const ScenarioSpec parsed =
          scenario::parse_scenario_file(entry.path().string());
      ScenarioSpec quick = parsed;
      scenario::apply_quick(quick);
      for (const ScenarioSpec& spec : {parsed, quick}) {
        const std::string text = scenario::to_scenario_text(spec);
        EXPECT_EQ(
            scenario::to_scenario_text(scenario::parse_scenario_text(text)),
            text);
        for (const scenario::RunPoint& p : scenario::expand(spec)) {
          const std::string t = scenario::to_scenario_text(p.spec);
          const ScenarioSpec back = scenario::parse_scenario_text(t);
          EXPECT_EQ(scenario::to_scenario_text(back), t) << p.label;
        }
      }
    }
  }
  EXPECT_GE(files, 20u);
}

// ---------------------------------------------------------------------------
// Sweep expansion and quick overlays
// ---------------------------------------------------------------------------

TEST(Sweep, CartesianExpansionWithSkips) {
  ScenarioSpec spec = scenario::parse_scenario_text(
      "workload = nas\n"
      "nas = bt:A:0.1\n"
      "[sweep]\n"
      "nranks = 2, 4, 9\n"
      "variant = vcausal:el, manetho:el\n");
  const std::vector<scenario::RunPoint> points = scenario::expand(spec);
  ASSERT_EQ(points.size(), 6u);  // 3 x 2
  // BT needs square rank counts: the nranks=2 points are skipped, not lost.
  EXPECT_TRUE(points[0].skipped);
  EXPECT_NE(points[0].skip_reason.find("BT"), std::string::npos);
  EXPECT_FALSE(points[2].skipped);  // nranks=4
  EXPECT_EQ(points[2].spec.nranks, 4);
  EXPECT_EQ(points[2].spec.variant.strategy, causal::StrategyKind::kVcausal);
  EXPECT_EQ(points[3].spec.variant.strategy, causal::StrategyKind::kManetho);
  EXPECT_NE(points[3].label.find("Manetho (EL)"), std::string::npos);
  EXPECT_NE(points[3].label.find("nranks=4"), std::string::npos);
}

TEST(Sweep, InfeasibleSweepCornersAreSkippedNotFatal) {
  // A cross-product sweep may have corners the spec validator rejects
  // (8 shards on 4 ranks, shards crossed with a no-EL variant); those
  // become skipped points with the validation message as the reason,
  // while the feasible corners still run.
  ScenarioSpec spec = scenario::parse_scenario_text(
      "nranks = 4\n"
      "[sweep]\n"
      "variant = vcausal:el, vcausal:noel\n"
      "el_shards = 1, 8\n");
  const std::vector<scenario::RunPoint> points = scenario::expand(spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_FALSE(points[0].skipped);  // el, 1 shard
  EXPECT_TRUE(points[1].skipped);   // el, 8 shards > 4 ranks
  EXPECT_NE(points[1].skip_reason.find("cannot exceed"), std::string::npos);
  EXPECT_FALSE(points[2].skipped);  // noel, 1 shard (no sharding)
  EXPECT_TRUE(points[3].skipped);   // noel, 8 shards
  // A sweepless spec still escalates the same failure to an error.
  ScenarioSpec bad = scenario::parse_scenario_text(
      "variant = vcausal:el\nnranks = 4\nel_shards = 8\n");
  EXPECT_THROW(scenario::expand(bad), SpecError);
}

TEST(Quick, OverlayReplacesAxesAndScalars) {
  ScenarioSpec spec = scenario::parse_scenario_text(
      "nranks = 8\n"
      "workload = ring\n"
      "workload.laps = 60\n"
      "[sweep]\n"
      "variant = vcausal:el, manetho:el, logon:el\n"
      "[quick]\n"
      "workload.laps = 5\n"
      "variant = vcausal:el\n");
  scenario::apply_quick(spec);
  EXPECT_EQ(spec.workload.params.at("laps"), "5");
  ASSERT_EQ(spec.sweep.size(), 1u);  // axis replaced, not duplicated
  EXPECT_EQ(spec.sweep[0].second, (std::vector<std::string>{"vcausal:el"}));
  EXPECT_TRUE(spec.quick.empty());
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

TEST(Lowering, MapsEveryFieldOntoClusterConfig) {
  ScenarioBuilder b("lowering");
  b.variant("manetho:noel")
      .nranks(6)
      .seed(99)
      .checkpoint(ckpt::Policy::kRoundRobin, 50 * sim::kMillisecond)
      .fault_at(70 * sim::kMillisecond, 5)
      .detection_delay(100 * sim::kMillisecond)
      .max_sim_time(30 * sim::kSecond);
  const runtime::ClusterConfig cfg = scenario::lower(b.build());
  EXPECT_EQ(cfg.nranks, 6);
  EXPECT_EQ(cfg.protocol, runtime::ProtocolKind::kCausal);
  EXPECT_EQ(cfg.strategy, causal::StrategyKind::kManetho);
  EXPECT_FALSE(cfg.event_logger);
  EXPECT_EQ(cfg.el_shards, 1);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.ckpt_policy, ckpt::Policy::kRoundRobin);
  EXPECT_EQ(cfg.ckpt_interval, 50 * sim::kMillisecond);
  ASSERT_EQ(cfg.campaign.injections.size(), 1u);
  EXPECT_EQ(cfg.campaign.injections[0].index, 5);
  EXPECT_EQ(cfg.detection_delay, 100 * sim::kMillisecond);
  EXPECT_EQ(cfg.max_sim_time, 30 * sim::kSecond);
}

// Legacy construction validates too: a hand-built ClusterConfig that the
// builder would reject dies with the same story.
using ClusterDeath = ::testing::Test;

TEST(ClusterDeath, RejectsShardsWithoutEventLogger) {
  runtime::ClusterConfig cfg;
  cfg.nranks = 8;
  cfg.protocol = runtime::ProtocolKind::kCausal;
  cfg.event_logger = false;
  cfg.el_shards = 2;
  EXPECT_DEATH(runtime::Cluster{cfg}, "requires event_logger");
}

TEST(ClusterDeath, RejectsFaultOnMissingRank) {
  runtime::ClusterConfig cfg;
  cfg.nranks = 4;
  cfg.protocol = runtime::ProtocolKind::kCausal;
  cfg.campaign.injections.push_back(fault::rank_crash_at(1000, 7));
  EXPECT_DEATH(runtime::Cluster{cfg}, "names rank 7");
}

// ---------------------------------------------------------------------------
// Runner + JSON report shape
// ---------------------------------------------------------------------------

TEST(Report, JsonIsWellFormedAndCarriesTheSweep) {
  ScenarioBuilder b("report");
  b.nranks(4)
      .ring(/*laps=*/5, /*token_bytes=*/256)
      .sweep("variant", {"vdummy", "vcausal:el"});
  scenario::RunSet set = scenario::run(b.build());
  set.origin = "test";
  ASSERT_EQ(set.runs.size(), 2u);
  EXPECT_TRUE(set.runs[0].completed);
  EXPECT_TRUE(set.runs[1].completed);

  const std::string json = scenario::to_json(set);
  EXPECT_NO_THROW(util::parse_json(json)) << json;
  for (const char* needle :
       {"\"scenario\": \"report\"", "\"runs\":", "\"label\": \"Vcausal (EL)\"",
        "\"completed\": true", "\"pb_bytes\":", "\"checksum\":",
        "\"sim_time_s\":", "\"el\":", "\"recovery\":", "\"axes\":"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
  // Multi-report envelope is valid too.
  EXPECT_NO_THROW(util::parse_json(
      scenario::to_json(std::vector<scenario::RunSet>{set, set})));
}

TEST(Report, SkippedPointsAreReportedNotDropped) {
  ScenarioSpec spec = scenario::parse_scenario_text(
      "workload = nas\n"
      "nas = bt:A:0.05\n"
      "variant = vcausal:el\n"
      "[sweep]\n"
      "nranks = 2, 4\n");
  const scenario::RunSet set = scenario::run(spec);
  ASSERT_EQ(set.runs.size(), 2u);
  EXPECT_TRUE(set.runs[0].skipped);
  EXPECT_FALSE(set.runs[1].skipped);
  const std::string json = scenario::to_json(set);
  EXPECT_NO_THROW(util::parse_json(json));
  EXPECT_NE(json.find("\"skipped\": true"), std::string::npos);
  EXPECT_NE(json.find("\"skip_reason\":"), std::string::npos);
}

TEST(Runner, PingpongResultsLandInTheReport) {
  ScenarioBuilder b("pp");
  b.variant("vcausal:el").nranks(2).pingpong({1, 1024}, 20);
  const scenario::RunResult r = scenario::run_spec(b.build());
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.pingpong.points.size(), 2u);
  EXPECT_GT(r.pingpong.points[0].latency_us, 0);
  const std::string json =
      scenario::to_json(scenario::RunSet{"pp", "t", false, {r}});
  EXPECT_NE(json.find("\"points\":"), std::string::npos);
  EXPECT_NO_THROW(util::parse_json(json));
}

TEST(Report, DegradedTallyDrivesTheDistinctExitCode) {
  // An abandoned point (max_sim_time hit) makes the grid degraded — the
  // contract behind mpiv_run's exit status 3.
  ScenarioBuilder b("starved");
  b.variant("vcausal:el")
      .nranks(4)
      .ring(/*laps=*/200, /*token_bytes=*/4096)
      .max_sim_time(1 * sim::kMicrosecond);
  const scenario::RunResult r = scenario::run_spec(b.build());
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.outcome(), scenario::Outcome::kAbandoned);

  scenario::RunSet set{"starved", "t", false, {r}};
  scenario::OutcomeCounts t = set.tally();
  EXPECT_EQ(t.abandoned, 1u);
  EXPECT_TRUE(t.degraded());

  // A failed point (lost worker) degrades the grid the same way, and the
  // report names it in the always-present outcomes tally.
  scenario::RunResult lost;
  lost.label = "casualty";
  lost.failed = true;
  lost.fail_reason = "worker killed by signal 9 before delivering a result";
  set.runs.push_back(lost);
  t = set.tally();
  EXPECT_EQ(t.failed, 1u);
  EXPECT_EQ(t.total(), 2u);
  EXPECT_TRUE(t.degraded());
  const std::string json = scenario::to_json(set);
  EXPECT_NO_THROW(util::parse_json(json)) << json;
  EXPECT_NE(json.find("\"outcome\": \"failed\""), std::string::npos);
  EXPECT_NE(json.find("\"fail_reason\""), std::string::npos);
  EXPECT_NE(json.find("\"failed\": 1"), std::string::npos);

  // A clean grid is not degraded, and still carries the failed counter
  // (always emitted, so serial and parallel reports stay byte-identical).
  ScenarioBuilder ok("ok");
  ok.variant("vcausal:el").nranks(2).ring(3, 128);
  const scenario::RunSet clean =
      scenario::RunSet{"ok", "t", false, {scenario::run_spec(ok.build())}};
  EXPECT_FALSE(clean.tally().degraded());
  EXPECT_NE(scenario::to_json(clean).find("\"failed\": 0"),
            std::string::npos);
}

TEST(Runner, MidrunFaultProducesReferenceAndExactRecovery) {
  ScenarioBuilder b("midrun");
  b.variant("vcausal:el")
      .nranks(4)
      .checkpoint(ckpt::Policy::kRoundRobin, 20 * sim::kMillisecond)
      .ring(/*laps=*/30, /*token_bytes=*/1024)
      .midrun_fault(/*rank=*/2);
  const scenario::RunResult r = scenario::run_spec(b.build());
  ASSERT_TRUE(r.completed);
  ASSERT_TRUE(r.has_reference);
  EXPECT_GT(r.reference_time, 0);
  EXPECT_EQ(r.report.faults_injected, 1u);
  EXPECT_TRUE(r.recovered_exact);
  const std::string json =
      scenario::to_json(scenario::RunSet{"midrun", "t", false, {r}});
  EXPECT_NE(json.find("\"recovered_exact\": true"), std::string::npos);
  EXPECT_NO_THROW(util::parse_json(json));
}

}  // namespace
}  // namespace mpiv
