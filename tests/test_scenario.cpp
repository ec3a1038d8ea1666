// Tests for the scenario layer: builder validation, registry lookups,
// scenario-file parse round-trips, the mpiv_run command line, sweep
// expansion (cartesian + skip semantics), quick overlays, the cluster
// config rules, and the JSON report shape.
#include <gtest/gtest.h>
#include <sys/wait.h>

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
      error_of([] { ScenarioBuilder("t").set("nranks", "0").build(); });
  EXPECT_NE(msg.find("nranks must be in [1, 4096] (got 0)"), std::string::npos)
      << msg;
  EXPECT_THROW(ScenarioBuilder("t").set("nranks", "-3").build(), SpecError);
}

TEST(Builder, RejectsBadShardCounts) {
  const std::string msg = error_of([] {
    ScenarioBuilder("t")
        .set("variant", "vcausal:el")
        .set("el_shards", "0")
        .build();
  });
  EXPECT_NE(msg.find("el_shards must be >= 1"), std::string::npos) << msg;
  // More shards than ranks is impossible to place.
  EXPECT_THROW(ScenarioBuilder("t")
                   .set("variant", "vcausal:el")
                   .set("nranks", "4")
                   .set("el_shards", "8")
                   .build(),
               SpecError);
}

TEST(Builder, RejectsShardsWithoutEventLogger) {
  const std::string msg = error_of([] {
    ScenarioBuilder("t")
        .set("variant", "vcausal:noel")
        .set("nranks", "8")
        .set("el_shards", "2")
        .build();
  });
  EXPECT_NE(msg.find("disables the event logger"), std::string::npos) << msg;
  // Unset shards with a no-EL variant stays fine, and so does an explicit
  // el_shards = 1 (no sharding) — matching the Cluster-level check.
  EXPECT_NO_THROW(ScenarioBuilder("t").set("variant", "vcausal:noel").build());
  EXPECT_NO_THROW(ScenarioBuilder("t")
                      .set("variant", "vcausal:noel")
                      .set("el_shards", "1")
                      .build());
}

TEST(Builder, RejectsFaultPlanNamingMissingRank) {
  const std::string msg = error_of([] {
    ScenarioBuilder("t")
        .set("nranks", "4")
        .set("variant", "vcausal:el")
        .set("faults.crash_rank", "1000ns:4")
        .build();
  });
  EXPECT_NE(msg.find("names rank 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("0..3"), std::string::npos) << msg;
  EXPECT_THROW(ScenarioBuilder("t")
                   .set("nranks", "4")
                   .set("variant", "vcausal:el")
                   .set("midrun_fault_rank", "9")
                   .build(),
               SpecError);
}

TEST(Builder, RejectsFaultsUnderP4) {
  EXPECT_THROW(ScenarioBuilder("t")
                   .set("variant", "p4")
                   .set("faults.crash_rank", "10ns:0")
                   .build(),
               SpecError);
}

TEST(Builder, RejectsUnknownWorkloadParameters) {
  const std::string msg = error_of([] {
    ScenarioBuilder("t")
        .set("workload", "ring")
        .set("workload.lapz", "20")
        .build();
  });
  EXPECT_NE(msg.find("no parameter 'lapz'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("laps, bytes"), std::string::npos) << msg;
}

TEST(Builder, SwitchingWorkloadsDropsStaleParameters) {
  // A new workload name clears the old workload's parameters instead of
  // leaking them into the new one.
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
    EXPECT_EQ(again.variant, spec.variant) << name;
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
  const runtime::Variant v = scenario::parse_variant("manetho:noel");
  EXPECT_EQ(v.protocol, runtime::ProtocolKind::kCausal);
  EXPECT_EQ(v.strategy, causal::StrategyKind::kManetho);
  EXPECT_FALSE(v.event_logger);
  EXPECT_EQ(runtime::protocol_entry(v.protocol).label(v), "Manetho (no EL)");
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
  b.set("variant", "logon:el")
      .set("nranks", "9")
      .set("el_shards", "3")
      .set("seed", "42")
      .set("cost.el_service", "120us")
      .set("ckpt_policy", "random")
      .set("ckpt_interval", "75ms")
      .set("faults.crash_rank", "120ms:2")
      .set("faults.rank_rate", "0.5")
      .set("nas", "bt:A:0.15")
      .sweep("nranks", {"4", "9", "16"});
  const ScenarioSpec spec = b.build();

  const ScenarioSpec reparsed =
      scenario::parse_scenario_text(scenario::to_scenario_text(spec));
  EXPECT_EQ(reparsed.name, spec.name);
  EXPECT_EQ(reparsed.variant, spec.variant);
  EXPECT_EQ(reparsed.nranks, spec.nranks);
  EXPECT_EQ(reparsed.el_shards, spec.el_shards);
  EXPECT_EQ(reparsed.seed, spec.seed);
  EXPECT_EQ(reparsed.cost.el_service, spec.cost.el_service);
  EXPECT_EQ(reparsed.ckpt_policy, spec.ckpt_policy);
  EXPECT_EQ(reparsed.ckpt_interval, spec.ckpt_interval);
  const std::vector<fault::Injection>& inj =
      reparsed.campaign.injections;
  ASSERT_EQ(inj.size(), 2u);
  EXPECT_EQ(inj[0].at, spec.campaign.injections[0].at);
  EXPECT_EQ(inj[0].index, spec.campaign.injections[0].index);
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
  b.set("variant", "vcausal:el")
      .set("trace.enabled", "true")
      .set("trace.capacity", "1024")
      .set("trace.dir", "/tmp/mpiv-traces")
      .set("compare_reference", "true");
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
  plain.set("variant", "vcausal:el");
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
    b.set("variant", "manetho:el")
        .set("nranks", "8")
        .set("el_shards", "2")
        .set("seed", "7")
        .set("ckpt_policy", "round-robin")
        .set("ckpt_interval", "30ms")
        .set("compare_reference", "true")
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

  // A retransmit interval <= 0 would silently turn off every retransmit,
  // including the one an outage or an EL crash needs to finish.
  const std::vector<scenario::RunPoint> retry =
      scenario::expand(scenario::parse_scenario_text(
          "[sweep]\nfaults.service_retry = 0ms, -5ms, 10ms\n"));
  ASSERT_EQ(retry.size(), 3u);
  for (int i : {0, 1}) {
    EXPECT_NE(retry[i].skip_reason.find("faults.service_retry must be > 0"),
              std::string::npos)
        << retry[i].skip_reason;
  }
  EXPECT_FALSE(retry[2].skipped) << retry[2].skip_reason;
}

// ---------------------------------------------------------------------------
// The key table: one row per key drives parse, print, --list and the docs
// ---------------------------------------------------------------------------

struct CliResult {
  std::string out;  // stdout; stderr is discarded
  int status = -1;  // exit status, -1 if the binary did not exit normally
};

/// Runs one of the tools with `args` from the source root, so scenario
/// paths like scenarios/fig9.scn resolve.
CliResult run_tool(const char* binary, const std::string& args) {
  CliResult r;
  const std::string cmd = "cd '" MPIV_SOURCE_DIR "' && '" +
                          std::string(binary) + "' " + args + " 2>/dev/null";
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) r.out.append(buf, n);
  const int status = ::pclose(p);
  if (WIFEXITED(status)) r.status = WEXITSTATUS(status);
  return r;
}

CliResult mpiv_run(const std::string& args) {
  return run_tool(MPIV_RUN_BINARY, args);
}

TEST(KeyTable, EveryRowAppliesRoundTripsAndIsListed) {
  const std::string listing = mpiv_run("--list").out;
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
  EXPECT_EQ(rows, 51u);  // 50 keys plus the workload.* family

  ScenarioSpec spec;
  EXPECT_THROW(scenario::apply_key(spec, "faults.no_such_key", "1"), SpecError);
  const std::string msg =
      error_of([&] { scenario::apply_key(spec, "cost.no_such_key", "1"); });
  EXPECT_NE(msg.find("cost.wire_latency"), std::string::npos) << msg;
}

TEST(KeyTable, EveryRowMovedOffItsDefaultChangesTheText) {
  // The runner caches reference twins by to_scenario_text, so equal text
  // must mean an equal configuration: every key prints once it leaves its
  // default. These rows' examples are their defaults, so they move to
  // another value.
  const std::map<std::string, std::string> off_default = {
      {"detection_delay", "100ms"},
      {"cost.bandwidth_mbps", "1000"},
      {"cost.wire_latency", "50us"},
      {"cost.mlog_send_fixed", "9us"},
      {"cost.mlog_recv_fixed", "7us"},
      {"cost.node_gflops", "1.1"},
      {"cost.ckpt_disk_mbps", "50"},
      {"cost.slog_ns_per_byte", "5"},
      {"faults.el_failover_delay", "30ms"},
      {"faults.daemon_restart_delay", "50ms"},
      {"faults.service_retry", "600ms"},
  };
  for (const scenario::KeyInfo& k : scenario::key_table()) {
    SCOPED_TRACE(k.key);
    std::string key = k.key;
    if (key.back() == '*') key.replace(key.size() - 1, 1, "laps");
    const auto alt = off_default.find(key);
    const std::string value =
        alt != off_default.end() ? alt->second : k.example;
    ScenarioSpec base;
    // The midrun fraction applies, and prints, only with a midrun rank.
    if (key == "midrun_fault_frac") {
      scenario::apply_key(base, "midrun_fault_rank", "1");
    }
    ScenarioSpec moved = base;
    scenario::apply_key(moved, key, value);
    EXPECT_NE(scenario::to_scenario_text(moved),
              scenario::to_scenario_text(base));
  }
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
// The tools' command lines
// ---------------------------------------------------------------------------

TEST(Cli, SetReplacesASweepAxis) {
  // One bundled file plus --set lines pins any single point of its grid.
  const CliResult fig9 = mpiv_run(
      "--print --set nas=lu:A:0.12 --set nranks=16 "
      "--set variant=manetho:noel scenarios/fig9.scn");
  EXPECT_EQ(fig9.status, 0);
  EXPECT_NE(fig9.out.find("1 run point(s)"), std::string::npos) << fig9.out;
  const CliResult seeded =
      mpiv_run("--print --set seed=2 scenarios/fault_campaign.scn");
  EXPECT_EQ(seeded.status, 0);
  EXPECT_NE(seeded.out.find("3 run point(s)"), std::string::npos)
      << seeded.out;
}

TEST(Cli, MalformedOptionsExitTwo) {
  // Every case fails in argument parsing, before any worker is forked.
  EXPECT_EQ(mpiv_run("--print --jobs 4x scenarios/quickstart.scn").status, 2);
  EXPECT_EQ(mpiv_run("--print --jobs 0 scenarios/quickstart.scn").status, 2);
  EXPECT_EQ(
      mpiv_run("--print --jobs 99999999999 scenarios/quickstart.scn").status,
      2);
  // The seed is set like every other key: --set seed=N.
  EXPECT_EQ(mpiv_run("--print --seed 1 scenarios/quickstart.scn").status, 2);
  EXPECT_EQ(mpiv_run("--print --jobs 2 scenarios/quickstart.scn").status, 0);

  // mpiv_trace and mpiv_stat parse their numeric flags as strictly as
  // --jobs, and each bad case fails before anything runs or loads.
  const auto trace = [](const std::string& args) {
    return run_tool(MPIV_TRACE_BINARY, args + " scenarios/quickstart.scn")
        .status;
  };
  EXPECT_EQ(trace("--max-chain 2x"), 2);
  EXPECT_EQ(trace("--max-chain 0"), 2);
  // The seed and ring capacity are keys like any other: --set seed=N,
  // --set trace.capacity=N.
  EXPECT_EQ(trace("--seed 1"), 2);
  EXPECT_EQ(trace("--capacity 64"), 2);
  EXPECT_EQ(
      trace("--quick --max-chain 2 --set seed=2 --set trace.capacity=64"), 0);

  const std::string report = ::testing::TempDir() + "cli_quickstart.json";
  ASSERT_EQ(
      mpiv_run("--quick --out '" + report + "' scenarios/quickstart.scn")
          .status,
      0);
  const auto stat = [&report](const std::string& args, int files) {
    std::string cmd = args;
    for (int i = 0; i < files; ++i) cmd += " '" + report + "'";
    return run_tool(MPIV_STAT_BINARY, cmd).status;
  };
  EXPECT_EQ(stat("--top 3x", 1), 2);
  EXPECT_EQ(stat("--top 3", 1), 0);
  EXPECT_EQ(stat("--diff --tol abc", 2), 2);
  EXPECT_EQ(stat("--diff --tol -1", 2), 2);
  EXPECT_EQ(stat("--diff --tol 0.02", 2), 0);
  std::remove(report.c_str());
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
// Hand-built ClusterConfigs
// ---------------------------------------------------------------------------

// Legacy construction validates too: a hand-built ClusterConfig that the
// builder would reject dies with the same story.
using ClusterDeath = ::testing::Test;

TEST(ClusterDeath, RejectsShardsWithoutEventLogger) {
  runtime::ClusterConfig cfg;
  cfg.nranks = 8;
  cfg.variant.protocol = runtime::ProtocolKind::kCausal;
  cfg.variant.event_logger = false;
  cfg.el_shards = 2;
  EXPECT_DEATH(runtime::Cluster{cfg}, "requires event_logger");
}

TEST(ClusterDeath, RejectsFaultOnMissingRank) {
  runtime::ClusterConfig cfg;
  cfg.nranks = 4;
  cfg.variant.protocol = runtime::ProtocolKind::kCausal;
  cfg.campaign.injections.push_back(fault::rank_crash_at(1000, 7));
  EXPECT_DEATH(runtime::Cluster{cfg}, "names rank 7");
}

// ---------------------------------------------------------------------------
// Runner + JSON report shape
// ---------------------------------------------------------------------------

TEST(Report, JsonIsWellFormedAndCarriesTheSweep) {
  ScenarioBuilder b("report");
  b.set("workload.laps", "5")
      .set("workload.bytes", "256")
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
  b.set("variant", "vcausal:el")
      .set("nranks", "2")
      .set("workload", "pingpong")
      .set("workload.sizes", "1, 1024")
      .set("workload.reps", "20");
  const scenario::RunResult r = scenario::run_spec(b.build());
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.pingpong.points.size(), 2u);
  EXPECT_GT(r.pingpong.points[0].latency_us, 0);
  const std::string json =
      scenario::to_json(scenario::RunSet{"pp", "t", false, {r}});
  EXPECT_NE(json.find("\"points\":"), std::string::npos);
  EXPECT_NO_THROW(util::parse_json(json));
}

TEST(Runner, RunSpecRejectsAnOutOfRangeKeyByName) {
  // expand() validates the sweepless spec; run_spec passes its error on.
  const ScenarioSpec spec = scenario::parse_scenario_text(
      "variant = vcausal:el\n"
      "el_shards = 0\n");
  const std::string msg = error_of([&spec] { scenario::run_spec(spec); });
  EXPECT_NE(msg.find("el_shards must be >= 1 (got 0)"), std::string::npos)
      << msg;
}

TEST(Report, DegradedTallyDrivesTheDistinctExitCode) {
  // An abandoned point (max_sim_time hit) makes the grid degraded — the
  // contract behind mpiv_run's exit status 3.
  ScenarioBuilder b("starved");
  b.set("variant", "vcausal:el")
      .set("workload.laps", "200")
      .set("workload.bytes", "4096")
      .set("max_sim_time", "1us");
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
  ok.set("variant", "vcausal:el")
      .set("nranks", "2")
      .set("workload.laps", "3")
      .set("workload.bytes", "128");
  const scenario::RunSet clean =
      scenario::RunSet{"ok", "t", false, {scenario::run_spec(ok.build())}};
  EXPECT_FALSE(clean.tally().degraded());
  EXPECT_NE(scenario::to_json(clean).find("\"failed\": 0"),
            std::string::npos);
}

TEST(Runner, MidrunFaultProducesReferenceAndExactRecovery) {
  ScenarioBuilder b("midrun");
  b.set("variant", "vcausal:el")
      .set("ckpt_policy", "round-robin")
      .set("ckpt_interval", "20ms")
      .set("workload.laps", "30")
      .set("workload.bytes", "1024")
      .set("midrun_fault_rank", "2");
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

// ---------------------------------------------------------------------------
// Reference twins: run once per key per grid
// ---------------------------------------------------------------------------

/// A small traced ring grid whose points differ in seed and rank-crash rate;
/// points of one seed strip to the same rank-fault-free twin.
ScenarioSpec twin_grid(const std::vector<std::string>& rates,
                       const std::string& name = "twins") {
  ScenarioBuilder b(name);
  b.set("variant", "vcausal:el")
      .set("ckpt_policy", "round-robin")
      .set("ckpt_interval", "20ms")
      .set("workload.laps", "20")
      .set("workload.bytes", "512")
      .set("compare_reference", "true")
      .set("trace.enabled", "true")
      .sweep("seed", {"1", "2"})
      .sweep("faults.rank_rate", rates);
  return b.build();
}

std::vector<scenario::RunResult> run_all(
    const std::vector<scenario::RunPoint>& points) {
  std::vector<scenario::RunResult> runs;
  for (const scenario::RunPoint& p : points) {
    runs.push_back(scenario::run_point(p));
  }
  return runs;
}

/// The same points with the cache detached: every point runs its own twin.
std::string detached_json(std::vector<scenario::RunPoint> points) {
  for (scenario::RunPoint& p : points) p.reference_cache.reset();
  return scenario::to_json(
      scenario::RunSet{"twins", "t", false, run_all(points)});
}

TEST(ReferenceCache, KeysIgnoreOnlyTheName) {
  const std::vector<scenario::RunPoint> a =
      scenario::expand(twin_grid({"60", "120"}, "a"));
  const std::vector<scenario::RunPoint> b =
      scenario::expand(twin_grid({"60", "120"}, "b"));
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FALSE(a[i].reference_key.empty());
    EXPECT_EQ(a[i].reference_key, b[i].reference_key);
  }
  EXPECT_EQ(a[0].reference_key, a[1].reference_key);  // rates differ only
  EXPECT_NE(a[0].reference_key, a[2].reference_key);  // seeds differ
  // One cache per grid, one user per point.
  ASSERT_NE(a[0].reference_cache, nullptr);
  EXPECT_EQ(a[3].reference_cache, a[0].reference_cache);
  EXPECT_NE(b[0].reference_cache, a[0].reference_cache);
  ASSERT_EQ(a[0].reference_cache->entries.size(), 2u);
  for (const auto& [key, entry] : a[0].reference_cache->entries) {
    EXPECT_EQ(entry.users, 2);
    EXPECT_EQ(entry.run, nullptr);
  }
  // Points without a twin get no cache.
  ScenarioBuilder plain("plain");
  plain.set("workload.laps", "5").sweep("seed", {"1", "2"});
  for (const scenario::RunPoint& p : scenario::expand(plain.build())) {
    EXPECT_EQ(p.reference_cache, nullptr);
    EXPECT_TRUE(p.reference_key.empty());
  }
}

TEST(ReferenceCache, CoKeyedPointsShareOneTwinAndTheLastUserEvictsIt) {
  const std::vector<scenario::RunPoint> points =
      scenario::expand(twin_grid({"60", "120"}));
  ASSERT_EQ(points.size(), 4u);
  const std::shared_ptr<scenario::ReferenceCache> cache =
      points[0].reference_cache;
  ASSERT_NE(cache, nullptr);

  std::vector<scenario::RunResult> runs;
  runs.push_back(scenario::run_point(points[0]));
  // Seed 1's twin waits for its second user; seed 2's has not run yet.
  ASSERT_EQ(cache->entries.count(points[0].reference_key), 1u);
  EXPECT_EQ(cache->entries.at(points[0].reference_key).users, 1);
  EXPECT_NE(cache->entries.at(points[0].reference_key).run, nullptr);
  for (std::size_t i = 1; i < points.size(); ++i) {
    runs.push_back(scenario::run_point(points[i]));
  }
  EXPECT_TRUE(cache->entries.empty());

  for (const scenario::RunResult& r : runs) {
    ASSERT_TRUE(r.has_reference) << r.label;
    ASSERT_FALSE(r.reference_trace_dump.empty()) << r.label;
  }
  EXPECT_EQ(runs[0].reference_trace_dump.capture(),
            runs[1].reference_trace_dump.capture());
  EXPECT_EQ(runs[2].reference_trace_dump.capture(),
            runs[3].reference_trace_dump.capture());
  EXPECT_NE(runs[0].reference_trace_dump.capture(),
            runs[2].reference_trace_dump.capture());
  EXPECT_EQ(scenario::to_json(scenario::RunSet{"twins", "t", false, runs}),
            detached_json(points));
}

TEST(ReferenceCache, ARateZeroPointsRunIsTheTwinOfItsCoKeyedPoint) {
  const std::vector<scenario::RunPoint> points =
      scenario::expand(twin_grid({"0", "120"}));
  ASSERT_EQ(points.size(), 4u);
  const std::vector<scenario::RunResult> runs = run_all(points);
  EXPECT_TRUE(points[0].reference_cache->entries.empty());
  for (const std::size_t zero : {std::size_t{0}, std::size_t{2}}) {
    const scenario::RunResult& measured = runs[zero];
    const scenario::RunResult& faulty = runs[zero + 1];
    ASSERT_FALSE(measured.reference_trace_dump.empty());
    EXPECT_EQ(measured.reference_trace_dump.capture(),
              measured.trace_dump.capture());
    EXPECT_EQ(faulty.reference_trace_dump.capture(),
              measured.reference_trace_dump.capture());
    EXPECT_EQ(faulty.reference_time, measured.report.completion_time);
    EXPECT_EQ(faulty.reference_checksums, measured.checksums);
  }
  EXPECT_EQ(scenario::to_json(scenario::RunSet{"twins", "t", false, runs}),
            detached_json(points));
}

TEST(ReferenceCache, APointEditedAfterExpandRunsItsOwnTwin) {
  // bench/e2e edits a point's spec after expand (its observability pass
  // turns trace lanes off): the twin cached under the old key is not its.
  std::vector<scenario::RunPoint> points =
      scenario::expand(twin_grid({"60", "120"}));
  const std::shared_ptr<scenario::ReferenceCache> cache =
      points[0].reference_cache;
  const scenario::RunResult first = scenario::run_point(points[0]);
  ASSERT_FALSE(first.reference_trace_dump.empty());
  ASSERT_NE(cache->entries.at(points[1].reference_key).run, nullptr);

  points[1].spec.trace.enabled = false;
  const scenario::RunResult edited = scenario::run_point(points[1]);
  EXPECT_TRUE(edited.reference_trace_dump.empty());
  EXPECT_TRUE(edited.trace_dump.empty());
  // It still gave up its use of the old key, so the entry is gone.
  EXPECT_EQ(cache->entries.count(points[1].reference_key), 0u);

  scenario::RunPoint alone = points[1];
  alone.reference_cache.reset();
  EXPECT_EQ(scenario::run_json_fragment(edited),
            scenario::run_json_fragment(scenario::run_point(alone)));
}

}  // namespace
}  // namespace mpiv
