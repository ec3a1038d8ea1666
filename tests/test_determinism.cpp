// Determinism-regression fingerprints for the hot-path storage/engine work
// — now driven through the scenario layer.
//
// Runs one small mixed workload (wildcard traffic, then a ring) under every
// causal variant with and without the Event Logger and asserts that the
// simulation fingerprint — events executed, wire bytes, piggyback bytes —
// is byte-identical to golden values recorded before the sequence-indexed
// storage and engine-lane rewrites. Any storage or scheduling change that
// alters *semantics* (rather than host-side speed) moves at least one of
// these counters; a refactor that keeps them is provably behaviour-
// preserving for everything the paper measures. Because the runs are built
// from ScenarioSpecs, the goldens also pin the scenario layer: a spec is a
// ClusterConfig plus scenario-only fields, so if any key set the cluster
// differently from the hand-built configs these values were recorded with,
// every row would move.
#include <gtest/gtest.h>

#include "scenario/runner.hpp"

namespace mpiv {
namespace {

struct Fingerprint {
  std::uint64_t events_executed = 0;  // sim::Engine events (scheduling trace)
  std::uint64_t wire_bytes = 0;       // every byte on the fabric
  std::uint64_t pb_bytes = 0;         // causal piggyback bytes (Fig. 7 input)
  std::uint64_t checksum = 0;         // order-sensitive app checksum
};

Fingerprint run_variant(const char* variant, bool ckpt, bool traced = false,
                        bool metered = false) {
  scenario::ScenarioBuilder b("determinism");
  b.set("variant", variant).set("seed", "7");
  if (traced) b.set("trace.enabled", "true");
  if (metered) {
    b.set("metrics.enabled", "true").set("metrics.sample_interval", "100us");
  }
  if (ckpt) {
    // Round-robin checkpoints exercise the GC paths: sender-log pruning,
    // Event Logger pruning, and stable-clock advances on the stores.
    b.set("ckpt_policy", "round-robin").set("ckpt_interval", "5ms");
    b.set("workload", "random_any").set("workload.iters", "24");
  } else {
    b.set("workload", "random_then_ring")
        .set("workload.rand_iters", "6")
        .set("workload.ring_laps", "4");
  }
  b.set("workload.seed", "7").set("workload.bytes", "2048");
  const scenario::RunResult r = scenario::run_spec(b.build());
  EXPECT_TRUE(r.completed);
  Fingerprint fp;
  fp.events_executed = r.events_executed;
  fp.wire_bytes = r.wire_bytes;
  fp.pb_bytes = r.report.totals().pb_bytes_sent;
  fp.checksum = r.checksum_digest();
  return fp;
}

struct Golden {
  const char* variant;
  bool ckpt;
  Fingerprint fp;
};

// Recorded from the pre-refactor tree (std::map storage, std::function
// engine, hand-built ClusterConfigs). Spec-built runs must reproduce these
// exactly.
const Golden kGolden[] = {
    {"vcausal:el", false, {1431ull, 113312ull, 5016ull, 0xd2b99efda9bae7f3ull}},
    {"vcausal:noel", false, {730ull, 98120ull, 8832ull, 0xa1c6926540643335ull}},
    {"manetho:el", false, {1431ull, 113312ull, 5016ull, 0xd2b99efda9bae7f3ull}},
    {"manetho:noel", false, {730ull, 97798ull, 8510ull, 0xa1c6926540643335ull}},
    {"logon:el", false, {1431ull, 113560ull, 5264ull, 0xd2b99efda9bae7f3ull}},
    {"logon:noel", false, {730ull, 99616ull, 10328ull, 0xa1c6926540643335ull}},
    {"vcausal:el", true, {6818ull, 4784224ull, 11968ull, 0x85929bbaddbf9432ull}},
    {"manetho:el", true, {6819ull, 4784224ull, 11968ull, 0x85929bbaddbf9432ull}},
    {"logon:el", true, {6819ull, 4784832ull, 12576ull, 0x85929bbaddbf9432ull}},
};

TEST(Determinism, FingerprintMatchesGolden) {
  for (const Golden& g : kGolden) {
    const Fingerprint fp = run_variant(g.variant, g.ckpt);
    SCOPED_TRACE(testing::Message()
                 << g.variant << (g.ckpt ? " +ckpt" : ""));
    if (g.fp.events_executed == 0) {
      // Recording mode: goldens not yet baked in — print what to record.
      std::printf("GOLDEN {\"%s\", %s, {%lluull, %lluull, %lluull, 0x%llxull}},\n",
                  g.variant, g.ckpt ? "true" : "false",
                  static_cast<unsigned long long>(fp.events_executed),
                  static_cast<unsigned long long>(fp.wire_bytes),
                  static_cast<unsigned long long>(fp.pb_bytes),
                  static_cast<unsigned long long>(fp.checksum));
      ADD_FAILURE() << "golden values not recorded yet";
      continue;
    }
    EXPECT_EQ(fp.events_executed, g.fp.events_executed);
    EXPECT_EQ(fp.wire_bytes, g.fp.wire_bytes);
    EXPECT_EQ(fp.pb_bytes, g.fp.pb_bytes);
    EXPECT_EQ(fp.checksum, g.fp.checksum);
  }
}

// Trace capture must be schedule-neutral: a lane write is a struct copy
// stamped with the engine clock, never an event or an allocation the
// engine can observe. Every golden row must therefore be byte-identical
// with tracing on — if enabling lanes moves any counter, capture leaked
// into the simulation.
TEST(Determinism, TraceCaptureDoesNotPerturbTheGoldens) {
  for (const Golden& g : kGolden) {
    const Fingerprint fp = run_variant(g.variant, g.ckpt, /*traced=*/true);
    SCOPED_TRACE(testing::Message()
                 << g.variant << (g.ckpt ? " +ckpt" : "") << " +trace");
    EXPECT_EQ(fp.events_executed, g.fp.events_executed);
    EXPECT_EQ(fp.wire_bytes, g.fp.wire_bytes);
    EXPECT_EQ(fp.pb_bytes, g.fp.pb_bytes);
    EXPECT_EQ(fp.checksum, g.fp.checksum);
  }
}

// Metrics capture rides the engine's observation side-channel: instruments
// are plain accumulation and the gauge sampler fires between events without
// scheduling anything. Every golden row must therefore be byte-identical
// with metrics on — if arming the sampler moves any counter, the metrics
// layer leaked into the simulation.
TEST(Determinism, MetricsCaptureDoesNotPerturbTheGoldens) {
  for (const Golden& g : kGolden) {
    const Fingerprint fp =
        run_variant(g.variant, g.ckpt, /*traced=*/false, /*metered=*/true);
    SCOPED_TRACE(testing::Message()
                 << g.variant << (g.ckpt ? " +ckpt" : "") << " +metrics");
    EXPECT_EQ(fp.events_executed, g.fp.events_executed);
    EXPECT_EQ(fp.wire_bytes, g.fp.wire_bytes);
    EXPECT_EQ(fp.pb_bytes, g.fp.pb_bytes);
    EXPECT_EQ(fp.checksum, g.fp.checksum);
  }
}

// The run is a pure function of the config: two identical runs in one
// process must produce identical fingerprints (catches hidden global state
// or address-dependent ordering in the storage containers).
TEST(Determinism, RepeatRunIsIdentical) {
  const Fingerprint a = run_variant("manetho:el", true);
  const Fingerprint b = run_variant("manetho:el", true);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.pb_bytes, b.pb_bytes);
  EXPECT_EQ(a.checksum, b.checksum);
}

// A scenario spec that parses from text lowers to the exact same run as
// the equivalent builder spec (the file format is a faithful face of the
// API, not an approximation).
TEST(Determinism, ParsedScenarioMatchesBuilderScenario) {
  const char* text =
      "[scenario]\n"
      "name = determinism\n"
      "variant = manetho:el\n"
      "nranks = 4\n"
      "seed = 7\n"
      "ckpt_policy = round-robin\n"
      "ckpt_interval = 5ms\n"
      "workload = random_any\n"
      "workload.iters = 24\n"
      "workload.seed = 7\n"
      "workload.bytes = 2048\n";
  const scenario::RunResult r =
      scenario::run_spec(scenario::parse_scenario_text(text));
  const Fingerprint direct = run_variant("manetho:el", true);
  EXPECT_EQ(r.events_executed, direct.events_executed);
  EXPECT_EQ(r.wire_bytes, direct.wire_bytes);
  EXPECT_EQ(r.report.totals().pb_bytes_sent, direct.pb_bytes);
  EXPECT_EQ(r.checksum_digest(), direct.checksum);
}

}  // namespace
}  // namespace mpiv
