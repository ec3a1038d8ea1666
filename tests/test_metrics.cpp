// Tests for the metrics subsystem: histogram bucket boundaries and
// percentile math, the engine's observation side-channel, sampler cadence
// and ring wrap, registry merge, the JSON/CSV report shape — and the
// mpiv_stat analysis layer (JSON parse, run flattening, top-N ranking,
// A/B diff). The metrics-on-vs-off schedule goldens live in
// tests/test_determinism.cpp (MetricsCaptureDoesNotPerturbTheGoldens);
// here the same neutrality is asserted as on-vs-off fingerprint equality
// through the scenario layer.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "metrics/stat.hpp"
#include "scenario/runner.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"

namespace mpiv {
namespace {

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, BucketBoundaries) {
  using H = metrics::Histogram;
  // Bucket 0 is [0, 1) and absorbs everything below.
  EXPECT_EQ(H::bucket_of(0.0), 0);
  EXPECT_EQ(H::bucket_of(0.5), 0);
  EXPECT_EQ(H::bucket_of(0.999), 0);
  EXPECT_EQ(H::bucket_of(-7.0), 0);
  // Bucket i >= 1 is [2^(i-1), 2^i).
  EXPECT_EQ(H::bucket_of(1.0), 1);
  EXPECT_EQ(H::bucket_of(1.99), 1);
  EXPECT_EQ(H::bucket_of(2.0), 2);
  EXPECT_EQ(H::bucket_of(3.0), 2);
  EXPECT_EQ(H::bucket_of(4.0), 3);
  EXPECT_EQ(H::bucket_of(1023.0), 10);
  EXPECT_EQ(H::bucket_of(1024.0), 11);
  // The last bucket absorbs everything beyond 2^62.
  EXPECT_EQ(H::bucket_of(1e30), H::kBuckets - 1);
  // bucket_lo/hi are consistent with bucket_of at every edge.
  for (int i = 1; i < 20; ++i) {
    EXPECT_EQ(H::bucket_of(H::bucket_lo(i)), i) << i;
    EXPECT_EQ(H::bucket_of(H::bucket_hi(i)), i + 1) << i;
  }
}

TEST(Histogram, CountsLandInTheirBuckets) {
  metrics::Histogram h;
  for (double x : {0.2, 1.0, 1.5, 2.0, 3.0, 700.0}) h.add(x);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket(0), 1u);  // 0.2
  EXPECT_EQ(h.bucket(1), 2u);  // 1.0, 1.5
  EXPECT_EQ(h.bucket(2), 2u);  // 2.0, 3.0
  EXPECT_EQ(h.bucket(10), 1u);  // 700 in [512, 1024)
}

TEST(Histogram, PercentilesAreMonotoneAndClampedToTheObservedRange) {
  metrics::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.percentile(0.0), 1.0);    // p <= 0 -> min
  EXPECT_EQ(h.percentile(100.0), 1000.0);  // p >= 100 -> max
  const double p50 = h.p50(), p90 = h.p90(), p99 = h.p99();
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  EXPECT_GE(p50, h.min());
  // Uniform 1..1000: the log2 interpolation is coarse but must land in the
  // right half of the distribution.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 800.0);
  EXPECT_GT(p99, 900.0);
}

TEST(Histogram, SingleValueCollapsesEveryPercentile) {
  metrics::Histogram h;
  for (int i = 0; i < 100; ++i) h.add(7.0);
  EXPECT_EQ(h.p50(), 7.0);
  EXPECT_EQ(h.p90(), 7.0);
  EXPECT_EQ(h.p99(), 7.0);
}

TEST(Histogram, EmptyReportsZeroes) {
  const metrics::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

// ftapi::RankStats swapped its ack-latency util::Accumulator for a
// Histogram; the fault-free goldens require mean/min/max to stay
// bit-identical on the same input stream.
TEST(Histogram, MomentsAreBitIdenticalToTheAccumulatorItReplaced) {
  metrics::Histogram h;
  util::Accumulator a;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 500; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double v = static_cast<double>(x % 100000) / 7.0;
    h.add(v);
    a.add(v);
  }
  EXPECT_EQ(h.count(), a.count());
  const double hm = h.mean(), am = a.mean();
  EXPECT_EQ(std::memcmp(&hm, &am, sizeof(double)), 0);
  const double hs = h.sum(), as = a.sum();
  EXPECT_EQ(std::memcmp(&hs, &as, sizeof(double)), 0);
  EXPECT_EQ(h.min(), a.min());
  EXPECT_EQ(h.max(), a.max());
}

TEST(Histogram, MergeAddsCountsAndBuckets) {
  metrics::Histogram a, b;
  for (double x : {1.0, 2.0, 4.0}) a.add(x);
  for (double x : {8.0, 16.0}) b.add(x);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.min(), 1.0);
  EXPECT_EQ(a.max(), 16.0);
  EXPECT_EQ(a.bucket(4), 1u);  // 8
  EXPECT_EQ(a.bucket(5), 1u);  // 16
  a.reset();
  EXPECT_EQ(a.count(), 0u);
}

// ---------------------------------------------------------------------------
// Sampler + engine side-channel

TEST(Sampler, CadenceAndRingWrap) {
  metrics::Sampler s(/*interval=*/10, /*capacity=*/4);
  std::int64_t level = 0;
  s.add_probe("level", [&level] { return level; });
  ASSERT_EQ(s.columns().size(), 1u);
  for (int i = 1; i <= 7; ++i) {
    level = i * 100;
    s.tick(i * 10);
  }
  EXPECT_EQ(s.total_rows(), 7u);
  EXPECT_EQ(s.retained_rows(), 4u);
  EXPECT_EQ(s.dropped(), 3u);
  // Oldest-to-newest visit starts at the first retained row (t = 40).
  std::vector<sim::Time> times;
  std::vector<std::int64_t> values;
  s.for_each_row([&](sim::Time t, const std::int64_t* row, std::size_t n) {
    ASSERT_EQ(n, 1u);
    times.push_back(t);
    values.push_back(row[0]);
  });
  EXPECT_EQ(times, (std::vector<sim::Time>{40, 50, 60, 70}));
  EXPECT_EQ(values, (std::vector<std::int64_t>{400, 500, 600, 700}));
}

TEST(Sampler, EngineSideChannelFiresOnTheGridWithoutPerturbingTheRun) {
  // Reference run: no sampler armed.
  std::uint64_t ref_executed = 0;
  {
    sim::Engine eng;
    for (int i = 0; i < 10; ++i) eng.at(i * 7, [] {});
    eng.at(95, [] {});
    ref_executed = eng.run();
  }
  // Armed run: identical schedule, plus ticks at 10, 20, ... between events.
  sim::Engine eng;
  for (int i = 0; i < 10; ++i) eng.at(i * 7, [] {});
  eng.at(95, [] {});
  std::vector<sim::Time> ticks;
  eng.set_sampler(/*interval=*/10, /*start=*/10,
                  [&ticks](sim::Time t) { ticks.push_back(t); });
  const std::uint64_t executed = eng.run();
  EXPECT_EQ(executed, ref_executed);  // ticks never count as events
  // Every grid point up to the last event time fired exactly once, in order.
  ASSERT_EQ(ticks.size(), 9u);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i], static_cast<sim::Time>((i + 1) * 10));
  }
}

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, MergeSumsCountersAndKeepsGaugeWatermarks) {
  metrics::Registry a, b;
  a.counter("ops").add(3);
  b.counter("ops").add(4);
  b.counter("only_b").add(1);
  a.gauge("depth").set(5);
  b.gauge("depth").set(2);
  a.histogram("lat").add(10.0);
  b.histogram("lat").add(20.0);
  a.merge(b);
  EXPECT_EQ(a.counters().at("ops").value(), 7u);
  EXPECT_EQ(a.counters().at("only_b").value(), 1u);
  EXPECT_EQ(a.gauges().at("depth").value(), 5);  // max, not sum
  EXPECT_EQ(a.histograms().at("lat").count(), 2u);
}

TEST(Registry, SnapshotIsNameOrderedAndCarriesTheSeries) {
  metrics::Registry r;
  r.counter("z").add(1);
  r.counter("a").add(2);
  r.histogram("lat").add(4.0);
  metrics::Sampler s(/*interval=*/10, /*capacity=*/8);
  s.add_probe("depth", [] { return std::int64_t{42}; });
  s.tick(10);
  s.tick(20);
  const metrics::Snapshot snap = r.snapshot(&s);
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(snap.sample_interval, 10);
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a");  // std::map order
  EXPECT_EQ(snap.counters[1].first, "z");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  ASSERT_EQ(snap.series_rows(), 2u);
  EXPECT_EQ(snap.series_columns, (std::vector<std::string>{"depth"}));
  EXPECT_EQ(snap.series_values, (std::vector<std::int64_t>{42, 42}));
  const std::string csv = snap.series_csv();
  EXPECT_EQ(csv, "t_ns,depth\n10,42\n20,42\n");
  // A default snapshot means metrics were off.
  EXPECT_FALSE(metrics::Snapshot{}.enabled);
}

// ---------------------------------------------------------------------------
// End-to-end report shape through the scenario layer

scenario::RunResult run_small(bool metered) {
  scenario::ScenarioBuilder b("metrics_e2e");
  b.set("variant", "vcausal:el")
      .set("seed", "7")
      .set("workload", "random_any")
      .set("workload.iters", "12")
      .set("workload.seed", "3")
      .set("workload.bytes", "1024");
  if (metered) {
    b.set("metrics.enabled", "true").set("metrics.sample_interval", "50us");
  }
  return scenario::run_spec(b.build());
}

TEST(Report, MetricsObjectAndAckPercentilesAppearOnlyWhenEnabled) {
  const scenario::RunResult on = run_small(/*metered=*/true);
  ASSERT_TRUE(on.completed);
  ASSERT_TRUE(on.report.metrics.enabled);
  EXPECT_FALSE(on.report.metrics.histograms.empty());
  EXPECT_GT(on.report.metrics.series_rows(), 0u);
  EXPECT_EQ(on.report.metrics.series_csv().rfind("t_ns,", 0), 0u);

  const std::string json_on =
      scenario::to_json(scenario::RunSet{"m", "t", false, {on}});
  EXPECT_NE(json_on.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(json_on.find("\"p50_ack_us\":"), std::string::npos);
  EXPECT_NE(json_on.find("\"p99_ack_us\":"), std::string::npos);
  EXPECT_NE(json_on.find("\"el.ack_us\""), std::string::npos);

  // Metrics off: the report keeps its pre-metrics shape, byte for byte.
  const scenario::RunResult off = run_small(/*metered=*/false);
  EXPECT_FALSE(off.report.metrics.enabled);
  const std::string json_off =
      scenario::to_json(scenario::RunSet{"m", "t", false, {off}});
  EXPECT_EQ(json_off.find("\"metrics\":"), std::string::npos);
  EXPECT_EQ(json_off.find("\"p50_ack_us\":"), std::string::npos);
}

// Schedule neutrality through the full stack: the paper-facing counters of
// a metered run equal the unmetered run exactly (the absolute goldens live
// in tests/test_determinism.cpp).
TEST(Report, MetricsOnAndOffFingerprintsAreIdentical) {
  const scenario::RunResult on = run_small(/*metered=*/true);
  const scenario::RunResult off = run_small(/*metered=*/false);
  EXPECT_EQ(on.events_executed, off.events_executed);
  EXPECT_EQ(on.wire_bytes, off.wire_bytes);
  EXPECT_EQ(on.report.totals().pb_bytes_sent, off.report.totals().pb_bytes_sent);
  EXPECT_EQ(on.checksum_digest(), off.checksum_digest());
  // And mean_ack_us is bit-identical (the histogram embeds the accumulator).
  const double a = on.report.rank_stats[0].el_ack_latency_us.mean();
  const double b = off.report.rank_stats[0].el_ack_latency_us.mean();
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
}

// ---------------------------------------------------------------------------
// stat.hpp: flatten, top-N, diff

TEST(Stat, ExtractsAndFlattensRealReports) {
  const scenario::RunResult r = run_small(/*metered=*/true);
  const std::string json =
      scenario::to_json(scenario::RunSet{"m", "t", false, {r}});
  const util::Json doc = util::parse_json(json);
  const std::vector<metrics::RunMetrics> runs = metrics::extract_runs(doc);
  ASSERT_EQ(runs.size(), 1u);
  const metrics::RunMetrics& run = runs[0];
  EXPECT_FALSE(run.skipped);
  ASSERT_NE(run.find("events_executed"), nullptr);
  EXPECT_EQ(*run.find("events_executed"),
            static_cast<double>(r.events_executed));
  EXPECT_NE(run.find("el.p99_ack_us"), nullptr);
  EXPECT_NE(run.find("metrics.histograms.el.ack_us.p99"), nullptr);
  EXPECT_EQ(run.find("nope"), nullptr);
  // Multi-set envelopes unwrap too; run-less documents throw.
  const std::string multi = scenario::to_json(std::vector<scenario::RunSet>{
      scenario::RunSet{"m", "t", false, {r}},
      scenario::RunSet{"m2", "t", false, {r}}});
  EXPECT_EQ(metrics::extract_runs(util::parse_json(multi)).size(), 2u);
  EXPECT_THROW(metrics::extract_runs(util::parse_json("{}")),
               std::runtime_error);
}

TEST(Stat, TopRowsRankPerRankInstruments) {
  metrics::RunMetrics run;
  run.label = "x";
  run.values = {
      {"metrics.histograms.rank0.ack_us.p99", 10.0},
      {"metrics.histograms.rank1.ack_us.p99", 50.0},
      {"metrics.histograms.rank1.ack_us.count", 4.0},
      {"metrics.histograms.rank2.ack_us.p99", 30.0},
      {"metrics.counters.el0.stored_ops", 200.0},
      {"metrics.counters.other", 1.0},  // no entity -> ignored
  };
  const std::vector<metrics::TopRow> rows = metrics::top_rows(run, 3);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].entity, "el0");  // 200 outweighs every rank
  EXPECT_EQ(rows[1].entity, "rank1");
  EXPECT_EQ(rows[1].weight_metric, "ack_us.p99");
  EXPECT_EQ(rows[2].entity, "rank2");
  EXPECT_EQ(rows[1].details.size(), 2u);
}

TEST(Stat, DiffReportsZeroDriftOnIdenticalRunsAndFlagsChanges) {
  const scenario::RunResult r = run_small(/*metered=*/true);
  const std::string json =
      scenario::to_json(scenario::RunSet{"m", "t", false, {r}});
  const util::Json a = util::parse_json(json);
  // Self-diff: the determinism contract mpiv_stat --diff enforces in CI.
  const metrics::DiffResult self = metrics::diff_reports(a, a, 0.0);
  EXPECT_TRUE(self.clean());
  EXPECT_EQ(self.runs_compared, 1u);
  EXPECT_GT(self.metrics_compared, 10u);

  // Perturb one metric: exact diff flags it, a loose tolerance forgives it.
  std::string bumped = json;
  const std::string needle = "\"events_executed\": ";
  const std::size_t pos = bumped.find(needle);
  ASSERT_NE(pos, std::string::npos);
  bumped.insert(pos + needle.size(), "1");  // prepend a digit: ~10x change
  const util::Json b = util::parse_json(bumped);
  const metrics::DiffResult strict = metrics::diff_reports(a, b, 0.0);
  ASSERT_FALSE(strict.clean());
  EXPECT_EQ(strict.drifting[0].metric, "events_executed");
  EXPECT_TRUE(metrics::diff_reports(a, b, 0.999).clean());

  // Runs present on only one side, and metrics present on only one side,
  // are reported rather than silently skipped.
  const util::Json small_a = util::parse_json(
      "{\"runs\": [{\"label\": \"x\", \"v\": 1, \"only_a\": 2}]}");
  const util::Json small_b = util::parse_json(
      "{\"runs\": [{\"label\": \"x\", \"v\": 1}, {\"label\": \"y\"}]}");
  const metrics::DiffResult lopsided =
      metrics::diff_reports(small_a, small_b, 0.0);
  ASSERT_EQ(lopsided.unmatched_runs.size(), 1u);
  EXPECT_EQ(lopsided.unmatched_runs[0], "y (only in B)");
  ASSERT_EQ(lopsided.drifting.size(), 1u);
  EXPECT_EQ(lopsided.drifting[0].metric, "only_a");
  EXPECT_EQ(lopsided.drifting[0].missing_in, 2);
}

}  // namespace
}  // namespace mpiv
