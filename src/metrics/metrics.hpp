// Aggregate metrics — the observability layer complementary to the trace
// lanes (src/trace): where a lane records *events* for forensic alignment,
// the metrics registry keeps *aggregates* (counters, gauges, log2-bucketed
// histograms with tail percentiles) and a virtual-time series of gauge
// snapshots, the quantities the paper's evaluation charts directly
// (piggyback bytes, EL ack latency, recovery phases) plus the transients a
// mean hides (EL saturation, post-fault piggyback regrowth, daemon backlog
// drain).
//
// Everything here is schedule-neutral by construction: instruments are
// plain accumulation (no engine interaction), and the Sampler is driven by
// the engine's observation side-channel (sim::Engine::set_sampler), which
// fires between events without scheduling anything — a metrics-on run is
// event-for-event identical to a metrics-off run
// (tests/test_determinism.cpp pins the goldens both ways).
//
// This header is deliberately dependency-light (util/stats.hpp and
// sim/time.hpp only) so ftapi/stats.hpp can embed a Histogram without an
// include cycle.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/stats.hpp"

namespace mpiv::metrics {

/// Metrics knobs lowered from the scenario layer ([metrics] section).
/// Config{} (disabled) arms nothing: zero overhead, identical schedule.
struct Config {
  bool enabled = false;
  /// Virtual time between gauge snapshots into the time-series ring.
  sim::Time sample_interval = sim::kMillisecond;
};

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }
  void merge(const Counter& o) { v_ += o.v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-written level (queue depths, backlog sizes, ring-drop counts).
class Gauge {
 public:
  void set(std::int64_t v) { v_ = v; }
  std::int64_t value() const { return v_; }
  /// Cross-rank merge keeps the larger level (a watermark semantic; sums
  /// are modeled as distinct gauges written by the owner).
  void merge(const Gauge& o) { v_ = std::max(v_, o.v_); }

 private:
  std::int64_t v_ = 0;
};

/// Log2-bucketed latency/duration histogram with tail summaries.
///
/// Embeds util::Accumulator so count/sum/mean/min/max are bit-identical to
/// the plain Accumulator this type replaced (ftapi::RankStats ack latency:
/// the `mean_ack_us` JSON field must stay byte-stable for the fault-free
/// goldens). On top of it, 64 log2 buckets: bucket 0 holds [0, 1) (and any
/// negative input), bucket i >= 1 holds [2^(i-1), 2^i), the last bucket
/// absorbs everything beyond 2^62. Percentiles interpolate linearly inside
/// the crossing bucket and clamp to the observed [min, max].
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void add(double x) {
    acc_.add(x);
    ++buckets_[static_cast<std::size_t>(bucket_of(x))];
  }

  std::uint64_t count() const { return acc_.count(); }
  double sum() const { return acc_.sum(); }
  double mean() const { return acc_.mean(); }
  double min() const { return acc_.min(); }
  double max() const { return acc_.max(); }
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)];
  }

  /// Which bucket `x` lands in: 0 for x < 1, else 1 + floor(log2(x))
  /// capped at kBuckets - 1.
  static int bucket_of(double x) {
    if (!(x >= 1.0)) return 0;  // negatives and NaN clamp low
    // Past 2^63 the top bucket; the cast below would be undefined at 2^64.
    if (x >= 0x1p63) return kBuckets - 1;
    const auto u = static_cast<std::uint64_t>(x);
    const int w = std::bit_width(u);
    return w < kBuckets ? w : kBuckets - 1;
  }
  static double bucket_lo(int i) {
    return i <= 0 ? 0.0 : static_cast<double>(1ULL << (i - 1));
  }
  static double bucket_hi(int i) {
    return i <= 0 ? 1.0 : 2.0 * static_cast<double>(1ULL << (i - 1));
  }

  /// Value at percentile `p` in [0, 100]: linear interpolation inside the
  /// crossing bucket, clamped to the observed range. 0 when empty.
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p90() const { return percentile(90.0); }
  double p99() const { return percentile(99.0); }

  void merge(const Histogram& o) {
    acc_.merge(o.acc_);
    for (int i = 0; i < kBuckets; ++i) {
      buckets_[static_cast<std::size_t>(i)] +=
          o.buckets_[static_cast<std::size_t>(i)];
    }
  }

  void reset() { *this = Histogram{}; }

 private:
  util::Accumulator acc_;
  std::uint64_t buckets_[kBuckets] = {};
};

/// Virtual-time series of gauge snapshots. Probes are registered once (by
/// the cluster, at construction); tick(t) polls every probe and appends one
/// row to a fixed-capacity ring — when it wraps, the oldest rows are
/// overwritten and dropped() reports how many. Probes are polled only at
/// tick time, so instrumented subsystems pay nothing between samples.
class Sampler {
 public:
  explicit Sampler(sim::Time interval, std::size_t capacity = 4096)
      : interval_(interval), capacity_(capacity ? capacity : 1) {}

  void add_probe(std::string name, std::function<std::int64_t()> fn) {
    names_.push_back(std::move(name));
    probes_.push_back(std::move(fn));
  }

  /// Appends one row sampled at virtual time `t`.
  void tick(sim::Time t);

  sim::Time interval() const { return interval_; }
  const std::vector<std::string>& columns() const { return names_; }
  std::uint64_t total_rows() const { return total_; }
  std::size_t retained_rows() const {
    return total_ < capacity_ ? static_cast<std::size_t>(total_) : capacity_;
  }
  std::uint64_t dropped() const { return total_ - retained_rows(); }

  /// Visits retained rows oldest to newest: fn(t, values[ncols]).
  template <class Fn>
  void for_each_row(Fn&& fn) const {
    const std::size_t stride = names_.size() + 1;
    const std::uint64_t start = total_ - retained_rows();
    for (std::uint64_t i = start; i < total_; ++i) {
      const std::int64_t* row =
          &data_[static_cast<std::size_t>(i % capacity_) * stride];
      fn(static_cast<sim::Time>(row[0]), row + 1, names_.size());
    }
  }

 private:
  sim::Time interval_;
  std::size_t capacity_;
  std::vector<std::string> names_;
  std::vector<std::function<std::int64_t()>> probes_;
  std::vector<std::int64_t> data_;  // ring, stride = 1 + ncols ([0] = time)
  std::uint64_t total_ = 0;
};

/// One histogram's report summary (what the scenario JSON carries).
struct HistogramSummary {
  std::string name;
  std::uint64_t count = 0;
  double mean = 0, min = 0, max = 0, p50 = 0, p90 = 0, p99 = 0;
};

/// Everything a finished run's metrics boil down to — plain data, copyable
/// into runtime::ClusterReport. `enabled` gates every consumer (JSON
/// object, CSV persistence): a default Snapshot means metrics were off and
/// the report keeps its pre-metrics shape.
struct Snapshot {
  bool enabled = false;
  sim::Time sample_interval = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSummary> histograms;
  // Time series (row-major: series_values has columns.size() entries per
  // row, one row per entry of series_times).
  std::vector<std::string> series_columns;
  std::vector<sim::Time> series_times;
  std::vector<std::int64_t> series_values;
  std::uint64_t series_dropped = 0;

  std::size_t series_rows() const { return series_times.size(); }
  /// Renders the time series as CSV ("t_ns,<col>,..." header).
  std::string series_csv() const;
};

/// Per-cluster registry of named instruments. Storage is std::map so every
/// snapshot/merge iterates in name order — deterministic output regardless
/// of registration order.
class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Folds another registry in (cross-rank aggregation in tests/tools).
  void merge(const Registry& o);

  /// Freezes the registry (plus the sampler's series, when given) into the
  /// report form.
  Snapshot snapshot(const Sampler* sampler) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace mpiv::metrics
