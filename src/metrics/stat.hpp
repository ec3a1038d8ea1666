// Report analysis behind the `mpiv_stat` CLI over the scenario reports
// `scenario::to_json` emits (parsed with util::parse_json): flattening of
// each run's
// numeric fields into "dotted.path -> value" rows, heavy-hitter ranking of
// per-rank / per-EL-shard instruments, and a tolerance diff of two reports
// — the A/B regression primitive (two identical-seed runs must diff to
// zero drift; CI asserts exactly that).
//
// Lives in the library (not the tool) so tests/test_metrics.cpp can unit
// test the flattener and differ without spawning a process.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace mpiv::metrics {

/// One run of a report, flattened: every numeric leaf reachable through
/// nested objects becomes "path.to.leaf -> value" (bools as 0/1; strings
/// and arrays are skipped). Sorted by name.
struct RunMetrics {
  std::string label;
  bool skipped = false;
  std::vector<std::pair<std::string, double>> values;

  /// Value lookup; nullptr when the run has no such metric.
  const double* find(const std::string& name) const;
};

/// Collects every run of a report — handles both a single-set report
/// ({"runs": [...]}) and a multi-set one ({"reports": [{"runs": ...}]}).
/// Throws std::runtime_error when the document has no runs array.
std::vector<RunMetrics> extract_runs(const util::Json& report);

/// One per-rank / per-EL-shard entity ("rank3", "el0") ranked by its
/// hottest instrument (ack_us.p99 for ranks when present, stored_ops for
/// shards), with every instrument of that entity as detail rows.
struct TopRow {
  std::string entity;
  std::string weight_metric;
  double weight = 0;
  std::vector<std::pair<std::string, double>> details;
};

/// Heaviest `n` entities of one run, weight-descending (ties by name).
std::vector<TopRow> top_rows(const RunMetrics& run, std::size_t n);

/// One metric whose relative drift between two reports exceeds tolerance,
/// or that exists on only one side (the other value reported as 0 with
/// missing_in set).
struct DiffEntry {
  std::string run;
  std::string metric;
  double a = 0;
  double b = 0;
  double drift = 0;     // |a-b| / max(|a|,|b|), 0 when both are 0
  int missing_in = 0;   // 0 = present in both, 1 = absent in A, 2 = absent in B
};

struct DiffResult {
  std::vector<DiffEntry> drifting;
  std::vector<std::string> unmatched_runs;  // labels on one side only
  std::size_t runs_compared = 0;
  std::size_t metrics_compared = 0;

  bool clean() const { return drifting.empty() && unmatched_runs.empty(); }
};

/// Diffs two parsed reports run-by-run (matched by label) and
/// metric-by-metric. `tolerance` is the allowed relative drift per metric
/// (0 = exact).
DiffResult diff_reports(const util::Json& a, const util::Json& b, double tolerance);

}  // namespace mpiv::metrics
