// Scenario execution: sweep expansion, runs on runtime::Cluster, and
// the machine-readable report `mpiv_run` and the bench harness share.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "trace/trace.hpp"
#include "workloads/apps.hpp"

namespace mpiv::scenario {

struct ClusterRun;  // one cluster execution's results (runner.cpp)

/// The rank-fault-free reference runs ("twins") of one expanded grid.
/// Points whose twins strip to the same spec share one entry: expand()
/// counts each key's users, the first user's run_point runs the twin and
/// leaves it here for the others, and the last user evicts it.
struct ReferenceCache {
  struct Entry {
    int users = 0;                          // points that have not run yet
    std::shared_ptr<const ClusterRun> run;  // null until a user ran it
  };
  std::map<std::string, Entry> entries;  // by reference key
};

/// One fully-resolved point of a scenario's sweep.
struct RunPoint {
  ScenarioSpec spec;
  std::string label;
  std::vector<std::pair<std::string, std::string>> axes;
  bool skipped = false;       // workload can't run at this point (e.g. BT/2)
  std::string skip_reason;
  /// Set by expand() on points that run a twin (midrun fault or
  /// compare_reference): the grid's shared cache and the key of this
  /// point's twin, the scenario text of its stripped, unnamed spec. A
  /// null cache runs the twin unshared.
  std::shared_ptr<ReferenceCache> reference_cache;
  std::string reference_key;
};

/// How one run point ended — the chaos-soak classifier. Ordered from worst
/// to best so tallies can be compared at a glance.
enum class Outcome : std::uint8_t {
  kFailed,           // the worker executing the point died (--jobs: the
                     // crash is contained, the rest of the grid runs)
  kSkipped,          // the point never ran (workload/rank mismatch, ...)
  kAbandoned,        // hit max_sim_time without finishing
  kCompletedShrunk,  // finished on a repaired, smaller communicator (ULFM:
                     // the victim's share was redone by the survivors)
  kCompleted,        // finished, but no reference (or an inexact replay)
  kRecoveredExact,   // finished AND reproduced the fault-free reference
                     // checksums bit for bit
};

const char* outcome_name(Outcome o);

/// Everything one cluster run produced, plus the reference run when the
/// point uses the midrun-fault protocol. run() keeps only a summary of
/// each finished point (see `stanza`); run_point() returns the full run.
struct RunResult {
  std::string label;
  std::vector<std::pair<std::string, std::string>> axes;
  bool skipped = false;
  std::string skip_reason;

  // Worker-crash containment (--jobs): the process running this point
  // died before delivering a result. The grid keeps going; the point
  // is classified kFailed, never silently dropped.
  bool failed = false;
  std::string fail_reason;

  bool completed = false;
  std::string protocol_label;
  runtime::ClusterReport report;
  std::uint64_t events_executed = 0;  // sim::Engine scheduling trace
  std::uint64_t wire_bytes = 0;       // every byte on the fabric
  std::vector<std::uint64_t> checksums;  // per-rank workload checksums
  workloads::PingPongResult pingpong;    // filled by the pingpong workload
  double flops = 0;                      // executed flops (nas), else 0

  // Rank-fault-free reference (midrun-fault protocol or compare_reference).
  // Points of one grid whose twins strip to the same spec share one run.
  bool has_reference = false;
  sim::Time reference_time = 0;
  std::vector<std::uint64_t> reference_checksums;
  bool recovered_exact = false;  // checksums == reference_checksums

  // Binary trace captures (empty when trace.enabled = false). Text is
  // rendered only for a reader of text: `trace.dir` files and
  // Dump::text(). The reference capture is the alignment twin mpiv_trace
  // localizes divergence against; points that share a twin share it.
  trace::Dump trace_dump;
  trace::Dump reference_trace_dump;
  // Where the rendered streams landed when the spec named a trace.dir
  // ("" = none written).
  std::string trace_path;
  std::string reference_trace_path;
  // Where the metrics time-series CSV landed when the spec named a
  // metrics.dir ("" = none written). The summary itself travels inside
  // report.metrics.
  std::string metrics_csv_path;

  // Set on a summary only, what run() keeps of a finished point besides
  // the label, axes, skip and fail fields, `completed` and
  // `report.completion_time`: its run_json_fragment() and the outcome
  // classified from the full run. Every other payload is dropped.
  std::string stanza;
  std::optional<Outcome> kept_outcome;

  Outcome outcome() const {
    if (kept_outcome) return *kept_outcome;
    if (failed) return Outcome::kFailed;
    if (skipped) return Outcome::kSkipped;
    if (!completed) return Outcome::kAbandoned;
    // A repaired run finished on fewer ranks than the reference — it can
    // never be recovered_exact, but it did not merely "complete" either.
    if (!report.repairs.empty()) return Outcome::kCompletedShrunk;
    if (has_reference && recovered_exact) return Outcome::kRecoveredExact;
    return Outcome::kCompleted;
  }

  double sim_seconds() const { return sim::to_sec(report.completion_time); }
  double mops() const {
    return flops > 0 && report.completion_time > 0
               ? flops / sim::to_sec(report.completion_time) / 1e6
               : 0.0;
  }
  /// Order-sensitive digest over the per-rank checksums (the determinism
  /// fingerprint component).
  std::uint64_t checksum_digest() const;
};

/// Per-outcome counts over a RunSet (the chaos-soak tally: always sums to
/// runs.size()).
struct OutcomeCounts {
  std::size_t failed = 0;
  std::size_t skipped = 0;
  std::size_t abandoned = 0;
  std::size_t completed_shrunk = 0;
  std::size_t completed = 0;
  std::size_t recovered_exact = 0;

  std::size_t total() const {
    return failed + skipped + abandoned + completed_shrunk + completed +
           recovered_exact;
  }
  /// True when the grid holds a point that ran but produced no result —
  /// mpiv_run turns this into exit status 3 so CI can't silently pass.
  bool degraded() const { return failed + abandoned > 0; }
};

/// The report of one scenario execution.
struct RunSet {
  std::string scenario;
  std::string origin;  // scenario file path or "<builder>"
  bool quick = false;
  std::vector<RunResult> runs;

  OutcomeCounts tally() const;
};

/// Applies the [quick] overrides in place: a key naming a sweep axis
/// replaces that axis (comma lists stay axes), anything else applies as a
/// scalar setting.
void apply_quick(ScenarioSpec& spec);

/// Loads a scenario file as mpiv_run and mpiv_trace do: its [quick]
/// overrides apply only when `quick`, then each `key=value` in `overrides`
/// applies with the same overlay semantics (a key naming a sweep axis
/// replaces it). Throws SpecError.
ScenarioSpec load_scenario(const std::string& path, bool quick,
                           const std::vector<std::string>& overrides);

/// Expands the sweep axes (cartesian, declaration order) into validated
/// run points. Throws SpecError if any point fails validation; points
/// whose workload rejects the rank count come back `skipped`. Points that
/// run a twin share one ReferenceCache and count as users of their key.
std::vector<RunPoint> expand(const ScenarioSpec& spec);

/// The spec's ClusterConfig part. Callers can pass a spec wherever a
/// ClusterConfig is expected; this spelling stays for bench/e2e.
runtime::ClusterConfig lower(const ScenarioSpec& spec);

/// Runs one point, including its twin when it needs one. The twin runs
/// once per key per grid: a later co-keyed point reuses it from the cache,
/// and the key's last user evicts it. The lookup uses the key of the spec
/// actually run, so a point whose spec was edited after expand() runs its
/// own twin. Points sent to a --jobs worker bypass the cache (each runs
/// its own twin).
RunResult run_point(const RunPoint& point);

/// Validates, resolves and runs a single non-sweep spec.
RunResult run_spec(const ScenarioSpec& spec);

struct RunOptions {
  bool quick = false;
  /// Called after each point completes (progress reporting). A point run
  /// in process passes its full result, in sweep order; a point run by a
  /// worker passes the summary the worker sent back, in completion order.
  /// The set keeps only summaries, in sweep order either way.
  std::function<void(const RunPoint&, const RunResult&)> on_result;
  /// Worker count: 1 runs every point in process, > 1 fans the points
  /// that run a cluster across that many forked workers.
  int jobs = 1;
  /// Test hook, workers only: runs inside the worker right before a point
  /// executes (used to induce deterministic worker crashes).
  std::function<void(const RunPoint&)> before_point;
};

/// Expands and runs a whole scenario. The set keeps one summary per
/// point (RunResult::stanza); on_result sees the full results.
RunSet run(const ScenarioSpec& spec, const RunOptions& options = {});

/// Renders one run's JSON stanza at zero indent (a summary returns its
/// stanza); to_json splices these fragments into the report.
std::string run_json_fragment(const RunResult& r);

/// Serializes a report as JSON (the mpiv_run output format).
std::string to_json(const RunSet& set);
std::string to_json(const std::vector<RunSet>& sets);

}  // namespace mpiv::scenario
