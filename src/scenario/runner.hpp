// Scenario execution: sweep expansion, lowering onto runtime::Cluster, and
// the machine-readable report `mpiv_run` and the bench harness share.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "workloads/apps.hpp"

namespace mpiv::scenario {

/// One fully-resolved point of a scenario's sweep.
struct RunPoint {
  ScenarioSpec spec;
  std::string label;
  std::vector<std::pair<std::string, std::string>> axes;
  bool skipped = false;       // workload can't run at this point (e.g. BT/2)
  std::string skip_reason;
};

/// How one run point ended — the chaos-soak classifier. Ordered from worst
/// to best so tallies can be compared at a glance.
enum class Outcome : std::uint8_t {
  kFailed,           // the worker executing the point died (parallel mode:
                     // the crash is contained, the rest of the grid runs)
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
/// point uses the midrun-fault protocol.
struct RunResult {
  std::string label;
  std::vector<std::pair<std::string, std::string>> axes;
  bool skipped = false;
  std::string skip_reason;

  // Worker-crash containment (parallel mode): the process running this
  // point died before delivering a result. The grid keeps going; the point
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
  bool has_reference = false;
  sim::Time reference_time = 0;
  std::vector<std::uint64_t> reference_checksums;
  bool recovered_exact = false;  // checksums == reference_checksums

  // Merged trace streams (empty when trace.enabled = false). The reference
  // dump is the alignment twin mpiv_trace localizes divergence against.
  std::string trace_dump;
  std::string reference_trace_dump;
  // Where the dumps landed when the spec named a trace.dir ("" = in-memory).
  std::string trace_path;
  std::string reference_trace_path;
  // Where the metrics time-series CSV landed when the spec named a
  // metrics.dir ("" = none written). The summary itself travels inside
  // report.metrics.
  std::string metrics_csv_path;

  // Parallel-mode transport: a worker runs the point, renders its JSON
  // stanza with run_json_fragment() and ships it back with the summary
  // fields above; the parent splices the fragment verbatim (re-indented)
  // so the report is byte-identical to the serial path. The heavyweight
  // per-run payloads (report, checksums, traces) stay in the worker.
  std::string prerendered_json;
  // Outcome as classified where the point actually ran (parallel mode:
  // the parent-side RunResult lacks the fields outcome() derives from).
  int forced_outcome = -1;

  Outcome outcome() const {
    if (failed) return Outcome::kFailed;
    if (forced_outcome >= 0) return static_cast<Outcome>(forced_outcome);
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

/// Expands the sweep axes (cartesian, declaration order) into validated
/// run points. Throws SpecError if any point fails validation; points
/// whose workload rejects the rank count come back `skipped`.
std::vector<RunPoint> expand(const ScenarioSpec& spec);

/// Lowers a resolved spec onto the internal config (field-for-field; the
/// determinism goldens pin this mapping).
runtime::ClusterConfig lower(const ScenarioSpec& spec);

/// Runs one point (including its reference pass in midrun-fault mode).
RunResult run_point(const RunPoint& point);

/// Validates, resolves and runs a single non-sweep spec.
RunResult run_spec(const ScenarioSpec& spec);

struct RunOptions {
  bool quick = false;
  /// Called after each point completes (progress reporting). Serial mode
  /// fires in sweep order; parallel mode fires in completion order (the
  /// report itself is reassembled in sweep order either way).
  std::function<void(const RunPoint&, const RunResult&)> on_result;
  /// Worker count: 1 = the serial in-process path, > 1 = fan points across
  /// that many forked workers.
  int jobs = 1;
  /// Test hook, parallel mode only: runs inside the worker right before a
  /// point executes (used to induce deterministic worker crashes).
  std::function<void(const RunPoint&)> before_point;
};

/// Expands and runs a whole scenario.
RunSet run(const ScenarioSpec& spec, const RunOptions& options = {});

/// Renders one run's JSON stanza at zero indent — the parallel workers'
/// wire format; to_json splices these fragments back byte-identically.
std::string run_json_fragment(const RunResult& r);

/// Serializes a report as JSON (the mpiv_run output format).
std::string to_json(const RunSet& set);
std::string to_json(const std::vector<RunSet>& sets);

}  // namespace mpiv::scenario
