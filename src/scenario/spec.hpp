// Declarative experiment specs (the paper's comparison matrix as data).
//
// A ScenarioSpec is a runtime::ClusterConfig — protocol variant, EL
// topology, cost model, checkpoint policy, fault campaign — plus what only
// a scenario has: a name, the midrun-crash protocol, report directories,
// the workload, sweep axes and quick overrides. The key table behind
// apply_key is the only way to set one: a scenario-file line
// (parse_scenario_file), an `mpiv_run --set` override, a sweep-axis value
// and ScenarioBuilder::set in C++ all go through the same parser and
// bounds. A Cluster is built straight from the spec's ClusterConfig part,
// so each setting has one member and one default
// (tests/test_determinism.cpp pins the resulting runs).
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/cluster.hpp"

namespace mpiv::scenario {

/// Recoverable configuration error: unknown names, out-of-range values,
/// malformed scenario files. (MPIV_CHECK aborts; spec validation must be
/// reportable to the user instead.)
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Registry-resolved workload plus its string-typed parameters (exact for
/// the integral knobs every bundled workload uses).
struct WorkloadSpec {
  std::string name = "ring";
  std::map<std::string, std::string> params;

  bool has(const std::string& key) const { return params.count(key) != 0; }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_str(const std::string& key, const std::string& fallback) const;
};

/// The paper's "middle of correct execution" protocol. `midrun_rank >= 0`
/// makes the runner first execute a fault-free reference, then rerun with a
/// crash of that rank at `midrun_frac * reference completion time`, put at
/// the front of the campaign. Every other fault is a campaign injection.
struct MidrunFault {
  int midrun_rank = -1;
  double midrun_frac = 0.5;
};

/// The full declarative experiment description: the cluster configuration
/// plus the scenario's own fields.
struct ScenarioSpec : runtime::ClusterConfig {
  std::string name = "unnamed";
  std::string notes;

  bool el_shards_set = false;  // true once el_shards was explicitly chosen
  MidrunFault faults;

  /// Run a fault-free reference pass even without a midrun fault, so
  /// `recovered_exact` is computed for ANY faulty run (the chaos-soak
  /// outcome classifier). The reference strips rank crashes but keeps the
  /// campaign's environment faults, exactly like the midrun protocol.
  bool compare_reference = false;

  /// Directory for trace stream files ("" = keep in memory / JSON only).
  /// When a reference pass runs, it inherits the same trace config so the
  /// two streams can be aligned by mpiv_trace.
  std::string trace_dir;
  /// Directory for per-run time-series CSV files ("" = JSON summary only).
  std::string metrics_dir;

  WorkloadSpec workload;

  /// Cartesian sweep axes in declaration order: each key is any scalar
  /// spec key ("variant", "nranks", "el_shards", "workload.kernel", ...).
  std::vector<std::pair<std::string, std::vector<std::string>>> sweep;

  /// Overrides applied in quick mode (mpiv_run --quick / CI smoke). A key
  /// that names a sweep axis replaces that axis.
  std::vector<std::pair<std::string, std::string>> quick;
};

/// Resolves a variant name ("vcausal", "manetho:noel", "coordinated")
/// through the protocol/strategy registries; causal strategies default to
/// ":el" when unsuffixed. Its canonical spelling is
/// runtime::ProtocolEntry::variant_name. Throws SpecError for unknown
/// names, listing what is registered.
runtime::Variant parse_variant(const std::string& name);

/// Applies one textual `key = value` setting to the spec — the single
/// mutation path shared by the file parser, sweep expansion, quick
/// overlays and ScenarioBuilder. Throws SpecError on unknown keys or
/// unparsable values.
void apply_key(ScenarioSpec& spec, const std::string& key,
               const std::string& value);

/// Removes the campaign injections a `faults.*` injection key previously
/// produced (no-op for other keys). Sweep axes and quick overlays call this
/// before re-applying, so a swept injection key REPLACES the base
/// `[faults]` line of the same kind — matching every other axis's override
/// semantics — while repeated lines within a `[faults]` section still
/// accumulate.
void strip_fault_key(ScenarioSpec& spec, const std::string& key);

/// Splits a comma-separated value list, trimming each element (the sweep-
/// axis and quick-overlay tokenizer).
std::vector<std::string> split_list(const std::string& csv);

/// The documentation columns of one scenario key. spec.cpp holds one table
/// row per key, and that table is the single source of truth: apply_key,
/// to_scenario_text, strip_fault_key and validate's per-field bounds all
/// read it, `mpiv_run --list` prints it, and scripts/check_docs.sh fails
/// when a key in it is missing from docs/SCENARIOS.md.
struct KeyInfo {
  const char* key;      // flat spelling, e.g. "cost.wire_latency"
  const char* section;  // "scenario", "trace", "metrics", "cost" or "faults"
  const char* syntax;
  const char* example;  // a value apply_key accepts
  const char* summary;
};
/// Every key in table order, grouped by section. `workload.*` stands for the
/// workload parameter family.
const std::vector<KeyInfo>& key_table();

/// Parses the `mpiv_run` scenario text format (INI-style sections: the key
/// table's [scenario] / [trace] / [metrics] / [cost] / [faults], plus
/// [sweep] / [quick]; '#' comments). Throws SpecError with file:line
/// context on malformed input.
ScenarioSpec parse_scenario_text(const std::string& text,
                                 const std::string& origin = "<string>");
ScenarioSpec parse_scenario_file(const std::string& path);

/// Serializes a spec back to scenario-file text (parse round-trip).
std::string to_scenario_text(const ScenarioSpec& spec);

/// Validates a fully-resolved spec (no sweep axes considered). Throws
/// SpecError naming the scenario and the offending field.
void validate(const ScenarioSpec& spec);

/// C++ construction through the key table: `set` applies one key exactly
/// as a scenario-file line would (same parser, bounds and to_scenario_text
/// round trip), `sweep` adds an axis, and build() validates. Throws
/// SpecError.
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(std::string name = "unnamed") {
    spec_.name = std::move(name);
  }

  ScenarioBuilder& set(const std::string& key, const std::string& value) {
    apply_key(spec_, key, value);
    return *this;
  }
  /// Adds a cartesian sweep axis (expanded by scenario::expand / run).
  ScenarioBuilder& sweep(const std::string& key,
                         const std::vector<std::string>& values) {
    spec_.sweep.emplace_back(key, values);
    return *this;
  }
  ScenarioSpec build() const {
    validate(spec_);
    return spec_;
  }

 private:
  ScenarioSpec spec_;
};

}  // namespace mpiv::scenario
