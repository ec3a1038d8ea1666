// bench_e2e — end-to-end host-time benchmark of the simulator, with a
// per-layer split.
//
// The benchmark drives the library only through its public scenario calls,
// as `mpiv_run --jobs 1` does: parse_scenario_file -> expand -> run_point
// for each point -> to_json, serially, in this one process and thread. A
// workload is one or more .scn files under workloads/; each file's header
// says why it exists and how --seed reaches it (`bench_e2e --list`).
//
// A measuring run (the default):
//   1. runs whole passes (expand + every run_point + to_json) for --seconds:
//      one untimed warm-up pass, then at least three timed ones; it reports
//      the median timed pass with its min and max, the median and the
//      slowest point (each point's time is its median over the timed
//      passes), and the peak resident set after the warm-up pass;
//   2. before each timed pass, times set-up — parse + expand + workload
//      make + lower + Cluster construction for every point — repeatedly,
//      and reports the median;
//   3. checks every pass: each point classifies and none failed or was
//      skipped, every finished point with a fault-free reference reproduced
//      it exactly, and the pass digest (events, wire bytes, checksums,
//      completion time and outcome of every point) equals expected.json
//      for seeds 1-3, or the first pass's digest for any other seed. A pass
//      with a wrong digest counts all its points as failed.
//
// A traced run (--trace SPANS.json) measures the per-layer numbers instead:
// spans around each public call (written to SPANS.json), layer kernels
// timed at the workload's own shape, and the modelled counts of a
// metrics-on pass. Its passes are digest-checked the same way.
//
// The last line on stdout is one JSON object:
//   {"correct": B, "attempted": N, "failed": F, "metrics": {NAME: {"value":
//    V, "unit": U}, ...}}
// with the end-to-end metrics, or with --trace the per-layer ones. The exit
// status is 0 when every check passed, 1 when one failed and 2 on bad usage
// or input.
//
// Usage:
//   bench_e2e --workload W --seed S [--seconds T] [--trace SPANS.json]
//   bench_e2e --workload W --seed S --bless   (seeds 1-3: rewrite expected.json)
//   bench_e2e --list
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "causal/antecedence_graph.hpp"
#include "causal/event_store.hpp"
#include "causal/sender_log.hpp"
#include "causal/strategy.hpp"
#include "runtime/cluster.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/engine.hpp"

namespace {

namespace sc = mpiv::scenario;
using Clock = std::chrono::steady_clock;

// A pass is 3-5 s on a 4-vCPU Xeon guest and varies by several percent from
// one pass to the next, so a run reports the median of at least three.
constexpr std::size_t kMinPasses = 3;
// Set-up takes milliseconds, so it is repeated for this long before every
// timed pass and the median kept. The host's speed drifts over tens of
// seconds; sampling set-up across the whole run, as the passes are, keeps
// its median comparable from run to run.
constexpr std::size_t kMinSetupReps = 3;
constexpr double kSetupSecondsPerPass = 0.25;
// Each kernel repetition runs at least this long; three are taken.
constexpr double kKernelRepSeconds = 0.03;
// Seeds whose digests expected.json pins.
constexpr std::uint64_t kPinnedSeeds = 3;

std::uint64_t g_sink = 0;  // keeps kernel results observable

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  std::vector<const char*> files;  // under workloads/, run in this order
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"wildcard_causal", {"wildcard_causal.scn"}},
      {"nas_fig9", {"nas_fig9.scn"}},
      {"nas_framework", {"nas_framework.scn"}},
      {"fault_soak", {"fault_soak_chaos.scn", "fault_soak_family.scn"}},
  };
  return w;
}

std::string e2e_path(const std::string& rel) {
  return std::string(MPIV_E2E_DIR) + "/" + rel;
}

/// --seed S reaches a spec here: a `seed` sweep axis becomes S, S+1, ...
/// (one value per original entry), otherwise `seed` = S; a workload with
/// its own traffic seed (random_any's workload.seed) gets S too.
void apply_seed(sc::ScenarioSpec& spec, std::uint64_t seed) {
  bool swept = false;
  for (auto& [key, values] : spec.sweep) {
    if (key != "seed") continue;
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = std::to_string(seed + i);
    }
    swept = true;
  }
  if (!swept) sc::apply_key(spec, "seed", std::to_string(seed));
  if (spec.workload.has("seed")) {
    sc::apply_key(spec, "workload.seed", std::to_string(seed));
  }
}

std::vector<sc::ScenarioSpec> load_specs(const Workload& w,
                                         std::uint64_t seed) {
  std::vector<sc::ScenarioSpec> specs;
  for (const char* f : w.files) {
    sc::ScenarioSpec spec =
        sc::parse_scenario_file(e2e_path(std::string("workloads/") + f));
    spec.quick.clear();
    apply_seed(spec, seed);
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Prints each workload with the leading comment block of its files.
void list_workloads() {
  for (const Workload& w : workloads()) {
    std::printf("%s\n", w.name);
    for (const char* f : w.files) {
      std::printf("  workloads/%s\n", f);
      std::ifstream in(e2e_path(std::string("workloads/") + f));
      std::string line;
      while (std::getline(in, line) && !line.empty() && line[0] == '#') {
        std::printf("    %s\n", line.c_str());
      }
    }
    std::printf("\n");
  }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;  // index of the enclosing span, -1 at top level
  int point = -1;   // sweep point the span belongs to (its request id)
  double start_us = 0;
  double dur_us = 0;
};

/// In-memory span recorder; written out once the run ends.
class Tracer {
 public:
  int begin(const char* name, int parent = -1, int point = -1) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.point = point;
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.dur_us = now_us() - s.start_us;
  }
  const Span& at(int id) const { return spans_[static_cast<std::size_t>(id)]; }

  double total_ms(const std::string& name) const {
    double us = 0;
    for (const Span& s : spans_) {
      if (s.name == name) us += s.dur_us;
    }
    return us / 1e3;
  }

  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    std::ofstream f(path, std::ios::trunc);
    if (!f) return false;
    f << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"spans\": [\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                    "\"point\": %d, \"start_us\": %.3f, \"dur_us\": %.3f}%s\n",
                    i, s.name.c_str(), s.parent, s.point, s.start_us, s.dur_us,
                    i + 1 < spans_.size() ? "," : "");
      f << buf;
    }
    f << "]}\n";
    return f.good();
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Records one span when a tracer is given; a no-op otherwise.
class Scope {
 public:
  Scope(Tracer* t, const char* name, int parent = -1, int point = -1)
      : t_(t), id_(t ? t->begin(name, parent, point) : -1) {}
  ~Scope() {
    if (t_) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Passes and their checks
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t digest_point(std::uint64_t h, const sc::RunResult& r) {
  h = fnv_mix(h, r.events_executed);
  h = fnv_mix(h, r.wire_bytes);
  h = fnv_mix(h, r.checksum_digest());
  h = fnv_mix(h, static_cast<std::uint64_t>(r.report.completion_time));
  return fnv_mix(h, static_cast<std::uint64_t>(r.outcome()));
}

/// The per-point output check; an empty string means the point is correct.
std::string check_point(const sc::RunResult& r) {
  switch (r.outcome()) {
    case sc::Outcome::kFailed:
      return "failed: " + r.fail_reason;
    case sc::Outcome::kSkipped:
      return "skipped: " + r.skip_reason;
    default:
      break;
  }
  // A finished point with a reference twin must replay it bit for bit; only
  // a repaired (ULFM, shrunk) run legitimately cannot.
  if (r.has_reference && r.completed && r.report.repairs.empty() &&
      !r.recovered_exact) {
    return "finished but did not reproduce its fault-free reference";
  }
  return "";
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

struct Pass {
  double wall_s = 0;          // expand + every run_point + to_json
  double run_points_s = 0;    // the run_point calls alone
  std::vector<double> point_ms;
  std::uint64_t events = 0;   // events of the measured cluster runs
  double sim_s = 0;           // simulated seconds of the measured runs
  std::uint64_t digest = kFnvOffset;
  std::size_t broken = 0;     // points that failed a check
  std::vector<sc::RunPoint> points;       // as run, in sweep order
  std::vector<char> has_reference;        // per point
  std::vector<mpiv::sim::Time> sim_end;   // per point; 0 when unfinished
  std::vector<int> run_point_span;        // traced passes: span per point
  std::vector<sc::RunSet> sets;           // kept on request (counts pass)
};

/// Optional per-point spec edit applied after expand, outside the timers.
using PointEdit = std::function<void(sc::ScenarioSpec&, std::size_t index)>;
/// Optional work right after each point's run_point; its time is excluded
/// from the pass.
using AfterPoint = std::function<void(const sc::RunPoint&, std::size_t index)>;

Pass run_pass(const std::vector<sc::ScenarioSpec>& specs, Tracer* tracer,
              bool keep_sets, const PointEdit& edit = {},
              const AfterPoint& after = {}) {
  Pass p;
  std::vector<sc::RunSet> sets;
  double excluded_s = 0;
  const Clock::time_point t0 = Clock::now();
  for (const sc::ScenarioSpec& spec : specs) {
    std::vector<sc::RunPoint> points;
    {
      Scope s(tracer, "scenario.expand");
      points = sc::expand(spec);
    }
    sc::RunSet set;
    set.scenario = spec.name;
    set.origin = spec.name + ".scn";
    for (sc::RunPoint& pt : points) {
      const std::size_t index = p.points.size();
      if (edit) edit(pt.spec, index);
      sc::RunResult r;
      const Clock::time_point tp = Clock::now();
      {
        Scope s(tracer, "scenario.run_point", -1, static_cast<int>(index));
        r = sc::run_point(pt);
        p.run_point_span.push_back(s.id());
      }
      const double sec = seconds_since(tp);
      p.run_points_s += sec;
      p.point_ms.push_back(sec * 1e3);
      p.events += r.events_executed;
      p.sim_s += r.sim_seconds();
      p.has_reference.push_back(r.has_reference);
      p.sim_end.push_back(r.completed ? r.report.completion_time : 0);
      p.digest = digest_point(p.digest, r);
      if (const std::string why = check_point(r); !why.empty()) {
        ++p.broken;
        std::fprintf(stderr, "bench_e2e: check failed at %s / %s: %s\n",
                     spec.name.c_str(), r.label.c_str(), why.c_str());
      }
      if (after) {
        const Clock::time_point ta = Clock::now();
        after(pt, index);
        excluded_s += seconds_since(ta);
      }
      set.runs.push_back(std::move(r));
      p.points.push_back(std::move(pt));
    }
    sets.push_back(std::move(set));
  }
  std::string json;
  {
    Scope s(tracer, "scenario.report");
    json = sc::to_json(sets);
  }
  p.wall_s = seconds_since(t0) - excluded_s;
  // The report must carry one stanza per point.
  if (count_of(json, "\"label\": ") != p.point_ms.size()) {
    std::fprintf(stderr, "bench_e2e: report has %zu run stanzas for %zu points\n",
                 count_of(json, "\"label\": "), p.point_ms.size());
    p.broken = p.point_ms.size();
  }
  if (keep_sets) p.sets = std::move(sets);
  return p;
}

std::string digest_hex(std::uint64_t d) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(d));
  return buf;
}

/// expected.json: one `"<workload>/<seed>": "0x<digest>"` entry per line.
std::map<std::string, std::string> read_expected() {
  std::map<std::string, std::string> out;
  std::ifstream in(e2e_path("expected.json"));
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t k0 = line.find('"');
    const std::size_t k1 = line.find('"', k0 + 1);
    const std::size_t v0 = line.find('"', k1 + 1);
    const std::size_t v1 = line.find('"', v0 + 1);
    if (k0 == std::string::npos || k1 == std::string::npos ||
        v0 == std::string::npos || v1 == std::string::npos) {
      continue;
    }
    out[line.substr(k0 + 1, k1 - k0 - 1)] = line.substr(v0 + 1, v1 - v0 - 1);
  }
  return out;
}

bool write_expected(const std::map<std::string, std::string>& entries) {
  std::ofstream f(e2e_path("expected.json"), std::ios::trunc);
  if (!f) return false;
  f << "{\n";
  std::size_t i = 0;
  for (const auto& [key, digest] : entries) {
    f << "  \"" << key << "\": \"" << digest << "\""
      << (++i < entries.size() ? "," : "") << "\n";
  }
  f << "}\n";
  return f.good();
}

struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string digest;
  std::string expected;  // "" when the seed is not pinned
};

/// Checks every pass's digest against the pinned one (seeds 1..3) or the
/// first pass's, and tallies points. --bless pins the passes' common digest.
Verdict verify(const std::vector<const Pass*>& passes, const std::string& key,
               std::uint64_t seed, bool bless) {
  Verdict v;
  v.digest = digest_hex(passes.front()->digest);
  std::map<std::string, std::string> expected = read_expected();
  if (seed >= 1 && seed <= kPinnedSeeds) {
    if (bless) {
      expected[key] = v.digest;
      if (!write_expected(expected)) {
        throw std::runtime_error("cannot write " + e2e_path("expected.json"));
      }
    }
    const auto it = expected.find(key);
    v.expected = it == expected.end() ? "<missing>" : it->second;
  }
  const std::string& want = v.expected.empty() ? v.digest : v.expected;
  for (const Pass* p : passes) {
    v.attempted += p->point_ms.size();
    if (digest_hex(p->digest) != want) {
      std::fprintf(stderr, "bench_e2e: pass digest %s, expected %s\n",
                   digest_hex(p->digest).c_str(), want.c_str());
      v.failed += p->point_ms.size();
    } else {
      v.failed += p->broken;
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// One set-up pre-pass: parse + expand + workload make + lower + Cluster
/// construction for every point. Destruction is left out of the timing.
double time_setup(const Workload& w, std::uint64_t seed) {
  Clock::time_point t0 = Clock::now();
  const std::vector<sc::ScenarioSpec> specs = load_specs(w, seed);
  double sec = 0;
  for (const sc::ScenarioSpec& spec : specs) {
    for (const sc::RunPoint& pt : sc::expand(spec)) {
      if (pt.skipped) continue;
      sc::WorkloadInstance wl =
          sc::workload_registry().at(pt.spec.workload.name).make(pt.spec);
      auto cluster = std::make_unique<mpiv::runtime::Cluster>(sc::lower(pt.spec));
      sec += seconds_since(t0);
      cluster.reset();
      t0 = Clock::now();
    }
  }
  return sec + seconds_since(t0);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  double lo = 0, hi = 0;  // min and max over the samples (== value if one)
  std::size_t n = 1;      // samples behind the value
};

Metric summary(const std::string& name, const std::string& unit,
               const std::vector<double>& samples) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.value = median(samples);
  m.lo = *std::min_element(samples.begin(), samples.end());
  m.hi = *std::max_element(samples.begin(), samples.end());
  m.n = samples.size();
  return m;
}

Metric single(const std::string& name, const std::string& unit, double v) {
  return Metric{name, v, unit, v, v, 1};
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    if (m.n > 1) {
      std::printf("%-28s %16.10g %-8s (median of %zu; min %.6g, max %.6g)\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.n, m.lo, m.hi);
    } else {
      std::printf("%-28s %16.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
}

void print_result_line(const Verdict& v, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              v.failed == 0 ? "true" : "false", v.attempted, v.failed);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_verdict(const Verdict& v) {
  std::printf("%-28s %16.10g %-8s (%zu of %zu points)\n", "error_rate",
              v.attempted ? static_cast<double>(v.failed) /
                                static_cast<double>(v.attempted)
                          : 0.0,
              "ratio", v.failed, v.attempted);
  std::printf("%-28s %16s %s\n", "digest", v.digest.c_str(),
              v.expected.empty() ? "(seed not pinned: checked across passes)"
                                 : ("(expected " + v.expected + ")").c_str());
}

/// Peak resident set of this program. VmHWM, not getrusage's ru_maxrss:
/// Linux carries ru_maxrss across exec, so it would report the launching
/// process's footprint whenever that was larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---------------------------------------------------------------------------
// Modelled counts (from a metrics-on pass)
// ---------------------------------------------------------------------------

struct SeriesStats {
  double max = 0;
  double mean = 0;
};

/// Max and mean of one sampled gauge column (zero when it was not sampled).
SeriesStats series_stats(const mpiv::metrics::Snapshot& s, const std::string& col) {
  SeriesStats out;
  const auto it = std::find(s.series_columns.begin(), s.series_columns.end(), col);
  if (it == s.series_columns.end() || s.series_rows() == 0) return out;
  const std::size_t k = static_cast<std::size_t>(it - s.series_columns.begin());
  const std::size_t stride = s.series_columns.size();
  for (std::size_t row = 0; row < s.series_rows(); ++row) {
    const auto v = static_cast<double>(s.series_values[row * stride + k]);
    out.max = std::max(out.max, v);
    out.mean += v;
  }
  out.mean /= static_cast<double>(s.series_rows());
  return out;
}

struct Counts {
  std::map<std::string, double> v;  // metric name -> value
  // Per causal strategy (display name): application messages sent,
  // determinants piggybacked, and the message-weighted mean of a rank's
  // held determinant set — the shape the strategy kernels are timed at.
  std::map<std::string, double> app_msgs_by_strategy;
  std::map<std::string, double> pb_events_by_strategy;
  std::map<std::string, double> held_by_strategy;
  int max_nranks = 0;
  double causal_app_msgs = 0;
};

Counts collect_counts(const Pass& pass) {
  Counts c;
  auto& v = c.v;
  // Every count is reported, zero when the workload never exercises it.
  for (const char* name :
       {"sim.events", "sim.heap_peak", "net.frames", "net.wire_mb",
        "net.inflight_peak", "mpi.app_msgs", "causal.pb_events",
        "causal.pb_pct", "causal.pb_cpu_s", "causal.pb_set_peak",
        "causal.pb_set_mean", "causal.pb_empty_share",
        "causal.graph_peak_nodes", "elog.events_stored", "elog.ack_p99_us",
        "elog.queue_peak", "fault.recoveries", "fault.collect_ms_p50",
        "fault.replay_ms_p50", "fault.daemon_down_ms",
        "ckpt.sender_log_peak_mb", "scenario.points",
        "scenario.recovered_exact", "scenario.abandoned", "trace.records",
        "trace.dropped"}) {
    v[name] = 0;
  }
  mpiv::metrics::Histogram acks;
  std::vector<double> collect_ms, replay_ms;
  double app_bytes = 0, pb_bytes = 0, pb_empty = 0;
  std::size_t index = 0;
  for (const sc::RunSet& set : pass.sets) {
    for (const sc::RunResult& r : set.runs) {
      const sc::ScenarioSpec& spec = pass.points[index++].spec;
      c.max_nranks = std::max(c.max_nranks, spec.nranks);
      const mpiv::ftapi::RankStats t = r.report.totals();
      const mpiv::metrics::Snapshot& ms = r.report.metrics;
      if (spec.variant.protocol == mpiv::runtime::ProtocolKind::kCausal) {
        const std::string s = sc::strategy_entry(spec.variant.strategy).display;
        const double msgs = static_cast<double>(t.app_msgs_sent);
        const double held = series_stats(ms, "pb.sum").mean / spec.nranks;
        c.app_msgs_by_strategy[s] += msgs;
        c.pb_events_by_strategy[s] += static_cast<double>(t.pb_events_sent);
        c.held_by_strategy[s] += held * msgs;
        c.causal_app_msgs += msgs;
        v["causal.pb_set_mean"] += held * msgs;
        v["causal.pb_set_peak"] =
            std::max(v["causal.pb_set_peak"], static_cast<double>(t.event_store_peak));
      }
      v["sim.events"] += static_cast<double>(r.events_executed);
      v["sim.heap_peak"] = std::max(v["sim.heap_peak"], series_stats(ms, "heap").max);
      for (const auto& [name, n] : ms.counters) {
        if (name == "net.frames_sent") v["net.frames"] += static_cast<double>(n);
      }
      v["net.wire_mb"] += static_cast<double>(r.wire_bytes) / 1e6;
      v["net.inflight_peak"] =
          std::max(v["net.inflight_peak"], series_stats(ms, "net.inflight").max);
      v["mpi.app_msgs"] += static_cast<double>(t.app_msgs_sent);
      v["causal.pb_events"] += static_cast<double>(t.pb_events_sent);
      app_bytes += static_cast<double>(t.app_bytes_sent);
      pb_bytes += static_cast<double>(t.pb_bytes_sent);
      pb_empty += static_cast<double>(t.pb_empty_msgs);
      v["causal.pb_cpu_s"] += mpiv::sim::to_sec(t.pb_send_cpu + t.pb_recv_cpu);
      v["causal.graph_peak_nodes"] = std::max(
          v["causal.graph_peak_nodes"], static_cast<double>(t.graph_peak_nodes));
      v["elog.events_stored"] += static_cast<double>(r.report.el_stats.events_stored);
      acks.merge(t.el_ack_latency_us);
      v["elog.queue_peak"] = std::max(
          v["elog.queue_peak"], static_cast<double>(r.report.el_stats.peak_queue));
      v["fault.recoveries"] += static_cast<double>(r.report.recoveries.size());
      for (const mpiv::fault::RecoveryRecord& rec : r.report.recoveries) {
        if (!rec.complete()) continue;
        collect_ms.push_back(mpiv::sim::to_ms(rec.collect_ns()));
        replay_ms.push_back(mpiv::sim::to_ms(rec.replay_ns()));
      }
      for (const mpiv::fault::DaemonOutageRecord& d : r.report.daemon_outages) {
        if (d.complete()) v["fault.daemon_down_ms"] += mpiv::sim::to_ms(d.down_ns());
      }
      v["ckpt.sender_log_peak_mb"] =
          std::max(v["ckpt.sender_log_peak_mb"],
                   static_cast<double>(t.sender_log_peak_bytes) / 1e6);
      v["scenario.points"] += 1;
      const sc::Outcome o = r.outcome();
      if (o == sc::Outcome::kRecoveredExact) v["scenario.recovered_exact"] += 1;
      if (o == sc::Outcome::kAbandoned) v["scenario.abandoned"] += 1;
      // Header and lane lines of a dump start with '#'; the rest are records.
      bool line_start = true, comment = false;
      for (const char ch : r.trace_dump) {
        if (line_start) comment = ch == '#';
        line_start = ch == '\n';
        if (line_start && !comment) v["trace.records"] += 1;
      }
      for (const auto& [name, g] : ms.gauges) {
        if (name == "trace.dropped_total") v["trace.dropped"] += static_cast<double>(g);
      }
    }
  }
  for (auto& [s, held] : c.held_by_strategy) {
    const double msgs = c.app_msgs_by_strategy[s];
    held = msgs > 0 ? held / msgs : 0;
  }
  if (c.causal_app_msgs > 0) v["causal.pb_set_mean"] /= c.causal_app_msgs;
  v["causal.pb_pct"] = app_bytes > 0 ? 100.0 * pb_bytes / app_bytes : 0;
  v["causal.pb_empty_share"] =
      v["mpi.app_msgs"] > 0 ? pb_empty / v["mpi.app_msgs"] : 0;
  v["elog.ack_p99_us"] = acks.count() ? acks.p99() : 0;
  v["fault.collect_ms_p50"] = median(collect_ms);
  v["fault.replay_ms_p50"] = median(replay_ms);
  return c;
}

// ---------------------------------------------------------------------------
// Layer kernels: public APIs timed at the workload's own shape
// ---------------------------------------------------------------------------

/// Nanoseconds per unit of work: `batch()` does some work and returns how
/// many units; three repetitions of at least kKernelRepSeconds, median.
template <class Batch>
double ns_per_op(Batch&& batch) {
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t ops = 0;
    const Clock::time_point t0 = Clock::now();
    double sec = 0;
    do {
      ops += batch();
      sec = seconds_since(t0);
    } while (sec < kKernelRepSeconds);
    reps.push_back(sec * 1e9 / static_cast<double>(ops));
  }
  return median(reps);
}

std::uint64_t splitmix(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct QEv {
  mpiv::sim::Time t;
  std::uint64_t seq;
};

/// CalendarQueue hold model at `population` pending events: each pop
/// schedules a successor a short pseudo-random distance ahead. ns per
/// pop + push pair.
double kernel_queue(std::size_t population) {
  mpiv::sim::CalendarQueue<QEv> q;
  std::uint64_t x = 1, seq = 0;
  const auto gap = [&x] {
    return static_cast<mpiv::sim::Time>(splitmix(x) % 20'000);
  };
  for (std::size_t i = 0; i < population; ++i) q.push(QEv{gap(), seq++});
  return ns_per_op([&] {
    for (int i = 0; i < 4096; ++i) {
      const QEv top = q.top();
      q.pop();
      g_sink += top.seq;
      q.push(QEv{top.t + gap(), seq++});
    }
    return std::uint64_t{4096};
  });
}

/// Engine resume lane: `procs` coroutine processes sleeping in lockstep
/// (one per simulated rank). ns per executed event.
double kernel_resume(int procs) {
  return ns_per_op([procs] {
    mpiv::sim::Engine eng;
    const std::uint64_t per_proc = 65536 / static_cast<std::uint64_t>(procs) + 1;
    for (int p = 0; p < procs; ++p) {
      std::string pname = "p";
      pname += std::to_string(p);
      eng.create_process(pname).start(
          [](mpiv::sim::Engine& e, std::uint64_t n) -> mpiv::sim::Task<void> {
            for (std::uint64_t i = 0; i < n; ++i) co_await e.sleep(10);
          }(eng, per_proc));
    }
    return eng.run();
  });
}

/// Engine callback lane: `chains` self-rescheduling timers, each firing a
/// short pseudo-random delay after the last, keep that many callbacks
/// pending — the at()/after() pattern of the network and services. ns per
/// executed event.
double kernel_callbacks(std::size_t chains) {
  struct Chain {
    mpiv::sim::Engine* eng;
    std::uint64_t left;
    std::uint64_t x;
    void fire() {
      if (left-- == 0) return;
      eng->after(1 + static_cast<mpiv::sim::Time>(splitmix(x) % 20'000),
                 [this] { fire(); });
    }
  };
  return ns_per_op([chains] {
    mpiv::sim::Engine eng;
    std::vector<Chain> cs(chains);
    for (std::size_t i = 0; i < chains; ++i) {
      Chain& c = cs[i];
      c.eng = &eng;
      c.left = 65536 / chains + 1;
      c.x = i;
      eng.after(1, [&c] { c.fire(); });
    }
    return eng.run();
  });
}

mpiv::ftapi::Determinant make_det(std::uint32_t creator, std::uint64_t seq,
                                  std::uint32_t src, std::uint64_t dep_seq) {
  mpiv::ftapi::Determinant d;
  d.creator = creator;
  d.seq = seq;
  d.src = src;
  d.ssn = seq;
  d.tag = 1;
  d.dep_creator = src;
  d.dep_seq = dep_seq;
  return d;
}

/// A miniature causal cluster: `nranks` stores and strategies exchanging
/// point-to-point messages, each carrying a piggyback built by the sender
/// (on_send), absorbed by the receiver (on_packet) and followed by the
/// receiver's reception determinant (on_deliver). Rank r sends in turn to
/// its `fan` successors, which sets how much news each piggyback carries
/// (about fan x nranks determinants). A stability vector trailing each
/// creator by held/nranks events plays the Event Logger, so every store
/// holds about `held` determinants.
class CausalRing {
 public:
  CausalRing(const std::string& strategy, int nranks, std::size_t held,
             int fan)
      : n_(nranks),
        fan_(fan),
        lag_(std::max<std::uint64_t>(1, held / static_cast<std::size_t>(nranks))),
        seq_(static_cast<std::size_t>(nranks), 0),
        sends_(static_cast<std::size_t>(nranks), 0),
        stable_(static_cast<std::size_t>(nranks), 0) {
    stores_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      stores_.emplace_back(nranks);
      strategies_.push_back(sc::strategies().at(strategy).make());
    }
    for (int r = 0; r < nranks; ++r) {
      strategies_[static_cast<std::size_t>(r)]->attach(
          &stores_[static_cast<std::size_t>(r)], &cost_, r, nranks);
    }
    for (std::uint64_t i = 0; i < 2 * lag_ * static_cast<std::uint64_t>(n_); ++i) {
      step(nullptr, nullptr, nullptr);
    }
  }

  /// One message; adds the build and absorb times and the determinants
  /// carried when asked.
  void step(double* build_ns, double* absorb_ns, std::uint64_t* events) {
    const auto src = static_cast<int>(k_ % static_cast<std::uint64_t>(n_));
    const int dst =
        (src + 1 + sends_[static_cast<std::size_t>(src)]++ % fan_) % n_;
    mpiv::util::Buffer buf;
    mpiv::causal::Strategy::DepShadow deps;
    const Clock::time_point t0 = Clock::now();
    const auto work = strategies_[static_cast<std::size_t>(src)]->build(dst, buf, deps);
    const Clock::time_point t1 = Clock::now();
    if (buf.size() > 0) {
      strategies_[static_cast<std::size_t>(dst)]->absorb(src, buf, deps);
    }
    const Clock::time_point t2 = Clock::now();
    if (build_ns) {
      *build_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
      *absorb_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
      *events += work.events;
    }

    auto& store = stores_[static_cast<std::size_t>(dst)];
    const mpiv::ftapi::Determinant d = make_det(
        static_cast<std::uint32_t>(dst), ++seq_[static_cast<std::size_t>(dst)],
        static_cast<std::uint32_t>(src), store.known(static_cast<std::uint32_t>(src)));
    store.add(d);
    strategies_[static_cast<std::size_t>(dst)]->on_local_event(d);

    if (++k_ % static_cast<std::uint64_t>(n_) == 0) {
      for (std::size_t c = 0; c < seq_.size(); ++c) {
        stable_[c] = seq_[c] > lag_ ? seq_[c] - lag_ : 0;
      }
      for (int r = 0; r < n_; ++r) {
        stores_[static_cast<std::size_t>(r)].set_stable(stable_);
        strategies_[static_cast<std::size_t>(r)]->on_stable(stable_);
      }
    }
  }

 private:
  int n_;
  int fan_;
  std::uint64_t lag_;
  std::uint64_t k_ = 0;
  mpiv::net::CostModel cost_;
  std::vector<mpiv::causal::EventStore> stores_;
  std::vector<std::unique_ptr<mpiv::causal::Strategy>> strategies_;
  std::vector<std::uint64_t> seq_;
  std::vector<int> sends_;
  std::vector<std::uint64_t> stable_;
};

struct StrategyCost {
  double build_ns = 0;   // per piggybacked determinant
  double absorb_ns = 0;  // per absorbed determinant
  double per_msg = 0;    // determinants per piggyback the kernel achieved
};

/// Piggyback build and absorb cost per determinant in the CausalRing
/// steady state, with the fan chosen so a piggyback carries about
/// `per_msg` determinants, as the workload's do on average.
StrategyCost kernel_strategy(const std::string& strategy, int nranks,
                             std::size_t held, double per_msg) {
  const int fan = std::clamp(
      static_cast<int>(std::lround(per_msg / nranks)), 1, nranks - 1);
  CausalRing ring(strategy, nranks, held, fan);
  std::vector<double> build, absorb, size;
  for (int rep = 0; rep < 3; ++rep) {
    double b = 0, a = 0;
    std::uint64_t events = 0, msgs = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      for (int i = 0; i < 64; ++i) ring.step(&b, &a, &events);
      msgs += 64;
    } while (seconds_since(t0) < kKernelRepSeconds);
    const double n = static_cast<double>(std::max<std::uint64_t>(events, 1));
    build.push_back(b / n);
    absorb.push_back(a / n);
    size.push_back(static_cast<double>(events) / static_cast<double>(msgs));
  }
  return {median(build), median(absorb), median(size)};
}

/// EventStore at `nranks` creators holding about `held` determinants:
/// ns per add + known + find, pruning as the Event Logger would.
double kernel_store(int nranks, std::size_t held) {
  mpiv::causal::EventStore store(nranks);
  const std::uint64_t lag =
      std::max<std::uint64_t>(1, held / static_cast<std::size_t>(nranks));
  std::vector<std::uint64_t> stable(static_cast<std::size_t>(nranks), 0);
  std::uint64_t round = 0;
  return ns_per_op([&] {
    ++round;
    for (int c = 0; c < nranks; ++c) {
      const auto cr = static_cast<std::uint32_t>(c);
      store.add(make_det(cr, round, (cr + 1) % static_cast<std::uint32_t>(nranks),
                         round - 1));
      g_sink += store.known(cr);
      const mpiv::ftapi::Determinant* d = store.find(cr, round);
      g_sink += d ? d->ssn : 0;
    }
    if (round > lag) {
      for (auto& s : stable) s = round - lag;
      store.set_stable(stable);
    }
    return static_cast<std::uint64_t>(nranks);
  });
}

/// AntecedenceGraph of about `held` vertices over `nranks` creators: ns per
/// vertex visit of a full backward traversal (the recovery-path query and
/// the cost the graph strategies' incremental walks amortise).
double kernel_graph(int nranks, std::size_t held) {
  mpiv::causal::AntecedenceGraph graph(nranks);
  const std::uint64_t depth =
      std::max<std::uint64_t>(1, held / static_cast<std::size_t>(nranks));
  for (std::uint64_t s = 1; s <= depth; ++s) {
    for (int c = 0; c < nranks; ++c) {
      const auto cr = static_cast<std::uint32_t>(c);
      graph.add(make_det(cr, s, (cr + 1) % static_cast<std::uint32_t>(nranks),
                         s > 1 ? s - 1 : 0));
    }
  }
  std::vector<std::uint64_t> known;
  std::uint32_t peer = 0;
  return ns_per_op([&] {
    peer = (peer + 1) % static_cast<std::uint32_t>(nranks);
    const std::uint64_t visits = graph.known_from(peer, depth, known);
    g_sink += known[0];
    return std::max<std::uint64_t>(visits, 1);
  });
}

/// SenderLog at `nranks` destinations with 4 KiB payloads: ns per logged
/// send, including the amortised garbage collection of peer checkpoints.
double kernel_sender_log(int nranks) {
  mpiv::causal::SenderLog slog(nranks);
  const mpiv::net::Payload payload{4096, 0x5eed};
  std::uint64_t ssn = 0;
  return ns_per_op([&] {
    ++ssn;
    for (int dst = 0; dst < nranks; ++dst) slog.log(dst, ssn, 1, payload);
    if (ssn % 64 == 0) {
      for (int dst = 0; dst < nranks; ++dst) slog.gc(dst, ssn - 32);
    }
    g_sink += slog.bytes();
    return static_cast<std::uint64_t>(nranks);
  });
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 10;
  std::string trace_path;  // non-empty: traced run
  bool bless = false;
  bool list = false;
};

std::string key_of(const Options& o) {
  return o.workload + "/" + std::to_string(o.seed);
}

int measure(const Workload& w, const Options& o) {
  const std::vector<sc::ScenarioSpec> specs = load_specs(w, o.seed);
  // The first pass fills the allocator and the caches; it is checked like
  // the others but not timed. The peak resident set is read right after
  // it: later passes and set-up repetitions only add allocator
  // fragmentation, which would tie the figure to how many fit in --seconds.
  const Clock::time_point tm = Clock::now();
  std::vector<Pass> passes;
  passes.push_back(run_pass(specs, nullptr, false));
  const double rss_mb = peak_rss_mb();
  std::vector<double> walls, setups;
  while (walls.size() < kMinPasses ||
         seconds_since(tm) + median(walls) <= o.seconds) {
    const Clock::time_point ts = Clock::now();
    for (std::size_t rep = 0;
         rep < kMinSetupReps || seconds_since(ts) < kSetupSecondsPerPass; ++rep) {
      setups.push_back(time_setup(w, o.seed));
    }
    passes.push_back(run_pass(specs, nullptr, false));
    walls.push_back(passes.back().wall_s);
    std::fprintf(stderr, "bench_e2e: %s pass %zu: %.3f s\n", w.name,
                 walls.size(), walls.back());
  }

  std::vector<double> eps, sps;
  std::vector<const Pass*> views = {&passes.front()};
  for (std::size_t i = 1; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    eps.push_back(static_cast<double>(p.events) / p.wall_s);
    sps.push_back(p.sim_s / p.wall_s);
    views.push_back(&p);
  }
  // Each point's time is its median over the timed passes, so a hiccup in
  // one pass cannot make a point the slowest.
  std::vector<double> point_ms;
  for (std::size_t k = 0; k < passes.front().point_ms.size(); ++k) {
    std::vector<double> t;
    for (std::size_t i = 1; i < passes.size(); ++i) t.push_back(passes[i].point_ms[k]);
    point_ms.push_back(median(t));
  }
  const Verdict v = verify(views, key_of(o), o.seed, o.bless);
  const std::vector<Metric> ms = {
      summary("wall_s", "s", walls),
      summary("events_per_s", "1/s", eps),
      summary("sim_s_per_host_s", "sim_s/s", sps),
      summary("point_ms_p50", "ms", point_ms),
      single("point_ms_max", "ms",
             *std::max_element(point_ms.begin(), point_ms.end())),
      single("peak_rss_mb", "MB", rss_mb),
      summary("setup_s", "s", setups),
  };
  std::printf("bench_e2e workload=%s seed=%llu passes=%zu (+1 warm-up) points=%zu\n",
              w.name, static_cast<unsigned long long>(o.seed), walls.size(),
              passes.front().point_ms.size());
  print_metrics(ms);
  print_verdict(v);
  print_result_line(v, ms);
  return v.failed == 0 ? 0 : 1;
}

/// Runs one point's measured cluster execution through the public calls
/// run_point makes internally, with a span around each; returns the id of
/// the enclosing span.
int measured_pass(Tracer& tracer, const sc::RunPoint& pt, int point) {
  if (pt.spec.faults.midrun_rank >= 0) {
    throw std::runtime_error("--trace cannot decompose midrun-fault points");
  }
  Scope measured(&tracer, "runtime.measured_pass", -1, point);
  sc::WorkloadInstance wl;
  std::unique_ptr<mpiv::runtime::Cluster> cluster;
  {
    Scope s(&tracer, "workloads.make", measured.id(), point);
    wl = sc::workload_registry().at(pt.spec.workload.name).make(pt.spec);
  }
  {
    Scope s(&tracer, "runtime.build", measured.id(), point);
    cluster = std::make_unique<mpiv::runtime::Cluster>(sc::lower(pt.spec));
  }
  {
    Scope s(&tracer, "runtime.run", measured.id(), point);
    g_sink += cluster->run(wl.app).completion_time;
  }
  {
    Scope s(&tracer, "runtime.teardown", measured.id(), point);
    if (mpiv::trace::TraceSink* sink = cluster->trace_sink()) {
      g_sink += sink->dump().size();
    }
    cluster.reset();
  }
  return measured.id();
}

int trace(const Workload& w, const Options& o) {
  // An untraced warm-up pass first (it also sizes the counts pass below);
  // the untraced pass right after the traced one is the baseline for the
  // tracing overhead and for the observability differential.
  std::vector<sc::ScenarioSpec> specs = load_specs(w, o.seed);
  const Pass warmup = run_pass(specs, nullptr, false);

  Tracer tracer;
  {
    Scope s(&tracer, "scenario.parse");
    specs = load_specs(w, o.seed);
  }
  // Right after each run_point, the point's measured cluster run again
  // through the calls run_point makes internally, so make / build / run /
  // teardown get their own spans. What run_point took beyond that is its
  // reference pass when it has one; otherwise it is what the decomposition
  // leaves unexplained (run-to-run noise, a warmer second execution).
  std::vector<int> measured_span;
  const Pass traced = run_pass(
      specs, &tracer, false, {},
      [&tracer, &measured_span](const sc::RunPoint& pt, std::size_t index) {
        measured_span.push_back(
            pt.skipped ? -1 : measured_pass(tracer, pt, static_cast<int>(index)));
      });
  double reference_ms = 0, unattributed_ms = 0;
  for (std::size_t i = 0; i < traced.points.size(); ++i) {
    if (measured_span[i] < 0) continue;
    const double beyond = (tracer.at(traced.run_point_span[i]).dur_us -
                           tracer.at(measured_span[i]).dur_us) / 1e3;
    (traced.has_reference[i] ? reference_ms : unattributed_ms) += beyond;
  }
  const Pass plain = run_pass(specs, nullptr, false);

  // Observability differential: the same points with trace lanes and
  // metrics off. Both are schedule-neutral, so the digest must not move.
  bool observed = false;
  for (const sc::ScenarioSpec& spec : specs) {
    observed = observed || spec.trace.enabled || spec.metrics.enabled;
  }
  std::vector<Pass> checked;
  double obs_ms = 0;
  if (observed) {
    checked.push_back(run_pass(specs, nullptr, false,
                               [](sc::ScenarioSpec& s, std::size_t) {
                                 s.trace.enabled = false;
                                 s.metrics.enabled = false;
                               }));
    obs_ms = (plain.run_points_s - checked.back().run_points_s) * 1e3;
  }

  // Modelled counts: metrics on everywhere (schedule-neutral), with the
  // sampling interval stretched so the series ring covers the whole run.
  const std::vector<mpiv::sim::Time>& sim_end = warmup.sim_end;
  const Pass counted = run_pass(
      specs, nullptr, true, [&sim_end](sc::ScenarioSpec& s, std::size_t i) {
        if (s.metrics.enabled) return;
        s.metrics.enabled = true;
        const mpiv::sim::Time end = sim_end[i] > 0 ? sim_end[i] : s.max_sim_time;
        s.metrics.sample_interval =
            std::max(s.metrics.sample_interval, end / 3000 + 1);
      });
  const Counts counts = collect_counts(counted);

  // Layer kernels at the workload's shape.
  const int nranks = std::max(2, counts.max_nranks);
  const auto at_least = [](double v, double floor) {
    return static_cast<std::size_t>(std::max(v, floor));
  };
  const std::size_t heap = at_least(counts.v.at("sim.heap_peak"), 1);
  const std::size_t held = at_least(counts.v.at("causal.pb_set_mean"), nranks);
  std::map<std::string, double> kernel;
  kernel["sim.queue_ns"] = kernel_queue(heap);
  kernel["sim.resume_ns"] = kernel_resume(nranks);
  kernel["sim.callback_ns"] = kernel_callbacks(heap);
  for (const auto& entry : sc::strategies().entries()) {
    const std::string s = entry.second.display;
    StrategyCost cost;
    if (counts.held_by_strategy.count(s)) {
      const double per_msg = counts.pb_events_by_strategy.at(s) /
                             std::max(1.0, counts.app_msgs_by_strategy.at(s));
      cost = kernel_strategy(entry.first, nranks,
                             at_least(counts.held_by_strategy.at(s), nranks),
                             per_msg);
      std::printf("kernel shape %-8s nranks %d, held %.0f, piggyback %.1f "
                  "(workload %.1f) determinants\n",
                  entry.first.c_str(), nranks, counts.held_by_strategy.at(s),
                  cost.per_msg, per_msg);
    }
    kernel["causal.build_ns." + entry.first] = cost.build_ns;
    kernel["causal.absorb_ns." + entry.first] = cost.absorb_ns;
  }
  const bool causal = !counts.held_by_strategy.empty();
  kernel["causal.store_ns"] = causal ? kernel_store(nranks, held) : 0;
  kernel["causal.graph_visit_ns"] = causal ? kernel_graph(nranks, held) : 0;
  kernel["causal.sender_log_ns"] = causal ? kernel_sender_log(nranks) : 0;

  // Spans: the traced pass is parse + expand + every run_point + report;
  // coverage is the share of it inside those top-level spans.
  const double pass_ms = tracer.total_ms("scenario.parse") + traced.wall_s * 1e3;
  std::map<std::string, double> span;
  for (const char* name :
       {"scenario.parse", "scenario.expand", "workloads.make", "runtime.build",
        "runtime.run", "runtime.teardown", "scenario.report"}) {
    span[std::string(name) + "_ms"] = tracer.total_ms(name);
  }
  span["scenario.reference_ms"] = reference_ms;
  span["obs.trace_metrics_ms"] = obs_ms;
  span["bench.unattributed_ms"] = unattributed_ms;
  span["bench.span_coverage_pct"] =
      100.0 *
      (span.at("scenario.parse_ms") + span.at("scenario.expand_ms") +
       tracer.total_ms("scenario.run_point") + span.at("scenario.report_ms")) /
      pass_ms;
  span["bench.trace_overhead_ms"] = (traced.wall_s - plain.wall_s) * 1e3;

  std::vector<Metric> ms;
  for (const auto& [name, v] : span) {
    ms.push_back(single(name, name.ends_with("_pct") ? "%" : "ms", v));
  }
  for (const auto& [name, v] : kernel) ms.push_back(single(name, "ns", v));
  static const std::map<std::string, std::string> kCountUnits = {
      {"causal.pb_cpu_s", "sim_s"},      {"causal.pb_pct", "%"},
      {"causal.pb_empty_share", "ratio"}, {"ckpt.sender_log_peak_mb", "MB"},
      {"elog.ack_p99_us", "sim_us"},     {"fault.collect_ms_p50", "sim_ms"},
      {"fault.daemon_down_ms", "sim_ms"}, {"fault.replay_ms_p50", "sim_ms"},
      {"net.wire_mb", "MB"}};
  for (const auto& [name, v] : counts.v) {
    const auto unit = kCountUnits.find(name);
    ms.push_back(single(name, unit == kCountUnits.end() ? "count" : unit->second, v));
  }

  std::printf("bench_e2e --trace workload=%s seed=%llu points=%zu "
              "traced pass %.1f ms\n",
              w.name, static_cast<unsigned long long>(o.seed),
              traced.point_ms.size(), pass_ms);
  print_metrics(ms);

  // Computed attribution of runtime.run: kernel cost per op times the
  // traced counts. These are estimates, not measurements.
  const double run_ms = span.at("runtime.run_ms");
  std::map<std::string, double> attr;
  attr["sim.queue"] = counts.v.at("sim.events") * kernel.at("sim.queue_ns") / 1e6;
  for (const auto& entry : sc::strategies().entries()) {
    const auto it = counts.pb_events_by_strategy.find(entry.second.display);
    if (it == counts.pb_events_by_strategy.end()) continue;
    attr["causal.build"] +=
        it->second * kernel.at("causal.build_ns." + entry.first) / 1e6;
    attr["causal.absorb"] +=
        it->second * kernel.at("causal.absorb_ns." + entry.first) / 1e6;
  }
  if (causal) {
    attr["causal.sender_log"] =
        counts.causal_app_msgs * kernel.at("causal.sender_log_ns") / 1e6;
  }
  std::printf("computed attribution of runtime.run_ms = %.1f ms "
              "(count x ns/op, not measured):\n", run_ms);
  double computed = 0;
  for (const auto& [name, a] : attr) {
    std::printf("  %-22s %10.1f ms  %5.1f%%\n", name.c_str(), a,
                run_ms > 0 ? 100.0 * a / run_ms : 0.0);
    computed += a;
  }
  std::printf("  %-22s %10.1f ms  %5.1f%%\n", "(not attributed)", run_ms - computed,
              run_ms > 0 ? 100.0 * (run_ms - computed) / run_ms : 0.0);

  checked.push_back(counted);
  std::vector<const Pass*> views = {&warmup, &traced, &plain};
  for (const Pass& p : checked) views.push_back(&p);
  const Verdict v = verify(views, key_of(o), o.seed, false);
  print_verdict(v);
  if (!tracer.write(o.trace_path, w.name, o.seed)) {
    throw std::runtime_error("cannot write spans to " + o.trace_path);
  }
  std::printf("spans written to %s (sink %llx)\n", o.trace_path.c_str(),
              static_cast<unsigned long long>(g_sink));
  print_result_line(v, ms);
  return v.failed == 0 ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload W --seed S [--seconds T] "
               "[--trace SPANS.json] [--bless]\n"
               "       bench_e2e --list\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--list") {
        o.list = true;
      } else if (a == "--bless") {
        o.bless = true;
      } else if (a == "--workload" && has_value) {
        o.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        o.seed = std::stoull(argv[++i]);
        o.seed_set = true;
      } else if (a == "--seconds" && has_value) {
        o.seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has_value) {
        o.trace_path = argv[++i];
      } else {
        return usage(("unknown or incomplete argument '" + a + "'").c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for '" + a + "'").c_str());
    }
  }
  if (o.list) {
    list_workloads();
    return 0;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : workloads()) {
    if (o.workload == cand.name) w = &cand;
  }
  if (w == nullptr) return usage(("unknown workload '" + o.workload + "'").c_str());
  if (!o.seed_set) return usage("--seed is required");
  if (o.bless && (o.seed < 1 || o.seed > kPinnedSeeds || !o.trace_path.empty())) {
    return usage("--bless pins seeds 1-3 of a measuring run only");
  }
  try {
    return o.trace_path.empty() ? measure(*w, o) : trace(*w, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
