#include "scenario/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "scenario/parallel.hpp"
#include "scenario/registry.hpp"
#include "util/json.hpp"

namespace mpiv::scenario {

namespace {

/// One cluster execution of a resolved, validated spec.
struct ClusterRun {
  runtime::ClusterReport report;
  std::uint64_t events_executed = 0;
  std::uint64_t wire_bytes = 0;
  std::vector<std::uint64_t> checksums;
  workloads::PingPongResult pingpong;
  double flops = 0;
  std::string protocol_label;
  std::string trace_dump;
};

ClusterRun run_cluster(const ScenarioSpec& spec) {
  const WorkloadEntry& entry = workload_registry().at(spec.workload.name);
  WorkloadInstance wl = entry.make(spec);
  ClusterRun out;
  runtime::Cluster cluster(lower(spec));
  out.protocol_label = cluster.protocol_label();
  out.report = cluster.run(wl.app);
  out.events_executed = cluster.engine().events_executed();
  out.wire_bytes = cluster.network().bytes_sent();
  if (wl.checksums) out.checksums = wl.checksums->checksums;
  if (wl.pingpong) out.pingpong = *wl.pingpong;
  out.flops = wl.flops;
  if (trace::TraceSink* sink = cluster.trace_sink()) {
    out.trace_dump = sink->dump();
  }
  return out;
}

/// Point labels double as trace file stems; anything outside the portable
/// filename alphabet collapses to '_'.
std::string sanitize_label(const std::string& label) {
  std::string s = label;
  for (char& ch : s) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '.' || ch == '-' ||
                    ch == '_';
    if (!ok) ch = '_';
  }
  return s;
}

/// Writes one trace stream under `dir`, returning the path ("" on failure —
/// a broken report path must not abort a finished run).
std::string write_trace_file(const std::string& dir, const std::string& stem,
                             const std::string& dump) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + stem + ".trace";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return "";
  f << dump;
  return f.good() ? path : "";
}

/// Same contract for the metrics time-series CSV.
std::string write_metrics_csv(const std::string& dir, const std::string& stem,
                              const std::string& csv) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + stem + ".csv";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return "";
  f << csv;
  return f.good() ? path : "";
}

}  // namespace

std::uint64_t RunResult::checksum_digest() const {
  std::uint64_t d = 0;
  for (const std::uint64_t c : checksums) d = workloads::word(d, c, 0x5eedULL);
  return d;
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kFailed: return "failed";
    case Outcome::kSkipped: return "skipped";
    case Outcome::kAbandoned: return "abandoned";
    case Outcome::kCompletedShrunk: return "completed_shrunk";
    case Outcome::kCompleted: return "completed";
    case Outcome::kRecoveredExact: return "recovered_exact";
  }
  return "?";
}

OutcomeCounts RunSet::tally() const {
  OutcomeCounts t;
  for (const RunResult& r : runs) {
    switch (r.outcome()) {
      case Outcome::kFailed: ++t.failed; break;
      case Outcome::kSkipped: ++t.skipped; break;
      case Outcome::kAbandoned: ++t.abandoned; break;
      case Outcome::kCompletedShrunk: ++t.completed_shrunk; break;
      case Outcome::kCompleted: ++t.completed; break;
      case Outcome::kRecoveredExact: ++t.recovered_exact; break;
    }
  }
  return t;
}

void apply_quick(ScenarioSpec& spec) {
  for (const auto& [key, value] : spec.quick) {
    auto axis = spec.sweep.begin();
    while (axis != spec.sweep.end() && axis->first != key) ++axis;
    if (axis != spec.sweep.end()) {
      axis->second = split_list(value);
      if (axis->second.empty()) {
        throw SpecError("scenario '" + spec.name + "': quick override for '" +
                        key + "' empties the sweep axis");
      }
    } else {
      strip_fault_key(spec, key);  // injection keys override, not append
      apply_key(spec, key, value);
    }
  }
  spec.quick.clear();
}

std::vector<RunPoint> expand(const ScenarioSpec& spec) {
  ScenarioSpec base = spec;
  const auto axes = base.sweep;
  base.sweep.clear();
  base.quick.clear();

  std::vector<RunPoint> points;
  // Odometer over the cartesian product, first axis slowest.
  std::vector<std::size_t> idx(axes.size(), 0);
  while (true) {
    RunPoint p;
    p.spec = base;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const std::string& value = axes[a].second[idx[a]];
      // A swept injection key replaces the base [faults] line of its kind —
      // the same override semantics every scalar axis has.
      strip_fault_key(p.spec, axes[a].first);
      apply_key(p.spec, axes[a].first, value);
      p.axes.emplace_back(axes[a].first, value);
    }
    try {
      validate(p.spec);
    } catch (const SpecError& e) {
      // An infeasible corner of a cross-product sweep (say, el_shards = 8
      // crossed with nranks = 4) is a skipped point like a workload/rank
      // mismatch — only a sweepless spec escalates to an error.
      if (axes.empty()) throw;
      p.skipped = true;
      p.skip_reason = e.what();
    }
    if (p.axes.empty()) {
      p.label = p.spec.name;
    } else {
      for (const auto& [axis, value] : p.axes) {
        if (!p.label.empty()) p.label += ", ";
        p.label += axis == "variant" ? p.spec.variant.label
                                     : axis + "=" + value;
      }
    }
    if (!p.skipped) {
      std::string why;
      const WorkloadEntry& wl = workload_registry().at(p.spec.workload.name);
      if (!wl.valid(p.spec, &why)) {
        p.skipped = true;
        p.skip_reason = why;
      }
    }
    points.push_back(std::move(p));

    std::size_t a = axes.size();
    while (a > 0) {
      --a;
      if (++idx[a] < axes[a].second.size()) break;
      idx[a] = 0;
      if (a == 0) return points;
    }
    if (axes.empty()) return points;
  }
}

runtime::ClusterConfig lower(const ScenarioSpec& spec) {
  runtime::ClusterConfig cfg;
  cfg.nranks = spec.nranks;
  cfg.protocol = spec.variant.protocol;
  cfg.strategy = spec.variant.strategy;
  cfg.event_logger = spec.variant.event_logger;
  cfg.el_shards = spec.el_shards;
  cfg.el_standby = spec.el_standby;
  cfg.cost = spec.cost;
  cfg.seed = spec.seed;
  cfg.ckpt_policy = spec.ckpt_policy;
  cfg.ckpt_interval = spec.ckpt_interval;
  cfg.campaign = spec.faults.campaign;
  cfg.detection_delay = spec.detection_delay;
  cfg.replica_sync_interval = spec.replica_sync_interval;
  cfg.ulfm_repair_cost = spec.ulfm_repair_cost;
  cfg.payload_at_sender = spec.payload_at_sender;
  cfg.trace = spec.trace;
  cfg.metrics = spec.metrics;
  cfg.max_sim_time = spec.max_sim_time;
  return cfg;
}

RunResult run_point(const RunPoint& point) {
  RunResult r;
  r.label = point.label;
  r.axes = point.axes;
  r.skipped = point.skipped;
  r.skip_reason = point.skip_reason;
  if (r.skipped) return r;

  // The single place a cluster execution's fields land in the result —
  // both the measured pass and the reference-doubles-as-measurement
  // shortcut go through it.
  const auto adopt = [&r](const ClusterRun& run) {
    r.completed = run.report.completed;
    r.protocol_label = run.protocol_label;
    r.report = run.report;
    r.events_executed = run.events_executed;
    r.wire_bytes = run.wire_bytes;
    r.checksums = run.checksums;
    r.pingpong = run.pingpong;
    r.flops = run.flops;
    r.trace_dump = run.trace_dump;
  };

  // Trace streams leave the process only when the spec names a directory;
  // both return paths below funnel through this.
  const auto persist_traces = [&r, &point] {
    if (point.spec.trace_dir.empty()) return;
    const std::string stem = sanitize_label(r.label);
    if (!r.trace_dump.empty()) {
      r.trace_path = write_trace_file(point.spec.trace_dir, stem, r.trace_dump);
    }
    if (!r.reference_trace_dump.empty()) {
      r.reference_trace_path = write_trace_file(
          point.spec.trace_dir, stem + ".reference", r.reference_trace_dump);
    }
  };

  // The measured run's metrics time series leaves the process only when
  // the spec names metrics.dir (the summary always travels in the JSON).
  const auto persist_metrics = [&r, &point] {
    if (point.spec.metrics_dir.empty() || !r.report.metrics.enabled ||
        r.report.metrics.series_rows() == 0) {
      return;
    }
    r.metrics_csv_path =
        write_metrics_csv(point.spec.metrics_dir, sanitize_label(r.label),
                          r.report.metrics.series_csv());
  };

  ScenarioSpec spec = point.spec;
  if (spec.faults.midrun_rank >= 0 || spec.compare_reference) {
    // The paper's "middle of correct execution" protocol: a rank-fault-free
    // reference pass sizes the crash time for the measured pass. The
    // reference strips every rank crash (timed, stochastic, midrun) but
    // keeps the campaign's *environment* faults — EL crashes, daemon
    // crashes, server outages, link perturbations, partitions — so both
    // passes see identical timing up to the measured crash and
    // `recovered_exact` isolates recovery correctness, not incidental
    // wildcard reorderings. `compare_reference` runs the same reference
    // without scheduling a midrun crash, so a chaos campaign's outcome can
    // be classified as recovered_exact too.
    ScenarioSpec ref = spec;
    ref.compare_reference = false;
    ref.faults.midrun_rank = -1;
    auto& inj = ref.faults.campaign.injections;
    inj.erase(std::remove_if(inj.begin(), inj.end(),
                             [](const fault::Injection& i) {
                               return i.target == fault::Target::kRank;
                             }),
              inj.end());
    // When the point carries no rank crashes at all (a compare_reference
    // sweep corner like rank_rate = 0), the reference IS the measured run
    // — the simulator is deterministic, so don't pay for it twice.
    const bool ref_is_measured =
        spec.faults.midrun_rank < 0 &&
        inj.size() == spec.faults.campaign.injections.size();
    const ClusterRun ref_run = run_cluster(ref);
    r.has_reference = true;
    r.reference_time = ref_run.report.completion_time;
    r.reference_checksums = ref_run.checksums;
    r.reference_trace_dump = ref_run.trace_dump;
    if (!ref_run.report.completed || ref_is_measured) {
      // Either the reference never finished (nothing to measure against)
      // or it doubles as the measurement itself.
      adopt(ref_run);
      r.recovered_exact = ref_is_measured && r.completed && !r.checksums.empty();
      persist_traces();
      persist_metrics();
      return r;
    }
    if (spec.faults.midrun_rank >= 0) {
      // At the front, so it fires before any other crash at the same time.
      auto& measured = spec.faults.campaign.injections;
      measured.insert(
          measured.begin(),
          fault::rank_crash_at(
              static_cast<sim::Time>(static_cast<double>(r.reference_time) *
                                     spec.faults.midrun_frac),
              spec.faults.midrun_rank));
      spec.faults.midrun_rank = -1;
    }
  }

  const ClusterRun run = run_cluster(spec);
  adopt(run);
  if (r.has_reference) {
    r.recovered_exact = !r.checksums.empty() &&
                        r.checksums == r.reference_checksums;
  }
  persist_traces();
  persist_metrics();
  return r;
}

RunResult run_spec(const ScenarioSpec& spec) {
  if (!spec.sweep.empty()) {
    throw SpecError("scenario '" + spec.name +
                    "': run_spec expects no sweep axes — use run()");
  }
  validate(spec);
  std::vector<RunPoint> points = expand(spec);
  if (points.front().skipped) {
    throw SpecError("scenario '" + spec.name + "': " +
                    points.front().skip_reason);
  }
  return run_point(points.front());
}

RunSet run(const ScenarioSpec& spec, const RunOptions& options) {
  ScenarioSpec resolved = spec;
  if (options.quick) {
    apply_quick(resolved);
  } else {
    resolved.quick.clear();
  }
  RunSet set;
  set.scenario = resolved.name;
  set.origin = "<builder>";
  set.quick = options.quick;
  const std::vector<RunPoint> points = expand(resolved);
  if (options.jobs > 1 && points.size() > 1) {
    // Fan the grid across forked workers; results come back in sweep order
    // carrying prerendered JSON stanzas, so the report is byte-identical
    // to the serial loop below.
    set.runs = detail::run_points_parallel(points, options.jobs, options);
    return set;
  }
  for (const RunPoint& p : points) {
    RunResult r = run_point(p);
    if (options.on_result) options.on_result(p, r);
    set.runs.push_back(std::move(r));
  }
  return set;
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

namespace {

using util::Json;

Json run_value(const RunResult& r) {
  Json axes = Json::object();
  for (const auto& [axis, value] : r.axes) axes.add(axis, value);
  Json run = Json::object(/*block=*/true);
  run.add("label", r.label)
      .add("axes", std::move(axes))
      .add("skipped", r.skipped)
      .add("outcome", outcome_name(r.outcome()));
  if (r.failed) {
    // Worker-crash containment: the point ran in a worker that died before
    // delivering a result. Everything known about it is why it failed.
    run.add("failed", true).add("fail_reason", r.fail_reason);
    return run;
  }
  if (r.skipped) {
    run.add("skip_reason", r.skip_reason);
    return run;
  }
  const ftapi::RankStats t = r.report.totals();
  char checksum[24];
  std::snprintf(checksum, sizeof checksum, "0x%016llx",
                static_cast<unsigned long long>(r.checksum_digest()));
  run.add("protocol", r.protocol_label)
      .add("completed", r.completed)
      .add("sim_time_s", r.sim_seconds())
      .add("faults_injected", r.report.faults_injected)
      .add("app_msgs", t.app_msgs_sent)
      .add("app_bytes", t.app_bytes_sent)
      .add("pb_events", t.pb_events_sent)
      .add("pb_bytes", t.pb_bytes_sent)
      .add("pb_pct", r.report.piggyback_pct())
      .add("pb_peak_msg_bytes", t.pb_peak_msg_bytes)
      .add("pb_peak_msg_events", t.pb_peak_msg_events)
      .add("pb_peak_post_el_fault_bytes", t.pb_peak_post_el_fault_bytes)
      .add("pb_peak_post_el_fault_events", t.pb_peak_post_el_fault_events)
      .add("pb_send_cpu_s", sim::to_sec(t.pb_send_cpu))
      .add("pb_recv_cpu_s", sim::to_sec(t.pb_recv_cpu))
      .add("sender_log_peak_bytes", t.sender_log_peak_bytes)
      .add("events_executed", r.events_executed)
      .add("wire_bytes", r.wire_bytes)
      .add("checksum", checksum);
  if (r.flops > 0) run.add("mops", r.mops());
  Json el = Json::object()
                .add("events_stored", r.report.el_stats.events_stored)
                .add("acks_sent", r.report.el_stats.acks_sent)
                .add("peak_queue", r.report.el_stats.peak_queue)
                .add("mean_ack_us", t.el_ack_latency_us.mean());
  if (r.report.metrics.enabled) {
    // Tail percentiles ride along only when metrics are on, keeping the
    // metrics-off report shape byte-identical to the pre-metrics goldens.
    el.add("p50_ack_us", t.el_ack_latency_us.p50())
        .add("p99_ack_us", t.el_ack_latency_us.p99());
  }
  run.add("el", std::move(el));
  run.add("recovery",
          Json::object()
              .add("events", t.recovery_events)
              .add("collect_ms", sim::to_ms(t.recovery_collect_time))
              .add("total_ms", sim::to_ms(t.recovery_total_time)));
  const fault::FaultCounts& fc = r.report.fault_counts;
  run.add("faults", Json::object()
                        .add("rank_crashes", fc.rank_crashes)
                        .add("daemon_crashes", fc.daemon_crashes)
                        .add("el_crashes", fc.el_crashes)
                        .add("el_outages", fc.el_outages)
                        .add("el_failovers", fc.el_failovers)
                        .add("ckpt_outages", fc.ckpt_outages)
                        .add("link_faults", fc.link_faults)
                        .add("partitions", fc.partitions)
                        .add("el_suspects", fc.el_suspects)
                        .add("el_reconciles", fc.el_reconciles)
                        .add("first_el_fault_s",
                             sim::to_sec(r.report.first_el_fault)));
  // One timeline entry per recovery: the per-phase breakdown Fig. 10's
  // scalar hides. Interrupted recoveries (crash mid-recovery) report
  // complete = false with the phases that did finish.
  Json recoveries = Json::array();
  for (const fault::RecoveryRecord& rec : r.report.recoveries) {
    Json o = Json::object()
                 .add("rank", rec.rank)
                 .add("coordinated", rec.coordinated)
                 .add("complete", rec.complete())
                 .add("fault_s", sim::to_sec(rec.fault_at))
                 .add("events", rec.replay_events);
    if (rec.restart_at != 0) o.add("detect_ms", sim::to_ms(rec.detect_ns()));
    if (rec.image_at != 0) o.add("image_ms", sim::to_ms(rec.image_ns()));
    if (rec.collect_at != 0) o.add("collect_ms", sim::to_ms(rec.collect_ns()));
    if (rec.complete()) {
      o.add("replay_ms", sim::to_ms(rec.replay_ns()))
          .add("total_ms", sim::to_ms(rec.total_ns()));
    }
    recoveries.push(std::move(o));
  }
  run.add("recoveries", std::move(recoveries));
  if (!r.report.daemon_outages.empty()) {
    // The daemon failure domain: the app survived each of these, stalled,
    // while the dispatcher respawned the daemon. An incomplete record means
    // a rank crash superseded the respawn.
    Json outages = Json::array();
    for (const fault::DaemonOutageRecord& rec : r.report.daemon_outages) {
      Json o = Json::object()
                   .add("rank", rec.rank)
                   .add("complete", rec.complete())
                   .add("interrupted", rec.interrupted)
                   .add("fault_s", sim::to_sec(rec.fault_at));
      if (rec.complete()) {
        o.add("down_ms", sim::to_ms(rec.down_ns()))
            .add("held_frames", rec.held_frames);
      }
      outages.push(std::move(o));
    }
    run.add("daemon_outages", std::move(outages));
  }
  if (!r.report.repairs.empty()) {
    // ULFM repairs: fault -> revoke broadcast -> agreement/rebuild ->
    // survivors relaunched shrunk. An incomplete record means the run hit
    // max_sim_time inside the repair window.
    Json repairs = Json::array();
    for (const fault::RepairRecord& rec : r.report.repairs) {
      Json o = Json::object()
                   .add("victim", rec.victim)
                   .add("survivors", rec.survivors)
                   .add("complete", rec.complete())
                   .add("fault_s", sim::to_sec(rec.fault_at));
      if (rec.revoke_at != 0) o.add("detect_ms", sim::to_ms(rec.detect_ns()));
      if (rec.complete()) {
        o.add("repair_ms", sim::to_ms(rec.repair_ns()))
            .add("total_ms", sim::to_ms(rec.total_ns()));
      }
      repairs.push(std::move(o));
    }
    run.add("repairs", std::move(repairs));
  }
  if (!r.report.promotions.empty()) {
    // Replica promotions: the shadow took over in place — no rollback, so
    // the only cost is the switchover window holding the victim's frames.
    Json promotions = Json::array();
    for (const fault::PromotionRecord& rec : r.report.promotions) {
      Json o = Json::object()
                   .add("rank", rec.rank)
                   .add("complete", rec.complete())
                   .add("fault_s", sim::to_sec(rec.fault_at));
      if (rec.complete()) {
        o.add("promote_ms", sim::to_ms(rec.promote_ns()))
            .add("held_frames", rec.held_frames);
      }
      promotions.push(std::move(o));
    }
    run.add("promotions", std::move(promotions));
  }
  if (t.replica_sync_msgs != 0 || t.replica_mirror_cpu != 0) {
    // The replication hybrid's steady-state price: the visible slice of the
    // 2x compute (mirror copies) plus the shadow-sync fabric traffic.
    run.add("replica", Json::object()
                           .add("sync_msgs", t.replica_sync_msgs)
                           .add("sync_bytes", t.replica_sync_bytes)
                           .add("mirror_cpu_s",
                                sim::to_sec(t.replica_mirror_cpu)));
  }
  if (t.ulfm_revokes_seen != 0 || t.ulfm_repairs != 0) {
    run.add("ulfm", Json::object()
                        .add("revokes_seen", t.ulfm_revokes_seen)
                        .add("repairs", t.ulfm_repairs));
  }
  if (!r.report.el_reconciles.empty()) {
    // Split-brain merges: a suspected failover behind a service cut left
    // two shards accepting submissions; the heal folded the stale log into
    // the successor's, dropping (creator, seq) duplicates.
    Json reconciles = Json::array();
    for (const fault::ElReconcileRecord& rec : r.report.el_reconciles) {
      Json o = Json::object()
                   .add("stale_shard", rec.stale_shard)
                   .add("successor", rec.successor)
                   .add("moved_ranks", rec.moved_ranks)
                   .add("complete", rec.complete())
                   .add("detect_ms", sim::to_ms(rec.detect_ns()));
      if (rec.complete()) {
        o.add("split_ms", sim::to_ms(rec.split_ns()))
            .add("merge_ms", sim::to_ms(rec.merge_ns()))
            .add("merged_records", rec.merged_records)
            .add("dup_dropped", rec.dup_dropped);
        if (rec.first_dup_rank >= 0) {
          o.add("first_dup_rank", rec.first_dup_rank)
              .add("first_dup_seq", rec.first_dup_seq);
        }
      }
      reconciles.push(std::move(o));
    }
    run.add("el_reconciles", std::move(reconciles));
  }
  // Per-rank split-brain counters, emitted only when a run actually
  // exercised the dual-log window so fault-free JSON keeps its shape.
  const auto& ranks = r.report.rank_stats;
  if (std::any_of(ranks.begin(), ranks.end(), [](const ftapi::RankStats& s) {
        return s.el_dup_submissions != 0 || s.el_reconciled_records != 0 ||
               s.stale_acks_fenced != 0;
      })) {
    Json rank_stats = Json::array();
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      const ftapi::RankStats& s = ranks[i];
      rank_stats.push(Json::object()
                          .add("rank", i)
                          .add("el_dup_submissions", s.el_dup_submissions)
                          .add("el_reconciled_records", s.el_reconciled_records)
                          .add("stale_acks_fenced", s.stale_acks_fenced));
    }
    run.add("rank_stats", std::move(rank_stats));
  }
  if (r.has_reference) {
    run.add("reference", Json::object()
                             .add("sim_time_s", sim::to_sec(r.reference_time))
                             .add("recovered_exact", r.recovered_exact));
  }
  if (!r.trace_dump.empty()) {
    // Header + lane lines start with '#'; everything else is one record.
    std::uint64_t records = 0;
    bool line_start = true;
    bool comment = false;
    for (const char ch : r.trace_dump) {
      if (line_start) comment = ch == '#';
      line_start = ch == '\n';
      if (line_start && !comment) ++records;
    }
    Json trace = Json::object().add("records", records);
    if (!r.trace_path.empty()) trace.add("path", r.trace_path);
    if (!r.reference_trace_path.empty()) {
      trace.add("reference_path", r.reference_trace_path);
    }
    run.add("trace", std::move(trace));
  }
  if (r.report.metrics.enabled) {
    const metrics::Snapshot& ms = r.report.metrics;
    Json counters = Json::object();
    for (const auto& [name, v] : ms.counters) counters.add(name, v);
    Json gauges = Json::object();
    for (const auto& [name, v] : ms.gauges) gauges.add(name, v);
    Json histograms = Json::object(/*block=*/true);
    for (const metrics::HistogramSummary& h : ms.histograms) {
      histograms.add(h.name, Json::object()
                                 .add("count", h.count)
                                 .add("mean", h.mean)
                                 .add("min", h.min)
                                 .add("max", h.max)
                                 .add("p50", h.p50)
                                 .add("p90", h.p90)
                                 .add("p99", h.p99));
    }
    Json columns = Json::array();
    for (const std::string& c : ms.series_columns) columns.push(c);
    Json series = Json::object()
                      .add("columns", std::move(columns))
                      .add("rows", ms.series_rows())
                      .add("dropped", ms.series_dropped);
    if (!r.metrics_csv_path.empty()) series.add("csv_path", r.metrics_csv_path);
    run.add("metrics", Json::object(/*block=*/true)
                           .add("sample_interval_ns", ms.sample_interval)
                           .add("counters", std::move(counters))
                           .add("gauges", std::move(gauges))
                           .add("histograms", std::move(histograms))
                           .add("series", std::move(series)));
  }
  if (!r.pingpong.points.empty()) {
    Json points = Json::array();
    for (const auto& p : r.pingpong.points) {
      points.push(Json::object()
                      .add("bytes", p.bytes)
                      .add("latency_us", p.latency_us)
                      .add("bandwidth_mbps", p.bandwidth_mbps));
    }
    run.add("points", std::move(points));
  }
  return run;
}

Json set_value(const RunSet& set) {
  const OutcomeCounts t = set.tally();
  // Each run renders on its own, so only one run's tree is alive at a time.
  Json runs = Json::array(/*block=*/true);
  for (const RunResult& r : set.runs) {
    runs.push(Json::raw(run_json_fragment(r)));
  }
  return Json::object(/*block=*/true)
      .add("scenario", set.scenario)
      .add("origin", set.origin)
      .add("quick", set.quick)
      .add("outcomes", Json::object()
                           .add("recovered_exact", t.recovered_exact)
                           .add("completed", t.completed)
                           .add("completed_shrunk", t.completed_shrunk)
                           .add("abandoned", t.abandoned)
                           .add("failed", t.failed)
                           .add("skipped", t.skipped)
                           .add("total", t.total()))
      .add("runs", std::move(runs));
}

}  // namespace

std::string run_json_fragment(const RunResult& r) {
  // A parallel worker already rendered this run.
  if (!r.prerendered_json.empty()) return r.prerendered_json;
  return util::write_json(run_value(r));
}

std::string to_json(const RunSet& set) {
  return util::write_json(set_value(set)) + "\n";
}

std::string to_json(const std::vector<RunSet>& sets) {
  Json reports = Json::array(/*block=*/true);
  for (const RunSet& set : sets) reports.push(set_value(set));
  return util::write_json(
             Json::object(/*block=*/true).add("reports", std::move(reports))) +
         "\n";
}

}  // namespace mpiv::scenario
