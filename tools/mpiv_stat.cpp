// mpiv_stat: analysis over mpiv_run JSON reports — the metrics companion
// to mpiv_trace's event forensics.
//
//   $ mpiv_stat report.json                   # per-run metric summary
//   $ mpiv_stat --top 5 report.json           # hottest ranks / EL shards
//   $ mpiv_stat --diff a.json b.json          # exact A/B comparison
//   $ mpiv_stat --diff a.json b.json --tol 0.02   # 2% per-metric tolerance
//
// --diff is the regression primitive: two identical-seed runs must report
// zero drift (the simulator is deterministic), so any drift is a real
// behavioural change. Exit status: 0 = ok / zero drift, 1 = drift found,
// 2 = usage or parse errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/stat.hpp"

namespace {

using namespace mpiv;

void usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--top N] <report.json>\n"
               "       %s --diff <a.json> <b.json> [--tol FRACTION]\n"
               "  --top N       print the N hottest ranks/EL shards per run\n"
               "  --diff        compare two reports metric-by-metric\n"
               "  --tol FRAC    allowed relative drift per metric "
               "(default 0 = exact)\n",
               argv0, argv0);
}

util::Json load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream body;
  body << f.rdbuf();
  return util::parse_json(body.str());
}

/// Summary prefixes worth echoing per run, beyond the metrics.* families
/// (everything else in the flattened rows is per-record detail).
bool is_headline(const std::string& name) {
  static const char* kKeys[] = {
      "sim_time_s", "app_bytes",  "pb_bytes",        "pb_pct",
      "wire_bytes", "app_msgs",   "events_executed", "faults_injected",
      "el.mean_ack_us", "el.p50_ack_us", "el.p99_ack_us",
  };
  for (const char* k : kKeys) {
    if (name == k) return true;
  }
  return false;
}

void summarize(const std::vector<metrics::RunMetrics>& runs) {
  for (const metrics::RunMetrics& run : runs) {
    std::printf("== %s%s ==\n", run.label.c_str(),
                run.skipped ? " (skipped)" : "");
    if (run.skipped) continue;
    for (const auto& [name, value] : run.values) {
      if (is_headline(name)) std::printf("  %-34s %.6g\n", name.c_str(), value);
    }
    // Histogram summaries, one aligned row each: the flattened rows of one
    // histogram share the "metrics.histograms.<name>." prefix. Fields are
    // buffered per histogram because the flatten order is alphabetical, not
    // the header order.
    static const char* kFields[] = {"count", "mean", "p50", "p90", "p99",
                                    "max"};
    std::string current;
    double fields[6] = {};
    bool header_done = false;
    const auto flush = [&] {
      if (current.empty()) return;
      std::printf("  %-26s %8.0f %10.4g %10.4g %10.4g %10.4g %10.4g\n",
                  current.c_str(), fields[0], fields[1], fields[2], fields[3],
                  fields[4], fields[5]);
    };
    for (const auto& [name, value] : run.values) {
      const std::string pref = "metrics.histograms.";
      if (name.rfind(pref, 0) != 0) continue;
      const std::size_t dot = name.rfind('.');
      const std::string hist = name.substr(pref.size(), dot - pref.size());
      const std::string field = name.substr(dot + 1);
      if (hist != current) {
        if (!header_done) {
          std::printf("  %-26s %8s %10s %10s %10s %10s %10s\n", "histogram",
                      "count", "mean", "p50", "p90", "p99", "max");
          header_done = true;
        }
        flush();
        current = hist;
        for (double& f : fields) f = 0;
      }
      for (int i = 0; i < 6; ++i) {
        if (field == kFields[i]) fields[i] = value;
      }
    }
    flush();
    // Counters and gauges, name-sorted (the flatten order).
    for (const auto& [name, value] : run.values) {
      if (name.rfind("metrics.counters.", 0) == 0 ||
          name.rfind("metrics.gauges.", 0) == 0) {
        std::printf("  %-42s %.6g\n", name.c_str(), value);
      }
    }
  }
}

void print_top(const std::vector<metrics::RunMetrics>& runs, std::size_t n) {
  for (const metrics::RunMetrics& run : runs) {
    if (run.skipped) continue;
    std::printf("== %s: top %zu ranks/shards ==\n", run.label.c_str(), n);
    const std::vector<metrics::TopRow> rows = metrics::top_rows(run, n);
    if (rows.empty()) {
      std::printf("  (no per-rank/per-shard metrics — was metrics.enabled "
                  "on?)\n");
      continue;
    }
    for (const metrics::TopRow& row : rows) {
      std::printf("  %-8s %s = %.6g\n", row.entity.c_str(),
                  row.weight_metric.c_str(), row.weight);
      for (const auto& [detail, value] : row.details) {
        if (detail == row.weight_metric) continue;
        std::printf("           %-24s %.6g\n", detail.c_str(), value);
      }
    }
  }
}

int diff(const std::string& path_a, const std::string& path_b,
         double tolerance) {
  const util::Json a = load(path_a);
  const util::Json b = load(path_b);
  const metrics::DiffResult res = metrics::diff_reports(a, b, tolerance);
  std::printf("compared %zu run(s), %zu metric(s), tolerance %g\n",
              res.runs_compared, res.metrics_compared, tolerance);
  for (const std::string& label : res.unmatched_runs) {
    std::printf("  UNMATCHED RUN %s\n", label.c_str());
  }
  for (const metrics::DiffEntry& e : res.drifting) {
    if (e.missing_in != 0) {
      std::printf("  MISSING  %s / %s (absent in %s)\n", e.run.c_str(),
                  e.metric.c_str(), e.missing_in == 1 ? "A" : "B");
    } else {
      std::printf("  DRIFT    %s / %s: %.10g -> %.10g (%.3g%%)\n",
                  e.run.c_str(), e.metric.c_str(), e.a, e.b, e.drift * 100.0);
    }
  }
  if (res.clean()) {
    std::printf("zero drift\n");
    return 0;
  }
  std::printf("%zu drifting metric(s), %zu unmatched run(s)\n",
              res.drifting.size(), res.unmatched_runs.size());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool do_diff = false;
  long top_n = 0;
  double tolerance = 0.0;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--diff") == 0) {
      do_diff = true;
    } else if (std::strcmp(a, "--top") == 0 && i + 1 < argc) {
      top_n = std::strtol(argv[++i], nullptr, 10);
      if (top_n <= 0) {
        std::fprintf(stderr, "--top expects a positive count\n");
        return 2;
      }
    } else if (std::strcmp(a, "--tol") == 0 && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
      if (tolerance < 0) {
        std::fprintf(stderr, "--tol expects a nonnegative fraction\n");
        return 2;
      }
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(stdout, argv[0]);
      return 0;
    } else if (a[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", a);
      usage(stderr, argv[0]);
      return 2;
    } else {
      files.emplace_back(a);
    }
  }

  try {
    if (do_diff) {
      if (files.size() != 2) {
        std::fprintf(stderr, "--diff expects exactly two report files\n");
        usage(stderr, argv[0]);
        return 2;
      }
      return diff(files[0], files[1], tolerance);
    }
    if (files.size() != 1) {
      usage(stderr, argv[0]);
      return 2;
    }
    const util::Json doc = load(files[0]);
    const std::vector<metrics::RunMetrics> runs = metrics::extract_runs(doc);
    if (top_n > 0) {
      print_top(runs, static_cast<std::size_t>(top_n));
    } else {
      summarize(runs);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
