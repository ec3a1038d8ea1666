// mpiv_run: the scenario driver. Loads declarative experiment specs
// (scenarios/*.scn), expands their sweeps, runs every point on the
// simulated cluster and emits one machine-readable JSON report.
//
//   $ mpiv_run scenarios/fig6a.scn                 # JSON on stdout
//   $ mpiv_run --quick --out r.json scenarios/*.scn
//   $ mpiv_run --list                              # registry contents
//   $ mpiv_run --print scenarios/fig9.scn          # expanded matrix only
//
// Progress goes to stderr so stdout stays valid JSON. Exit status: 0 on
// success, 2 on usage/parse/validation errors, 3 when the report is
// degraded — some point ran but produced no result (`abandoned` hit
// max_sim_time, `failed` lost its worker) — so CI grids can't silently
// pass on a report full of holes.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace {

using namespace mpiv;

void usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [options] <scenario.scn> [more.scn ...]\n"
               "  --quick          apply the scenario's [quick] overrides\n"
               "  --jobs N         fan sweep points across N forked workers\n"
               "                   (default 1; the report is byte-identical\n"
               "                   to --jobs 1)\n"
               "  --out FILE       write the JSON report to FILE (default: stdout)\n"
               "  --set key=value  override a scenario key (repeatable)\n"
               "  --seed N         override the seed (replaces a seed sweep axis)\n"
               "  --print          print the expanded run matrix, run nothing\n"
               "  --list           list registered protocols/strategies/"
               "workloads and every scenario key\n",
               argv0);
}

void list_registries() {
  std::printf("protocols ([ft] = fault tolerant):\n");
  for (const auto& [name, e] : scenario::protocols().entries()) {
    std::printf("  %-14s %-5s %s\n", name.c_str(),
                e.fault_tolerant ? "[ft]" : "", e.summary);
  }
  std::printf("strategies (variant names accept :el / :noel suffixes):\n");
  for (const auto& [name, e] : scenario::strategies().entries()) {
    std::printf("  %-14s %s — %s\n", name.c_str(), e.display, e.summary);
  }
  std::printf("workloads (accepted workload.* keys in parentheses):\n");
  for (const auto& [name, e] : scenario::workload_registry().entries()) {
    std::string params;
    for (const char* p : e.params) {
      params += params.empty() ? "workload." : ", workload.";
      params += p;
    }
    std::printf("  %-14s %s%s%s%s\n", name.c_str(), e.summary,
                params.empty() ? "" : " (", params.c_str(),
                params.empty() ? "" : ")");
  }
  // Every scenario key straight from the parser's own table, so this
  // listing and docs/SCENARIOS.md cannot diverge from what .scn files accept
  // (scripts/check_docs.sh checks the docs side).
  std::printf("scenario keys by section (docs/SCENARIOS.md has the full "
              "reference):\n");
  const char* section = "";
  for (const scenario::KeyInfo& k : scenario::key_table()) {
    if (std::strcmp(k.section, section) != 0) {
      section = k.section;
      std::printf("  [%s]\n", section);
    }
    std::printf("    %-27s %-40s %s\n", k.key, k.syntax, k.summary);
  }
}

/// --set uses quick-overlay semantics: replace a same-named sweep axis,
/// otherwise apply as a scalar setting.
void apply_override(scenario::ScenarioSpec& spec, const std::string& kv) {
  const std::size_t eq = kv.find('=');
  if (eq == std::string::npos) {
    throw scenario::SpecError("--set expects key=value, got '" + kv + "'");
  }
  spec.quick.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
}

void print_matrix(const scenario::ScenarioSpec& spec) {
  const std::vector<scenario::RunPoint> points = scenario::expand(spec);
  std::printf("scenario '%s': %zu run point(s)\n", spec.name.c_str(),
              points.size());
  for (const scenario::RunPoint& p : points) {
    std::printf("  %-44s %s%s\n", p.label.c_str(),
                p.skipped ? "SKIP: " : "", p.skip_reason.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool print_only = false;
  int jobs = 1;
  const char* out_path = nullptr;
  std::vector<std::string> overrides;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(a, "--print") == 0) {
      print_only = true;
    } else if (std::strcmp(a, "--list") == 0) {
      list_registries();
      return 0;
    } else if (std::strcmp(a, "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
      if (jobs < 1) {
        std::fprintf(stderr, "--jobs expects a positive worker count\n");
        return 2;
      }
    } else if (std::strcmp(a, "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(a, "--set") == 0 && i + 1 < argc) {
      overrides.emplace_back(argv[++i]);
    } else if (std::strcmp(a, "--seed") == 0 && i + 1 < argc) {
      // Sugar for --set seed=N: pins stochastic campaigns for exact
      // reproduction (and replaces a seed sweep axis when one exists).
      overrides.emplace_back(std::string("seed=") + argv[++i]);
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
  if (files.empty()) {
    usage(stderr, argv[0]);
    return 2;
  }

  std::vector<scenario::RunSet> reports;
  try {
    for (const std::string& path : files) {
      scenario::ScenarioSpec spec = scenario::parse_scenario_file(path);
      if (!quick) spec.quick.clear();
      for (const std::string& kv : overrides) apply_override(spec, kv);
      if (quick || !overrides.empty()) scenario::apply_quick(spec);

      if (print_only) {
        print_matrix(spec);
        continue;
      }

      std::fprintf(stderr, "== %s (%s%s) ==\n", spec.name.c_str(),
                   path.c_str(), quick ? ", quick" : "");
      scenario::RunOptions opt;
      opt.quick = quick;
      opt.jobs = jobs;
      std::size_t done = 0;
      const std::size_t total = scenario::expand(spec).size();
      opt.on_result = [&done, total](const scenario::RunPoint& p,
                                     const scenario::RunResult& r) {
        ++done;
        if (r.skipped) {
          std::fprintf(stderr, "  [%zu/%zu] %-40s skipped (%s)\n", done, total,
                       p.label.c_str(), r.skip_reason.c_str());
        } else {
          std::fprintf(stderr, "  [%zu/%zu] %-40s %s, %.3f s simulated\n",
                       done, total, p.label.c_str(),
                       r.completed ? "done" : "DID NOT COMPLETE",
                       r.sim_seconds());
        }
      };
      scenario::RunSet set = scenario::run(spec, opt);
      set.origin = path;
      reports.push_back(std::move(set));
    }
  } catch (const scenario::SpecError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (print_only) return 0;

  const std::string json = reports.size() == 1 ? scenario::to_json(reports[0])
                                               : scenario::to_json(reports);
  if (out_path != nullptr) {
    FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path);
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", out_path);
  } else {
    std::fwrite(json.data(), 1, json.size(), stdout);
  }
  // Degraded grids (a point abandoned its time budget or lost its worker)
  // exit 3: the report is complete and valid, but CI must look at it.
  for (const scenario::RunSet& set : reports) {
    if (set.tally().degraded()) {
      std::fprintf(stderr, "warning: %s has abandoned/failed points\n",
                   set.scenario.c_str());
      return 3;
    }
  }
  return 0;
}
