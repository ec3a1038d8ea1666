// mpiv_trace: causal divergence localization for faulty runs.
//
// Re-runs a scenario with per-rank trace lanes forced on and the
// compare_reference twin enabled, then aligns the faulty stream against
// the fault-free reference per rank. A correct causal-logging recovery
// makes the two streams record-identical up to timestamps (the paper's
// replay guarantee); when they are not, the tool names the victim rank,
// the first divergent record, the first replayed reception after the
// crash, and the causal chain behind the divergence point reconstructed
// from the determinant records (the antecedence graph).
//
//   $ mpiv_trace --quick scenarios/fault_campaign.scn
//
// Output goes to stdout, progress to stderr. Exit status:
//   0  every analyzed point replay-equivalent
//   1  at least one point diverged
//   2  usage / parse / validation error
//   3  nothing to analyze (no faulty point produced both streams)
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "scenario/runner.hpp"
#include "trace/divergence.hpp"
#include "trace/trace.hpp"

namespace {

using namespace mpiv;

void usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [options] <scenario.scn> [more.scn ...]\n"
               "  --quick          apply the scenario's [quick] overrides\n"
               "  --set key=value  override a scenario key (repeatable;\n"
               "                   e.g. seed=N, trace.capacity=N)\n"
               "  --max-chain N    causal chain depth to print (default 8)\n",
               argv0);
}

/// snprintf, not "r" + to_string: GCC 12 -Wrestrict false positive.
std::string rank_lane(int rank) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "r%d", rank);
  return buf;
}

/// Antecedence edges for one stream: (rank, rsn) -> (dep rank, dep rsn),
/// straight from the rank-side determinant records (code 0: peer =
/// dep_creator, seq = rsn, aux = dep_seq). dep rank -1 = no antecedent
/// (the reception did not causally depend on a prior delivery).
using ChainKey = std::pair<int, std::uint64_t>;

std::map<ChainKey, ChainKey> antecedence(const trace::Stream& s) {
  std::map<ChainKey, ChainKey> edges;
  for (const trace::StreamRecord& sr : s.records) {
    if (sr.rec.kind != trace::Kind::kDeterminant || sr.rec.code != 0) continue;
    if (sr.lane.size() < 2 || sr.lane[0] != 'r') continue;
    const int rank = std::atoi(sr.lane.c_str() + 1);
    edges[{rank, sr.rec.seq}] = {sr.rec.peer, sr.rec.aux};
  }
  return edges;
}

/// Timestamped reception index: (rank, rsn) -> the kRecvMatch record.
std::map<ChainKey, trace::Record> receptions(const trace::Stream& s) {
  std::map<ChainKey, trace::Record> idx;
  for (const trace::StreamRecord& sr : s.records) {
    if (sr.rec.kind != trace::Kind::kRecvMatch) continue;
    if (sr.lane.size() < 2 || sr.lane[0] != 'r') continue;
    const int rank = std::atoi(sr.lane.c_str() + 1);
    idx[{rank, sr.rec.seq}] = sr.rec;  // last occurrence (replay) wins
  }
  return idx;
}

void print_chain(const trace::Stream& s, int rank, std::uint64_t rsn,
                 int max_depth) {
  const std::map<ChainKey, ChainKey> edges = antecedence(s);
  const std::map<ChainKey, trace::Record> recvs = receptions(s);
  ChainKey cur{rank, rsn};
  for (int depth = 0; depth < max_depth; ++depth) {
    const auto rv = recvs.find(cur);
    if (rv != recvs.end()) {
      std::printf("    %s%s\n",
                  trace::format_record(rank_lane(cur.first), rv->second)
                      .c_str(),
                  depth == 0 ? "   <- divergence point" : "");
    } else {
      std::printf("    r%d rsn=%llu (reception not retained in ring)\n",
                  cur.first, static_cast<unsigned long long>(cur.second));
    }
    const auto e = edges.find(cur);
    if (e == edges.end()) {
      std::printf("    (no determinant retained for r%d rsn=%llu — chain "
                  "ends)\n",
                  cur.first, static_cast<unsigned long long>(cur.second));
      return;
    }
    if (e->second.first < 0) {
      std::printf("    (no causal antecedent — chain rooted)\n");
      return;
    }
    cur = e->second;
  }
  std::printf("    ... (chain truncated at depth %d)\n", max_depth);
}

/// Last EL stable watermark the victim saw before the crash (kElAck code 0
/// on its lane): how much of its reception history was safe when it died.
bool stable_before(const trace::Stream& s, int rank, sim::Time fault_at,
                   std::uint64_t* out) {
  bool found = false;
  for (const trace::Record& r : s.lane_records(rank_lane(rank))) {
    if (r.kind == trace::Kind::kElAck && r.code == 0 && r.t <= fault_at) {
      *out = r.seq;
      found = true;
    }
  }
  return found;
}

struct Tally {
  int analyzed = 0;
  int diverged = 0;
};

void analyze_point(const scenario::RunResult& r, int max_chain, Tally* tally) {
  std::printf("== %s ==\n", r.label.c_str());
  trace::Stream faulty;
  trace::Stream reference;
  try {
    faulty = trace::parse_stream(r.trace_dump);
    reference = trace::parse_stream(*r.reference_trace_dump);
  } catch (const std::exception& e) {
    std::printf("  unparseable trace stream: %s\n", e.what());
    return;
  }
  const trace::DivergenceReport rep = trace::compare_streams(
      faulty, reference, static_cast<int>(r.report.rank_stats.size()));
  ++tally->analyzed;

  if (rep.victim >= 0) {
    std::printf("  victim: rank %d (crash at %.6f s)\n", rep.victim,
                sim::to_sec(rep.victim_fault_at));
    std::uint64_t stable = 0;
    if (stable_before(faulty, rep.victim, rep.victim_fault_at, &stable)) {
      std::printf("  stable watermark at crash: %llu receptions acked by the "
                  "EL\n",
                  static_cast<unsigned long long>(stable));
    }
    // The first reception the recovered incarnation re-delivered: where
    // forced replay started.
    for (const trace::Record& rec :
         faulty.lane_records(rank_lane(rep.victim))) {
      if (rec.kind == trace::Kind::kRecvMatch && rec.t > rep.victim_fault_at) {
        std::printf("  first replayed reception: %s\n",
                    trace::format_record(rank_lane(rep.victim), rec).c_str());
        break;
      }
    }
  } else {
    std::printf("  victim: none (no rank-crash record in the stream)\n");
  }

  // Split-brain localization: the first duplicate determinant the
  // heal-time merge dropped, straight from the successor shard's lane
  // (kRecovery/kPhaseDupDrop: peer = creator rank, seq = duplicated seq).
  std::uint64_t dup_total = 0;
  const trace::StreamRecord* first_dup = nullptr;
  for (const trace::StreamRecord& sr : faulty.records) {
    if (sr.rec.kind == trace::Kind::kRecovery &&
        sr.rec.code == trace::kPhaseDupDrop) {
      ++dup_total;
      if (first_dup == nullptr) first_dup = &sr;
    }
  }
  if (first_dup != nullptr) {
    std::printf("  first reconciled duplicate: creator rank %d seq %llu "
                "(dropped on lane %s at %.6f s; %llu duplicate(s) total)\n",
                first_dup->rec.peer,
                static_cast<unsigned long long>(first_dup->rec.seq),
                first_dup->lane.c_str(), sim::to_sec(first_dup->rec.t),
                static_cast<unsigned long long>(dup_total));
  }

  if (rep.equivalent) {
    std::printf("  replay-equivalent: yes — every rank's logical "
                "send/recv-match sequence matches the reference\n");
    return;
  }
  ++tally->diverged;
  std::printf("  replay-equivalent: NO\n");
  const trace::LaneDivergence* d = rep.first_divergent();
  if (d == nullptr) return;
  std::printf("  first divergent lane: %s (%s)\n", d->lane.c_str(),
              d->what.c_str());
  if (d->has_faulty) {
    std::printf("    faulty:    %s\n",
                trace::format_record(d->lane, d->faulty).c_str());
  }
  if (d->has_reference) {
    std::printf("    reference: %s\n",
                trace::format_record(d->lane, d->reference).c_str());
  }
  // The causal chain behind the faulty-side divergence point, from the
  // antecedence graph: which earlier deliveries forced this one.
  if (d->has_faulty && d->faulty.kind == trace::Kind::kRecvMatch &&
      d->lane.size() >= 2 && d->lane[0] == 'r') {
    std::printf("  causal chain (most recent first):\n");
    print_chain(faulty, std::atoi(d->lane.c_str() + 1), d->faulty.seq,
                max_chain);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int max_chain = 8;
  std::vector<std::string> overrides;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(a, "--set") == 0 && i + 1 < argc) {
      overrides.emplace_back(argv[++i]);
    } else if (std::strcmp(a, "--max-chain") == 0 && i + 1 < argc) {
      max_chain = cli::positive_count(argv[++i]);
      if (max_chain < 1) {
        std::fprintf(stderr,
                     "error: bad value '%s' for '--max-chain' (expected a "
                     "positive depth)\n",
                     argv[i]);
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
  if (files.empty()) {
    usage(stderr, argv[0]);
    return 2;
  }

  Tally tally;
  try {
    for (const std::string& path : files) {
      scenario::ScenarioSpec spec =
          scenario::load_scenario(path, quick, overrides);
      // The tool's whole point: lanes on, reference twin on.
      spec.trace.enabled = true;
      spec.compare_reference = true;

      std::fprintf(stderr, "== %s (%s%s) ==\n", spec.name.c_str(),
                   path.c_str(), quick ? ", quick" : "");
      scenario::validate(spec);
      std::size_t done = 0;
      const std::vector<scenario::RunPoint> points = scenario::expand(spec);
      for (const scenario::RunPoint& p : points) {
        const scenario::RunResult r = scenario::run_point(p);
        ++done;
        std::fprintf(stderr, "  [%zu/%zu] %-40s %s\n", done, points.size(),
                     p.label.c_str(),
                     r.skipped ? "skipped"
                               : (r.completed ? "done" : "DID NOT COMPLETE"));
        if (r.skipped || r.trace_dump.empty() ||
            r.reference_trace_dump == nullptr) {
          continue;
        }
        analyze_point(r, max_chain, &tally);
      }
    }
  } catch (const scenario::SpecError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (tally.analyzed == 0) {
    std::fprintf(stderr,
                 "nothing to analyze: no point produced both a faulty and a "
                 "reference trace stream\n");
    return 3;
  }
  std::printf("%d point(s) analyzed, %d diverged\n", tally.analyzed,
              tally.diverged);
  return tally.diverged > 0 ? 1 : 0;
}
