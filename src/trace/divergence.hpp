// Semantic replay-equivalence between a faulty run's trace capture and its
// compare_reference twin's.
//
// The oracle from the paper: causal logging must replay a crashed rank's
// reception sequence *exactly*, so after recovery every rank's logical
// sequence of sends and reception matches must be record-identical to the
// fault-free reference execution — only the timestamps move. The
// comparator projects each rank lane down to that logical sequence
// (deduplicating re-executed events by keeping the LAST occurrence of
// each (kind, key): the replayed copy supersedes the pre-crash one) and
// compares content, never wall time. When a ring overflowed and dropped
// early records, comparison falls back to aligning at the first key both
// sides retain and checking the suffix (and says so via `truncated`).
#pragma once

#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace mpiv::trace {

/// Outcome of comparing one rank lane.
struct LaneDivergence {
  std::string lane;
  bool compared = false;   // lane present in both captures
  bool truncated = false;  // ring drops forced suffix-only alignment
  bool diverged = false;
  std::string what;  // human description when diverged
  bool has_faulty = false;
  bool has_reference = false;
  Record faulty{};     // record at the divergence point (faulty side)
  Record reference{};  // record at the divergence point (reference side)
};

struct DivergenceReport {
  // First rank-crash fault record of the faulty capture in stream order
  // (the reference pass strips rank injections, so this exists only on the
  // faulty side).
  int victim = -1;
  sim::Time victim_fault_at = 0;
  bool equivalent = true;  // every compared rank lane matched
  std::vector<LaneDivergence> lanes;

  const LaneDivergence* first_divergent() const {
    for (const LaneDivergence& l : lanes) {
      if (l.diverged) return &l;
    }
    return nullptr;
  }
};

/// Projects a rank lane to its logical send/recv-match sequence:
/// kSend keyed by (peer, ssn), kRecvMatch keyed by rsn, last occurrence
/// wins, original order of the survivors preserved.
std::vector<Record> logical_sequence(const std::vector<Record>& lane);

/// Compares rank lanes 0..nranks-1; rank r's lane is capture lane r
/// (TraceSink's order, which render and parse_stream keep). `lanes[r]` of
/// the report is rank r's.
DivergenceReport compare_captures(const Capture& faulty,
                                  const Capture& reference, int nranks);

}  // namespace mpiv::trace
