// LogOn piggyback reduction (Lee, Park, Yeom, Cho — SRDS'98; paper §III-B.2).
//
// Selects the same event set as Manetho (antecedence-graph pruning) but
// emits it in a causal (topological) order: for any two piggybacked events
// m_i, m_j with i < j, m_j is never in the causal past of m_i. The receiver
// can then merge the piggyback in a single pass — every event's
// antecedents are already in place — making receive cheap; the reordering
// work moves to the send side, and the partial order forbids factoring, so
// each event carries its creator and sequence (wider wire format).
//
// Host side, the order is Kahn's algorithm with a FIFO ready list over a
// flat (creator, seq) -> position hash index and a CSR adjacency, linear in
// the piggyback size. Its arrays are scratch shared by every rank of the
// process and grown on demand inside build(), so once warm the ordering
// allocates nothing.
#pragma once

#include "causal/manetho_strategy.hpp"

namespace mpiv::causal {

class LogOnStrategy final : public ManethoStrategy {
 public:
  const char* name() const override { return "LogOn"; }
  Work build(int dst, util::Buffer& out, DepShadow& deps) override;
  Work absorb(int src, util::Buffer& in, const DepShadow& deps) override;

  /// Orders `events` topologically w.r.t. causal dependencies (ancestors
  /// first). Exposed for the property tests and the micro benchmark; build()
  /// uses the same ordering without copying the events.
  static std::vector<ftapi::Determinant> causal_order(
      std::vector<ftapi::Determinant> events);
};

}  // namespace mpiv::causal
