// Vcausal piggyback reduction (paper §III-B.1).
//
// The light-computation strategy: one reception sequence per creator plus,
// per peer, the last event of each creator exchanged with that peer. On
// send, everything above that watermark (and above the EL-stable point)
// goes out; there is no graph and no traversal, so serialization cost is
// linear in the events emitted — "the Vcausal serialization outperforms the
// other two protocols" — at the price of a weak reduction: transitive
// knowledge (what the peer learned via third parties) is invisible to it.
#pragma once

#include "causal/strategy.hpp"

namespace mpiv::causal {

class VcausalStrategy : public Strategy {
 public:
  const char* name() const override { return "Vcausal"; }
  Work build(int dst, util::Buffer& out, DepShadow& deps) override;
  Work absorb(int src, util::Buffer& in, const DepShadow& deps) override;
};

}  // namespace mpiv::causal
