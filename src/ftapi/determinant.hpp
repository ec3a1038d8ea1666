// Reception determinants — the nondeterministic events of message logging.
//
// Message-logging protocols assume piecewise-deterministic execution: a
// process's run is fully determined by the sequence of its reception events.
// A determinant records one reception: "my `seq`-th delivery matched the
// message with send-sequence `ssn` from rank `src`". Replaying the
// determinant sequence after a crash reproduces the pre-crash run.
#pragma once

#include <cstdint>
#include <vector>

#include "util/buffer.hpp"

namespace mpiv::ftapi {

// Fields are ordered by size so the struct packs to 40 bytes: every
// event store, EL shard and piggyback scratch holds these by the million.
struct Determinant {
  std::uint64_t seq = 0;      // creator's reception sequence number (1-based)
  std::uint64_t ssn = 0;      // sender's (src -> creator) send sequence
  // Simulator-side causal dependency (antecedence-graph edge target): the
  // latest event of `src` known when the message was sent. Real Manetho
  // recovers this from the structure of its graph-fragment piggyback, so it
  // is NOT counted as wire bytes (see docs/DESIGN.md §2).
  std::uint64_t dep_seq = 0;
  std::uint32_t creator = 0;  // rank whose reception this describes
  std::uint32_t src = 0;      // sender of the matched message
  std::int32_t tag = 0;
  std::uint32_t dep_creator = UINT32_MAX;  // UINT32_MAX: no cross edge

  bool operator==(const Determinant& o) const {
    return creator == o.creator && seq == o.seq && src == o.src &&
           ssn == o.ssn && tag == o.tag;
  }

  /// Bytes of one determinant in the Event Logger / recovery wire format.
  static constexpr std::uint64_t kWireSize = 2 + 8 + 2 + 8 + 4;

  void serialize(util::Buffer& b) const {
    b.put_u16(static_cast<std::uint16_t>(creator));
    b.put_u64(seq);
    b.put_u16(static_cast<std::uint16_t>(src));
    b.put_u64(ssn);
    b.put_u32(static_cast<std::uint32_t>(tag));
  }
  static Determinant deserialize(util::Buffer& b) {
    Determinant d;
    d.creator = b.get_u16();
    d.seq = b.get_u64();
    d.src = b.get_u16();
    d.ssn = b.get_u64();
    d.tag = static_cast<std::int32_t>(b.get_u32());
    return d;
  }
};

static_assert(sizeof(Determinant) == 40,
              "Determinant fields must stay ordered by size (no padding)");

using DeterminantList = std::vector<Determinant>;

}  // namespace mpiv::ftapi
