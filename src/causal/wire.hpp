// Piggyback wire formats (paper §III-C).
//
// Vcausal and Manetho factor events by the rank that created them ("the
// receiver rank of the event"): a block carries {creator, count, first_seq}
// once, then per-event {src, ssn, tag}. LogOn's partial order forbids
// factoring — events from different creators interleave — so every event
// carries its creator and sequence explicitly, making each event wider:
// "for the same number of events to piggyback, the actual size in bytes of
// data added to the message is higher for LogOn". For very small piggybacks
// the factored block header dominates and LogOn is the smaller format (the
// paper's LU/4-nodes observation).
//
// Both serializers reserve the exact size they write. Receivers merge
// through the streaming decoders (`factored_decode`, `plain_decode`), which
// hand each determinant to a callback as it is read; the vector-returning
// parsers are thin wrappers over them.
#pragma once

#include <cstdint>
#include <vector>

#include "ftapi/determinant.hpp"
#include "util/buffer.hpp"

namespace mpiv::causal::wire {

// Factored format sizes.
constexpr std::uint64_t kFactoredHeader = 2;              // u16 block count
constexpr std::uint64_t kFactoredBlockHeader = 2 + 2 + 8; // creator,count,first
constexpr std::uint64_t kFactoredPerEvent = 2 + 8 + 4;    // src,ssn,tag
// Per-event (LogOn) format sizes.
constexpr std::uint64_t kPlainHeader = 2;                  // u16 event count
constexpr std::uint64_t kPlainPerEvent = 2 + 8 + 2 + 8 + 4;// creator,seq,src,ssn,tag

/// Serializes events factored by creator. `events` must be grouped by
/// creator with contiguous seq runs inside a group (the builder emits runs);
/// a run longer than a block's u16 count is split over several blocks.
void factored_serialize(const std::vector<ftapi::Determinant>& events,
                        util::Buffer& out);

/// Decodes a factored piggyback, calling `fn(ftapi::Determinant&)` for each
/// event in wire order. Returns the number of events.
template <class Fn>
std::size_t factored_decode(util::Buffer& in, Fn&& fn) {
  std::size_t n = 0;
  const std::uint16_t nblocks = in.get_u16();
  for (std::uint16_t b = 0; b < nblocks; ++b) {
    const std::uint16_t creator = in.get_u16();
    const std::uint16_t count = in.get_u16();
    const std::uint64_t first = in.get_u64();
    for (std::uint16_t k = 0; k < count; ++k) {
      ftapi::Determinant d;
      d.creator = creator;
      d.seq = first + k;
      d.src = in.get_u16();
      d.ssn = in.get_u64();
      d.tag = static_cast<std::int32_t>(in.get_u32());
      fn(d);
    }
    n += count;
  }
  return n;
}

/// Parses a factored piggyback (inverse of factored_serialize).
std::vector<ftapi::Determinant> factored_parse(util::Buffer& in);

/// Serializes events one-by-one preserving their order (LogOn format).
void plain_serialize(const std::vector<ftapi::Determinant>& events,
                     util::Buffer& out);
/// Serializes events[order[0]], events[order[1]], ... in the LogOn format.
void plain_serialize(const std::vector<ftapi::Determinant>& events,
                     const std::vector<std::uint32_t>& order,
                     util::Buffer& out);

/// Decodes a LogOn piggyback, calling `fn(ftapi::Determinant&)` for each
/// event in wire order. Returns the number of events.
template <class Fn>
std::size_t plain_decode(util::Buffer& in, Fn&& fn) {
  const std::uint16_t n = in.get_u16();
  for (std::uint16_t i = 0; i < n; ++i) {
    ftapi::Determinant d;
    d.creator = in.get_u16();
    d.seq = in.get_u64();
    d.src = in.get_u16();
    d.ssn = in.get_u64();
    d.tag = static_cast<std::int32_t>(in.get_u32());
    fn(d);
  }
  return n;
}

std::vector<ftapi::Determinant> plain_parse(util::Buffer& in);

}  // namespace mpiv::causal::wire
