#include "causal/wire.hpp"

#include "util/check.hpp"

namespace mpiv::causal::wire {

namespace {

// End of the block starting at `i`: a maximal run of the same creator with
// consecutive sequence numbers, cut at the u16 block count.
std::size_t block_end(const std::vector<ftapi::Determinant>& events,
                      std::size_t i) {
  const std::size_t limit =
      events.size() - i > UINT16_MAX ? i + UINT16_MAX : events.size();
  std::size_t j = i + 1;
  while (j < limit && events[j].creator == events[j - 1].creator &&
         events[j].seq == events[j - 1].seq + 1) {
    ++j;
  }
  return j;
}

void put_plain(const ftapi::Determinant& d, util::Buffer& out) {
  out.put_packed(static_cast<std::uint16_t>(d.creator), d.seq,
                 static_cast<std::uint16_t>(d.src), d.ssn,
                 static_cast<std::uint32_t>(d.tag));
}

void put_plain_header(std::size_t n, util::Buffer& out) {
  MPIV_CHECK(n <= UINT16_MAX, "piggyback too large: %zu events", n);
  out.reserve(out.size() + kPlainHeader + n * kPlainPerEvent);
  out.put_u16(static_cast<std::uint16_t>(n));
}

}  // namespace

void factored_serialize(const std::vector<ftapi::Determinant>& events,
                        util::Buffer& out) {
  std::size_t nblocks = 0;
  for (std::size_t i = 0; i < events.size(); i = block_end(events, i)) {
    ++nblocks;
  }
  MPIV_CHECK(nblocks <= UINT16_MAX, "piggyback too large: %zu blocks",
             nblocks);
  out.reserve(out.size() + kFactoredHeader + nblocks * kFactoredBlockHeader +
              events.size() * kFactoredPerEvent);
  out.put_u16(static_cast<std::uint16_t>(nblocks));
  std::size_t i = 0;
  while (i < events.size()) {
    const std::size_t j = block_end(events, i);
    out.put_packed(static_cast<std::uint16_t>(events[i].creator),
                   static_cast<std::uint16_t>(j - i), events[i].seq);
    for (std::size_t k = i; k < j; ++k) {
      out.put_packed(static_cast<std::uint16_t>(events[k].src), events[k].ssn,
                     static_cast<std::uint32_t>(events[k].tag));
    }
    i = j;
  }
}

std::vector<ftapi::Determinant> factored_parse(util::Buffer& in) {
  std::vector<ftapi::Determinant> out;
  factored_decode(in,
                  [&out](const ftapi::Determinant& d) { out.push_back(d); });
  return out;
}

void plain_serialize(const std::vector<ftapi::Determinant>& events,
                     util::Buffer& out) {
  put_plain_header(events.size(), out);
  for (const ftapi::Determinant& d : events) put_plain(d, out);
}

void plain_serialize(const std::vector<ftapi::Determinant>& events,
                     const std::vector<std::uint32_t>& order,
                     util::Buffer& out) {
  put_plain_header(order.size(), out);
  for (const std::uint32_t i : order) put_plain(events[i], out);
}

std::vector<ftapi::Determinant> plain_parse(util::Buffer& in) {
  std::vector<ftapi::Determinant> out;
  plain_decode(in, [&out](const ftapi::Determinant& d) { out.push_back(d); });
  return out;
}

}  // namespace mpiv::causal::wire
