#include "causal/vcausal_strategy.hpp"

#include <algorithm>

#include "causal/wire.hpp"

namespace mpiv::causal {

Strategy::Work VcausalStrategy::build(int dst, util::Buffer& out,
                                      DepShadow& deps) {
  Work w;
  PeerView& view = views_[static_cast<std::size_t>(dst)];
  std::vector<ftapi::Determinant>& events = selected_scratch();
  for (int c = 0; c < nranks_; ++c) {
    if (c == dst) continue;  // never send a peer its own events back
    const auto creator = static_cast<std::uint32_t>(c);
    const std::uint64_t lo =
        std::max(store_->stable(creator), view.floor_known(creator));
    const std::uint64_t hi = store_->known(creator);
    if (hi <= lo) continue;
    std::uint64_t top = 0;
    store_->for_range(creator, lo, hi, [&](const ftapi::Determinant& d) {
      events.push_back(d);
      top = d.seq;
    });
    if (top > view.sent[creator]) view.sent[creator] = top;
  }
  deps.reserve(deps.size() + events.size());
  for (const ftapi::Determinant& d : events) {
    deps.emplace_back(d.dep_creator, d.dep_seq);
  }
  wire::factored_serialize(events, out);
  w.events = events.size();
  w.bytes = out.size();
  // Selection scans the held sequences (grows without an Event Logger).
  w.cpu = static_cast<sim::Time>(events.size()) * cost_->ev_serialize +
          static_cast<sim::Time>(static_cast<double>(store_->held_count()) *
                                 cost_->vc_scan_ns_per_held);
  return w;
}

Strategy::Work VcausalStrategy::absorb(int src, util::Buffer& in,
                                       const DepShadow& deps) {
  Work w;
  std::size_t i = 0;
  const std::size_t n = wire::factored_decode(in, [&](ftapi::Determinant& d) {
    attach_dep(d, deps, i++);
    store_->add(d);
    note_learned(src, d);
  });
  MPIV_CHECK(deps.size() == n, "dep shadow size %zu vs %zu", deps.size(), n);
  w.events = n;
  w.cpu = static_cast<sim::Time>(n) *
          (cost_->ev_deserialize + cost_->seq_append);
  return w;
}

}  // namespace mpiv::causal
