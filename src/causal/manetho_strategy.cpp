#include "causal/manetho_strategy.hpp"

#include <algorithm>

#include "causal/wire.hpp"

namespace mpiv::causal {

std::uint64_t ManethoStrategy::select_unknown(
    int dst, std::vector<ftapi::Determinant>& events) {
  PeerView& view = views_[static_cast<std::size_t>(dst)];

  // What does dst know? Traverse the graph backward from dst's newest event
  // we hold; the reachable prefix per creator is provably known to dst.
  // The walk itself is incremental (each vertex visited once per peer), but
  // the PRICED work is Manetho's full traversal of the current graph region
  // reachable for this peer — the cost that grows without an Event Logger.
  std::vector<std::uint64_t>& reach = reach_cache_[static_cast<std::size_t>(dst)];
  graph_->known_from_cached(static_cast<std::uint32_t>(dst),
                            store_->known(static_cast<std::uint32_t>(dst)),
                            reach);
  std::uint64_t visits = 0;
  for (int c = 0; c < nranks_; ++c) {
    const auto creator = static_cast<std::uint32_t>(c);
    if (reach[creator] > store_->stable(creator)) {
      visits += reach[creator] - store_->stable(creator);
    }
  }

  for (int c = 0; c < nranks_; ++c) {
    if (c == dst) continue;
    const auto creator = static_cast<std::uint32_t>(c);
    // Transitive (graph) evidence is capped after dst restarts (DESIGN §4).
    const std::uint64_t graph_known = std::min(reach[creator], view.cap[creator]);
    const std::uint64_t lo = std::max({store_->stable(creator),
                                       view.floor_known(creator), graph_known});
    const std::uint64_t hi = store_->known(creator);
    if (hi <= lo) continue;
    std::uint64_t top = 0;
    store_->for_range(creator, lo, hi, [&](const ftapi::Determinant& d) {
      events.push_back(d);
      top = d.seq;
    });
    if (top > view.sent[creator]) view.sent[creator] = top;
    view.raise_cap(creator, top);
  }
  return visits;
}

Strategy::Work ManethoStrategy::build(int dst, util::Buffer& out,
                                      DepShadow& deps) {
  Work w;
  std::vector<ftapi::Determinant>& events = selected_scratch();
  w.visits = select_unknown(dst, events);
  deps.reserve(deps.size() + events.size());
  for (const ftapi::Determinant& d : events) {
    deps.emplace_back(d.dep_creator, d.dep_seq);
  }
  wire::factored_serialize(events, out);
  w.events = events.size();
  w.bytes = out.size();
  w.cpu = w.visits * cost_->graph_visit +
          static_cast<sim::Time>(events.size()) * cost_->ev_serialize;
  return w;
}

Strategy::Work ManethoStrategy::absorb(int src, util::Buffer& in,
                                       const DepShadow& deps) {
  Work w;
  std::size_t i = 0;
  const std::size_t n = wire::factored_decode(in, [&](ftapi::Determinant& d) {
    attach_dep(d, deps, i++);
    merge(src, d);
  });
  MPIV_CHECK(deps.size() == n, "dep shadow size %zu vs %zu", deps.size(), n);
  w.events = n;
  // Manetho must first add the events, then re-cross the graph to generate
  // the new edges (paper §III-B.2) — the extra per-event walk is what makes
  // its receive side slower than LogOn's.
  w.visits = 2 * n;
  w.cpu = static_cast<sim::Time>(n) *
              (cost_->ev_deserialize + cost_->graph_insert) +
          w.visits * cost_->graph_visit;
  return w;
}

}  // namespace mpiv::causal
