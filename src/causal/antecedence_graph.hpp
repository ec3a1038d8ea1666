// The antecedence graph shared by the Manetho and LogOn strategies.
//
// Vertices are reception events; each vertex has an implicit process-order
// edge to its creator's previous event and an explicit cross edge to the
// sender's latest event before the message was sent (paper §III-B.2,
// Fig. 3). Traversing backward from a peer's newest event yields everything
// that peer provably knows, which is what both graph strategies prune from
// the piggyback. Without an Event Logger the graph is never pruned, so this
// traversal grows with execution time — that growth is the cost the paper's
// Fig. 6a/8 attribute to "no EL" configurations.
//
// With the per-creator prefix structure, the reachable set per creator is a
// prefix, so a traversal reports one watermark per creator and each vertex
// is visited at most once per query (visits are counted and priced by the
// cost model). Vertices live in sequence-indexed windows (util::SeqWindow),
// and the per-query visited set is an epoch stamp on the vertex itself:
// a walked range is exactly a run of existing visited vertices, so "seq is
// inside a visited range" = "vertex exists and carries the current query
// epoch" — no per-query map allocation.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ftapi/determinant.hpp"
#include "util/check.hpp"
#include "util/seq_window.hpp"

namespace mpiv::causal {

class AntecedenceGraph {
 public:
  explicit AntecedenceGraph(int nranks)
      : per_(static_cast<std::size_t>(nranks)) {}

  /// Adds a vertex for determinant `d` (dep_* fields are the cross edge).
  void add(const ftapi::Determinant& d) {
    if (per_[d.creator].emplace(d.seq, Vertex{d.dep_creator, d.dep_seq})) {
      ++vertices_;
    }
  }

  /// Removes all vertices with seq <= stable[creator] (Event Logger GC:
  /// "the Manetho and LogOn antecedence graphs lose some vertices and
  /// incident edges").
  void prune_stable(const std::vector<std::uint64_t>& stable) {
    for (std::size_t c = 0; c < per_.size(); ++c) {
      per_[c].prune_to(stable[c], [this](const Vertex&) { --vertices_; });
    }
  }

  /// Backward traversal from (creator, seq): fills `known[c]` with the
  /// highest event of each creator reachable (hence known to whoever owns
  /// the start event). Returns the number of vertex visits (priced work).
  std::uint64_t known_from(std::uint32_t creator, std::uint64_t seq,
                           std::vector<std::uint64_t>& known) const {
    known.assign(per_.size(), 0);
    if (seq == 0) return 0;
    std::uint64_t visits = 0;
    const std::uint64_t epoch = ++epoch_;
    // Worklist of (creator, seq) start points; walk process-order chains
    // downward, following cross edges, stamping visited vertices.
    stack_.clear();
    stack_.emplace_back(creator, seq);
    while (!stack_.empty()) {
      auto [c, s] = stack_.back();
      stack_.pop_back();
      std::uint64_t cur = s;
      while (cur > 0) {
        const Vertex* v = per_[c].find(cur);
        if (v == nullptr) break;           // pruned / never learned: stop
        if (v->visited_epoch == epoch) break;  // already walked this query
        v->visited_epoch = epoch;
        ++visits;
        if (cur > known[c]) known[c] = cur;
        if (v->dep_creator != UINT32_MAX && v->dep_seq > 0 &&
            v->dep_seq > known[v->dep_creator]) {
          stack_.emplace_back(v->dep_creator, v->dep_seq);
        }
        --cur;
      }
    }
    return visits;
  }

  /// Incremental variant: `cache` holds the reach vector of a previous
  /// query for the same peer; because a peer's knowledge is monotone, the
  /// walk skips everything at or below the cached watermarks and visits
  /// each vertex at most once per peer over its lifetime. `cache` is
  /// updated to the new reach vector. Returns the number of NEW vertex
  /// visits (the full-traversal cost the paper describes is priced
  /// separately from the resulting reach vector).
  std::uint64_t known_from_cached(std::uint32_t creator, std::uint64_t seq,
                                  std::vector<std::uint64_t>& cache) const {
    if (cache.size() != per_.size()) cache.assign(per_.size(), 0);
    if (seq == 0 || seq <= cache[creator]) return 0;
    std::uint64_t visits = 0;
    stack_.clear();
    stack_.emplace_back(creator, seq);
    while (!stack_.empty()) {
      auto [c, s] = stack_.back();
      stack_.pop_back();
      std::uint64_t cur = s;
      while (cur > cache[c]) {
        const Vertex* v = per_[c].find(cur);
        if (v == nullptr) break;  // pruned / never learned: stop
        ++visits;
        if (v->dep_creator != UINT32_MAX && v->dep_seq > cache[v->dep_creator]) {
          stack_.emplace_back(v->dep_creator, v->dep_seq);
        }
        --cur;
      }
      // Everything in (cur, s] is now known-reachable for this peer.
      if (s > cache[c]) cache[c] = s;
    }
    return visits;
  }

  std::size_t vertex_count() const { return vertices_; }
  std::size_t vertex_count(std::uint32_t creator) const {
    return per_[creator].size();
  }
  bool contains(std::uint32_t creator, std::uint64_t seq) const {
    return per_[creator].contains(seq);
  }

  void reset() {
    for (auto& w : per_) w.reset();
    vertices_ = 0;
  }

 private:
  struct Vertex {
    std::uint32_t dep_creator = UINT32_MAX;
    std::uint64_t dep_seq = 0;
    // Per-query visited stamp for known_from (mutable: traversal is const).
    mutable std::uint64_t visited_epoch = 0;
  };

  std::vector<util::SeqWindow<Vertex>> per_;
  std::size_t vertices_ = 0;  // total vertices across creators (O(1) stat)
  mutable std::uint64_t epoch_ = 0;
  // Reused traversal worklist (allocation-free after warmup).
  mutable std::vector<std::pair<std::uint32_t, std::uint64_t>> stack_;
};

}  // namespace mpiv::causal
