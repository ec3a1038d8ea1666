// Piggyback-reduction strategy interface (paper §III-B).
//
// The three strategies share one EventStore (actual determinant data) and
// differ in (a) how they decide what a peer already knows, (b) the data
// structure maintained to decide it (plain sequences vs antecedence graph),
// (c) the wire format, and (d) — through the cost model — how much CPU the
// decision costs. All of those are exactly the axes the paper compares.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "causal/event_store.hpp"
#include "net/cost_model.hpp"
#include "util/buffer.hpp"
#include "util/check.hpp"

namespace mpiv::causal {

/// What this rank believes peer `j` knows, per creator. `learned[c]` grows
/// when j's piggybacks arrive, `sent[c]` when we piggyback to j; `cap[c]`
/// bounds graph-derived (transitive) inference after j restarts from a
/// checkpoint — j's replay does not reconstruct third-party determinant
/// copies, so pre-crash transitive evidence about j is no longer valid
/// (docs/DESIGN.md §4).
struct PeerView {
  std::vector<std::uint64_t> learned;
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> cap;

  void init(int nranks) {
    learned.assign(static_cast<std::size_t>(nranks), 0);
    sent.assign(static_cast<std::size_t>(nranks), 0);
    cap.assign(static_cast<std::size_t>(nranks), UINT64_MAX);
  }
  std::uint64_t floor_known(std::uint32_t c) const {
    return std::max(learned[c], sent[c]);
  }
  void on_restart(const std::vector<std::uint64_t>& known) {
    for (std::size_t c = 0; c < learned.size(); ++c) {
      learned[c] = std::min(learned[c], known[c]);
      sent[c] = std::min(sent[c], known[c]);
      cap[c] = known[c];
    }
  }
  void raise_cap(std::uint32_t c, std::uint64_t seq) {
    if (cap[c] != UINT64_MAX && seq > cap[c]) cap[c] = seq;
  }
  void serialize(util::Buffer& b) const {
    for (std::uint64_t v : learned) b.put_u64(v);
    for (std::uint64_t v : sent) b.put_u64(v);
    for (std::uint64_t v : cap) b.put_u64(v);
  }
  void restore(util::Buffer& b) {
    for (std::uint64_t& v : learned) v = b.get_u64();
    for (std::uint64_t& v : sent) v = b.get_u64();
    for (std::uint64_t& v : cap) v = b.get_u64();
  }
};

class Strategy {
 public:
  struct Work {
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
    std::uint64_t visits = 0;  // antecedence-graph vertices touched
    sim::Time cpu = 0;
  };

  virtual ~Strategy() = default;
  virtual const char* name() const = 0;

  virtual void attach(EventStore* store, const net::CostModel* cost, int rank,
                      int nranks) {
    store_ = store;
    cost_ = cost;
    rank_ = rank;
    nranks_ = nranks;
    views_.assign(static_cast<std::size_t>(nranks), PeerView{});
    for (PeerView& v : views_) v.init(nranks);
  }

  using DepShadow = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

  /// Selects and serializes the events to piggyback to `dst`; `deps`
  /// receives the events' cross-edge targets in piggyback order.
  virtual Work build(int dst, util::Buffer& out, DepShadow& deps) = 0;
  /// Parses a piggyback received from `src` and merges it into knowledge;
  /// `deps` are the shadowed cross-edge targets (same order as the wire).
  virtual Work absorb(int src, util::Buffer& in, const DepShadow& deps) = 0;
  /// A determinant of this rank was created (already in the store).
  virtual void on_local_event(const ftapi::Determinant& d) { (void)d; }
  /// The Event Logger's stable vector advanced (store already pruned).
  virtual void on_stable(const std::vector<std::uint64_t>& stable) {
    (void)stable;
  }
  /// Peer restarted from a checkpoint whose knowledge vector is `known`.
  virtual void on_peer_restart(int peer, const std::vector<std::uint64_t>& known) {
    views_[static_cast<std::size_t>(peer)].on_restart(known);
  }

  virtual void serialize(util::Buffer& b) const {
    for (const PeerView& v : views_) v.serialize(b);
  }
  virtual void restore(util::Buffer& b) {
    for (PeerView& v : views_) v.restore(b);
  }
  virtual void reset() {
    for (PeerView& v : views_) v.init(nranks_);
  }

  virtual std::size_t graph_vertices() const { return 0; }

 protected:
  /// Returns the emptied scratch that holds the events a build() selects.
  /// There is one per process, shared by every rank and strategy (sweep
  /// workers are forked, so each has its own): it grows to the largest
  /// piggyback once instead of allocating per send, and per-rank copies
  /// would keep a no-EL piggyback's worth of memory resident for each rank.
  static std::vector<ftapi::Determinant>& selected_scratch() {
    thread_local std::vector<ftapi::Determinant> events;
    events.clear();
    return events;
  }

  /// Attaches the shadowed cross edge of the `i`-th event of a piggyback.
  static void attach_dep(ftapi::Determinant& d, const DepShadow& deps,
                         std::size_t i) {
    MPIV_CHECK(i < deps.size(), "dep shadow shorter than piggyback: %zu",
               deps.size());
    d.dep_creator = deps[i].first;
    d.dep_seq = deps[i].second;
  }

  /// Records knowledge implied by a piggyback received from `src`.
  void note_learned(int src, const ftapi::Determinant& d) {
    PeerView& v = views_[static_cast<std::size_t>(src)];
    if (d.seq > v.learned[d.creator]) v.learned[d.creator] = d.seq;
    v.raise_cap(d.creator, d.seq);
  }

  EventStore* store_ = nullptr;
  const net::CostModel* cost_ = nullptr;
  int rank_ = -1;
  int nranks_ = 0;
  std::vector<PeerView> views_;
};

enum class StrategyKind : std::uint8_t { kVcausal, kManetho, kLogOn };

const char* strategy_kind_name(StrategyKind k);
std::unique_ptr<Strategy> make_strategy(StrategyKind k);

}  // namespace mpiv::causal
