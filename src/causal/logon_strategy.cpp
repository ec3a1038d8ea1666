#include "causal/logon_strategy.hpp"

#include "causal/wire.hpp"

namespace mpiv::causal {

namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

// Kahn's algorithm over the in-set dependency edges: process order
// (creator, seq-1) -> (creator, seq) and cross edge dep -> event. Edges are
// laid out in ascending target order, the process edge before the cross
// edge, and the ready list is processed FIFO, so the order is a function
// of the input sequence alone.
class CausalOrderer {
 public:
  /// Returns the positions of `events` in causal order.
  const std::vector<std::uint32_t>& order(
      const std::vector<ftapi::Determinant>& events) {
    MPIV_CHECK(events.size() <= INT32_MAX, "too many events to order: %zu",
               events.size());
    const auto n = static_cast<std::uint32_t>(events.size());
    index(events);
    proc_.resize(n);
    cross_.resize(n);
    indegree_.resize(n);
    // offsets_[s + 2] counts s's out-edges; after the prefix sum,
    // offsets_[s + 1] is the fill cursor of s, and once filled
    // [offsets_[s], offsets_[s + 1]) is s's adjacency.
    offsets_.assign(static_cast<std::size_t>(n) + 2, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      const ftapi::Determinant& d = events[i];
      proc_[i] = d.seq > 1 ? find(events, d.creator, d.seq - 1) : kNone;
      cross_[i] = d.dep_creator != UINT32_MAX && d.dep_seq > 0
                      ? find(events, d.dep_creator, d.dep_seq)
                      : kNone;
      indegree_[i] = 0;
      for (const std::uint32_t from : {proc_[i], cross_[i]}) {
        if (from == kNone) continue;
        ++offsets_[from + 2];
        ++indegree_[i];
      }
    }
    for (std::size_t s = 2; s < offsets_.size(); ++s) {
      offsets_[s] += offsets_[s - 1];
    }
    adj_.resize(offsets_.back());
    for (std::uint32_t i = 0; i < n; ++i) {
      for (const std::uint32_t from : {proc_[i], cross_[i]}) {
        if (from != kNone) adj_[offsets_[from + 1]++] = i;
      }
    }

    order_.resize(n);
    std::uint32_t tail = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (indegree_[i] == 0) order_[tail++] = i;
    }
    for (std::uint32_t head = 0; head < tail; ++head) {
      const std::uint32_t i = order_[head];
      for (std::uint32_t e = offsets_[i]; e < offsets_[i + 1]; ++e) {
        const std::uint32_t j = adj_[e];
        if (--indegree_[j] == 0) order_[tail++] = j;
      }
    }
    MPIV_CHECK(tail == n, "cycle in causal order: %u of %u emitted", tail, n);
    return order_;
  }

 private:
  // Multiplicative hash: runs of consecutive seqs spread evenly, and each
  // creator's run starts at an unrelated offset.
  std::size_t home(std::uint32_t creator, std::uint64_t seq) const {
    const std::uint64_t key = seq + creator * 0x632BE59BD9B4E019ULL;
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  // Open addressing with linear probing, at most half full; a slot holds a
  // position in `events` (kNone: empty) and the key is read from there.
  void index(const std::vector<ftapi::Determinant>& events) {
    std::size_t cap = 16;
    int bits = 4;
    while (cap < 2 * events.size()) {
      cap <<= 1;
      ++bits;
    }
    shift_ = 64 - bits;
    mask_ = cap - 1;
    slots_.assign(cap, kNone);
    for (std::uint32_t i = 0; i < events.size(); ++i) {
      const ftapi::Determinant& d = events[i];
      std::size_t h = home(d.creator, d.seq);
      while (slots_[h] != kNone && (events[slots_[h]].creator != d.creator ||
                                    events[slots_[h]].seq != d.seq)) {
        h = (h + 1) & mask_;
      }
      slots_[h] = i;  // a repeated key keeps its last position
    }
  }

  std::uint32_t find(const std::vector<ftapi::Determinant>& events,
                     std::uint32_t creator, std::uint64_t seq) const {
    for (std::size_t h = home(creator, seq);; h = (h + 1) & mask_) {
      const std::uint32_t pos = slots_[h];
      if (pos == kNone) return kNone;  // antecedent outside the set
      if (events[pos].creator == creator && events[pos].seq == seq) return pos;
    }
  }

  std::vector<std::uint32_t> slots_;
  int shift_ = 0;
  std::size_t mask_ = 0;
  std::vector<std::uint32_t> proc_, cross_, indegree_, offsets_, adj_, order_;
};

// One orderer per process, not per rank, for the reason selected_scratch()
// gives: a 32-rank no-EL run piggybacks ~19k events, and per-rank arrays of
// that size would add tens of MB of resident memory.
thread_local CausalOrderer t_orderer;

}  // namespace

std::vector<ftapi::Determinant> LogOnStrategy::causal_order(
    std::vector<ftapi::Determinant> events) {
  std::vector<ftapi::Determinant> ordered;
  ordered.reserve(events.size());
  for (const std::uint32_t i : t_orderer.order(events)) {
    ordered.push_back(events[i]);
  }
  return ordered;
}

Strategy::Work LogOnStrategy::build(int dst, util::Buffer& out,
                                    DepShadow& deps) {
  Work w;
  std::vector<ftapi::Determinant>& events = selected_scratch();
  w.visits = select_unknown(dst, events);
  const std::vector<std::uint32_t>& order = t_orderer.order(events);
  deps.reserve(deps.size() + order.size());
  for (const std::uint32_t i : order) {
    deps.emplace_back(events[i].dep_creator, events[i].dep_seq);
  }
  wire::plain_serialize(events, order, out);
  w.events = events.size();
  w.bytes = out.size();
  w.cpu = w.visits * cost_->graph_visit +
          static_cast<sim::Time>(events.size()) *
              (cost_->ev_serialize + cost_->logon_reorder);
  return w;
}

Strategy::Work LogOnStrategy::absorb(int src, util::Buffer& in,
                                     const DepShadow& deps) {
  Work w;
  std::size_t i = 0;
  const std::size_t n = wire::plain_decode(in, [&](ftapi::Determinant& d) {
    // An event at or below the contiguous watermark is already held (or
    // stable): only the knowledge it carries is new.
    if (d.seq <= store_->contiguous(d.creator)) {
      ++i;
      note_learned(src, d);
      return;
    }
    attach_dep(d, deps, i++);
    merge(src, d);
  });
  MPIV_CHECK(deps.size() == n, "dep shadow size %zu vs %zu", deps.size(), n);
  w.events = n;
  // Single-pass merge: the partial order guarantees antecedents precede
  // their descendants, so no re-traversal is needed.
  w.cpu = static_cast<sim::Time>(n) *
          (cost_->ev_deserialize + cost_->logon_fastmerge);
  return w;
}

}  // namespace mpiv::causal
