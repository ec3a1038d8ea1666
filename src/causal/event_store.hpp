// Per-creator determinant knowledge held by one rank.
//
// Causal logging replicates determinants: besides its own reception events,
// a rank accumulates events created by others (learned from piggybacks) so
// that any crashed process can reassemble its reception history from the
// survivors. Knowledge per creator is (mostly) a prefix of that creator's
// event sequence; events below the Event Logger's stable watermark are
// pruned — that pruning is precisely the EL benefit the paper measures.
//
// A holder's set may contain holes *below another holder's stable point*
// (a sender only piggybacks its unstable suffix, so a receiver can learn
// (10..15] while never seeing 6..10 that are already safely at the EL);
// storage is a sequence-indexed window (util::SeqWindow) whose base is the
// stable watermark and whose slots admit holes, and recovery takes the
// union of the EL prefix and every survivor's ranges — contiguity of that
// union is asserted at the recovery site.
//
// Per creator the store also keeps a `contiguous` watermark, the idiom the
// EL shard's own stores use: every seq at or below it is stable or held,
// and seq contiguous+1 is neither. A piggyback run at or below it is
// therefore already known here, so absorb skips it without a lookup per
// event. It advances on add, is raised to the stable point and advanced in
// set_stable, is recomputed in restore and is zeroed by reset.
#pragma once

#include <cstdint>
#include <vector>

#include "ftapi/determinant.hpp"
#include "util/buffer.hpp"
#include "util/check.hpp"
#include "util/seq_window.hpp"

namespace mpiv::causal {

class EventStore {
 public:
  explicit EventStore(int nranks)
      : per_(static_cast<std::size_t>(nranks)) {}

  int nranks() const { return static_cast<int>(per_.size()); }

  /// Records a determinant. Returns true if it was new.
  bool add(const ftapi::Determinant& d) {
    Per& p = at(d.creator);
    if (d.seq <= p.stable) return false;
    const bool inserted = p.dets.emplace(d.seq, d);
    if (d.seq > p.known) p.known = d.seq;
    if (!inserted) return false;
    ++held_;
    if (d.seq == p.contiguous + 1) advance(p);
    return true;
  }

  /// Highest event sequence of `creator` this rank has heard of.
  std::uint64_t known(std::uint32_t creator) const { return at(creator).known; }
  /// Stable watermark (acknowledged by the Event Logger).
  std::uint64_t stable(std::uint32_t creator) const { return at(creator).stable; }
  /// Every seq of `creator` at or below this is stable or held here.
  std::uint64_t contiguous(std::uint32_t creator) const {
    return at(creator).contiguous;
  }

  const ftapi::Determinant* find(std::uint32_t creator, std::uint64_t seq) const {
    return at(creator).dets.find(seq);
  }

  /// Advances stability and prunes covered determinants (the EL's garbage
  /// collection effect on computing nodes).
  void set_stable(const std::vector<std::uint64_t>& stable) {
    MPIV_CHECK(stable.size() == per_.size(), "stable vector size %zu vs %zu",
               stable.size(), per_.size());
    for (std::size_t c = 0; c < per_.size(); ++c) {
      Per& p = per_[c];
      if (stable[c] <= p.stable) continue;
      p.stable = stable[c];
      p.dets.prune_to(p.stable, [this](const ftapi::Determinant&) { --held_; });
      if (p.contiguous < p.stable) p.contiguous = p.stable;
      advance(p);
    }
  }

  /// All held determinants created by `creator` (for recovery collection).
  void collect(std::uint32_t creator, ftapi::DeterminantList& out) const {
    at(creator).dets.for_each(
        [&out](std::uint64_t, const ftapi::Determinant& d) { out.push_back(d); });
  }

  /// Iterates held determinants of `creator` in (lo, hi], in seq order.
  template <class Fn>
  void for_range(std::uint32_t creator, std::uint64_t lo, std::uint64_t hi,
                 Fn&& fn) const {
    at(creator).dets.for_range(
        lo, hi, [&fn](std::uint64_t, const ftapi::Determinant& d) { fn(d); });
  }

  std::size_t held_count() const { return held_; }

  void serialize(util::Buffer& b) const {
    for (const Per& p : per_) {
      b.put_u64(p.stable);
      b.put_u64(p.known);
      b.put_u32(static_cast<std::uint32_t>(p.dets.size()));
      p.dets.for_each([&b](std::uint64_t, const ftapi::Determinant& d) {
        d.serialize(b);
        b.put_u16(static_cast<std::uint16_t>(
            d.dep_creator == UINT32_MAX ? 0xFFFF : d.dep_creator));
        b.put_u64(d.dep_seq);
      });
    }
  }
  void restore(util::Buffer& b) {
    held_ = 0;
    for (Per& p : per_) {
      p.dets.reset();
      p.stable = b.get_u64();
      p.known = b.get_u64();
      p.dets.prune_to(p.stable);  // base = stable: below-stable adds rejected
      const std::uint32_t n = b.get_u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        ftapi::Determinant d = ftapi::Determinant::deserialize(b);
        const std::uint16_t dc = b.get_u16();
        d.dep_creator = dc == 0xFFFF ? UINT32_MAX : dc;
        d.dep_seq = b.get_u64();
        if (p.dets.emplace(d.seq, d)) ++held_;
      }
      p.contiguous = p.stable;
      advance(p);
    }
  }
  void reset() {
    for (Per& p : per_) {
      p.stable = 0;
      p.known = 0;
      p.contiguous = 0;
      p.dets.reset();
    }
    held_ = 0;
  }

  /// Knowledge vector (per-creator `known`), e.g. for restart clamping.
  std::vector<std::uint64_t> known_vector() const {
    std::vector<std::uint64_t> v(per_.size());
    for (std::size_t c = 0; c < per_.size(); ++c) v[c] = per_[c].known;
    return v;
  }
  std::vector<std::uint64_t> stable_vector() const {
    std::vector<std::uint64_t> v(per_.size());
    for (std::size_t c = 0; c < per_.size(); ++c) v[c] = per_[c].stable;
    return v;
  }

 private:
  struct Per {
    std::uint64_t stable = 0;
    std::uint64_t known = 0;
    std::uint64_t contiguous = 0;
    util::SeqWindow<ftapi::Determinant> dets;
  };
  static void advance(Per& p) {
    while (p.dets.contains(p.contiguous + 1)) ++p.contiguous;
  }
  Per& at(std::uint32_t c) {
    MPIV_CHECK(c < per_.size(), "bad creator %u", c);
    return per_[c];
  }
  const Per& at(std::uint32_t c) const {
    MPIV_CHECK(c < per_.size(), "bad creator %u", c);
    return per_[c];
  }
  std::vector<Per> per_;
  std::size_t held_ = 0;  // total occupied slots across creators (O(1) stat)
};

}  // namespace mpiv::causal
