// Sequence-indexed sliding-window container for determinant hot paths.
//
// Every per-creator store in the causal protocols (EventStore,
// AntecedenceGraph, SenderLog, the Event Logger shards) keys entries by a
// monotonically growing sequence number, holds a suffix of that sequence
// (everything below a stability watermark is pruned), and may contain holes
// below *another* holder's stable point (a sender only piggybacks its
// unstable suffix — see event_store.hpp). Those access patterns — append
// near the top, point lookup, prune a prefix — were served by
// std::map<uint64_t, T> with O(log n) node-allocating operations; this
// container replaces them with a power-of-two ring of slots over a base
// watermark:
//
//   [base+1, base+capacity]  -> slot ((seq-1) & (capacity-1)), occupancy bit
//   seq <= base              -> pruned (never stored again)
//   emplace / find / contains-> O(1), no allocation
//   prune_to(b)              -> O(slots dropped), clears occupancy bits
//   growth                   -> amortized O(1), doubles the ring in place
//
// Occupancy lives in a bitmap beside the value array (bit i of word i/64
// for slot i), so a slot costs sizeof(T) and no padded flag: holes are
// clear bits, not wider slots. The ring never has fewer than 16 slots, so
// a small window's bitmap is one partially used word.
//
// Iteration is in ascending sequence order (the order std::map gave), so
// serialization and recovery wire formats are byte-identical to the map
//-backed originals.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "util/check.hpp"

namespace mpiv::util {

template <class T>
class SeqWindow {
 public:
  SeqWindow() = default;

  /// Watermark: every seq <= base() has been pruned and is rejected.
  std::uint64_t base() const { return base_; }
  /// Number of occupied slots.
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Highest occupied sequence (0 when empty). Only prefixes are ever
  /// removed, so the top admission is occupied whenever anything is.
  std::uint64_t max_seq() const { return count_ > 0 ? top_ : 0; }

  bool contains(std::uint64_t seq) const { return find(seq) != nullptr; }

  const T* find(std::uint64_t seq) const {
    if (seq <= base_ || seq > top_) return nullptr;
    const std::size_t i = index(seq);
    return occupied(i) ? &values_[i] : nullptr;
  }
  T* find(std::uint64_t seq) {
    return const_cast<T*>(static_cast<const SeqWindow*>(this)->find(seq));
  }

  /// Inserts value at `seq`. Returns false (and leaves the window unchanged)
  /// if seq is at or below the base watermark or already occupied.
  template <class... Args>
  bool emplace(std::uint64_t seq, Args&&... args) {
    if (seq <= base_) return false;
    grow_to(seq);
    const std::size_t i = index(seq);
    if (seq <= top_ && occupied(i)) return false;
    if (seq > top_) top_ = seq;
    bits_[i >> 6] |= bit(i);
    values_[i] = T{std::forward<Args>(args)...};
    ++count_;
    return true;
  }

  /// Advances the base watermark to `new_base`, destroying every entry at
  /// or below it. No-op if new_base <= base(). `on_drop` sees each dropped
  /// value in ascending sequence order (for byte accounting).
  template <class Fn>
  void prune_to(std::uint64_t new_base, Fn&& on_drop) {
    if (new_base <= base_) return;
    const std::uint64_t hi = top_ < new_base ? top_ : new_base;
    for (std::uint64_t seq = base_ + 1; seq <= hi; ++seq) {
      const std::size_t i = index(seq);
      if (!occupied(i)) continue;
      on_drop(static_cast<const T&>(values_[i]));
      bits_[i >> 6] &= ~bit(i);
      release(values_[i]);
      --count_;
    }
    base_ = new_base;
    if (top_ < base_) top_ = base_;
  }
  void prune_to(std::uint64_t new_base) {
    prune_to(new_base, [](const T&) {});
  }

  /// Calls fn(seq, value) for each occupied slot with lo < seq <= hi,
  /// ascending.
  template <class Fn>
  void for_range(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    std::uint64_t seq = lo > base_ ? lo + 1 : base_ + 1;
    const std::uint64_t top = hi < top_ ? hi : top_;
    for (; seq <= top; ++seq) {
      const std::size_t i = index(seq);
      if (occupied(i)) fn(seq, values_[i]);
    }
  }

  /// Calls fn(seq, value) for every occupied slot, ascending.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for_range(0, top_, std::forward<Fn>(fn));
  }

  /// Drops all entries and resets the base watermark to zero.
  void reset() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (std::size_t i = 0; i < cap_; ++i) {
        if (occupied(i)) release(values_[i]);
      }
    }
    std::fill_n(bits_.get(), words_for(cap_), std::uint64_t{0});
    base_ = top_ = 0;
    count_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  static std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << (i & 63);
  }
  bool occupied(std::size_t i) const { return (bits_[i >> 6] & bit(i)) != 0; }
  static std::size_t words_for(std::size_t cap) { return (cap + 63) / 64; }

  /// A vacated slot keeps no resources; plain data is left as it is, since
  /// only a set bit makes a slot readable and emplace overwrites it.
  static void release(T& v) {
    if constexpr (!std::is_trivially_destructible_v<T>) v = T{};
  }

  std::size_t index(std::uint64_t seq) const {
    // capacity is a power of two; seq-1 keeps slot 0 for seq == 1.
    return static_cast<std::size_t>((seq - 1) & (cap_ - 1));
  }

  void grow_to(std::uint64_t seq) {
    MPIV_DCHECK(seq > base_, "grow below base");
    const std::uint64_t needed = seq - base_;
    if (cap_ != 0 && needed <= cap_) return;
    std::size_t cap = cap_ == 0 ? kMinCapacity : cap_ * 2;
    while (cap < needed) cap *= 2;
    auto next = std::make_unique<T[]>(cap);
    auto next_bits = std::make_unique<std::uint64_t[]>(words_for(cap));
    // Re-home live slots: positions depend on capacity, so rehash in order.
    for (std::uint64_t s = base_ + 1; s <= top_; ++s) {
      const std::size_t i = index(s);
      if (!occupied(i)) continue;
      const auto j = static_cast<std::size_t>((s - 1) & (cap - 1));
      next[j] = std::move(values_[i]);
      next_bits[j >> 6] |= bit(j);
    }
    values_ = std::move(next);
    bits_ = std::move(next_bits);
    cap_ = cap;
  }

  // Two bare arrays and one capacity rather than two vectors: every rank
  // holds a window per creator in each of its stores, so the empty
  // window's footprint is paid nranks^2 times per cluster.
  std::unique_ptr<T[]> values_;
  std::unique_ptr<std::uint64_t[]> bits_;  // occupancy, one bit per slot
  std::size_t cap_ = 0;     // slots in values_: 0 or a power of two >= 16
  std::uint64_t base_ = 0;  // all seq <= base_ are pruned
  std::uint64_t top_ = 0;   // highest seq ever admitted (window extent)
  std::size_t count_ = 0;
};

}  // namespace mpiv::util
