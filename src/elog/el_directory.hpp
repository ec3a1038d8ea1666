// Dynamic rank -> Event Logger shard routing.
//
// The static NodeLayout places EL shard *nodes*; this directory is the only
// place that says which shard serves which rank. It starts round-robin over
// the serving shards (standby shards start cold, serving nobody). When a
// shard dies the fault engine re-homes its ranks onto a successor here, and
// every lookup — determinant submission, recovery fetches, checkpoint GC
// notices, a shard's own ownership test — follows automatically. Header is
// dependency-free so every layer can share it.
#pragma once

#include <cstdint>
#include <vector>

namespace mpiv::elog {

class ElDirectory {
 public:
  /// `serving` shards take ranks round-robin; shards in
  /// [serving, serving + standby) start cold.
  void init(int nranks, int serving, int standby) {
    shard_of_.resize(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      shard_of_[static_cast<std::size_t>(r)] = serving > 0 ? r % serving : 0;
    }
    const int total = serving + standby;
    dead_.assign(static_cast<std::size_t>(total), 0);
    abandoned_.assign(static_cast<std::size_t>(total), 0);
    cold_.assign(static_cast<std::size_t>(total), 0);
    for (int s = serving; s < total; ++s) cold_[static_cast<std::size_t>(s)] = 1;
  }

  int shard_of(int rank) const {
    return shard_of_[static_cast<std::size_t>(rank)];
  }
  int total_shards() const { return static_cast<int>(dead_.size()); }
  bool dead(int shard) const { return dead_[static_cast<std::size_t>(shard)] != 0; }
  /// True when the shard died and no successor took over its ranks: the
  /// cluster is permanently in the no-EL regime for those ranks.
  bool abandoned(int shard) const {
    return abandoned_[static_cast<std::size_t>(shard)] != 0;
  }

  void mark_dead(int shard) { dead_[static_cast<std::size_t>(shard)] = 1; }
  void mark_alive(int shard) { dead_[static_cast<std::size_t>(shard)] = 0; }
  void mark_abandoned(int shard) {
    abandoned_[static_cast<std::size_t>(shard)] = 1;
  }

  std::vector<int> ranks_on(int shard) const {
    std::vector<int> out;
    for (std::size_t r = 0; r < shard_of_.size(); ++r) {
      if (shard_of_[r] == shard) out.push_back(static_cast<int>(r));
    }
    return out;
  }

  /// Picks the failover target for `dead_shard`: with `prefer_standby`, the
  /// lowest cold live standby if any; otherwise (or as fallback) the lowest
  /// live shard that is not the dead one. Returns -1 when nothing survives.
  int pick_successor(int dead_shard, bool prefer_standby) const {
    if (prefer_standby) {
      for (int s = 0; s < total_shards(); ++s) {
        if (s != dead_shard && !dead(s) && cold_[static_cast<std::size_t>(s)]) {
          return s;
        }
      }
    }
    for (int s = 0; s < total_shards(); ++s) {
      if (s != dead_shard && !dead(s) && !cold_[static_cast<std::size_t>(s)]) {
        return s;
      }
    }
    // Last resort: any live shard (a cold standby even when reassign was
    // requested beats abandoning the ranks).
    for (int s = 0; s < total_shards(); ++s) {
      if (s != dead_shard && !dead(s)) return s;
    }
    return -1;
  }

  /// Re-homes every rank of `dead_shard` onto `successor`; the successor
  /// starts (or keeps) serving. Returns the moved ranks.
  std::vector<int> rehome(int dead_shard, int successor) {
    std::vector<int> moved;
    for (std::size_t r = 0; r < shard_of_.size(); ++r) {
      if (shard_of_[r] == dead_shard) {
        shard_of_[r] = successor;
        moved.push_back(static_cast<int>(r));
      }
    }
    cold_[static_cast<std::size_t>(successor)] = 0;
    return moved;
  }

  /// Partial re-home for suspected (not dead) shards: moves only `ranks`
  /// onto `successor`, leaving the suspect serving whatever clients still
  /// reach it — the split-brain configuration a heal later reconciles.
  void rehome_ranks(const std::vector<int>& ranks, int successor) {
    for (int r : ranks) shard_of_[static_cast<std::size_t>(r)] = successor;
    cold_[static_cast<std::size_t>(successor)] = 0;
  }

  /// Directory epoch: bumped on every suspected failover. Acks stamped with
  /// an older epoch by a shard that no longer serves the rank are fenced by
  /// the client, so nobody prunes against a minority-side watermark.
  std::uint64_t epoch() const { return epoch_; }
  void bump_epoch() { ++epoch_; }

 private:
  std::uint64_t epoch_ = 0;
  std::vector<int> shard_of_;
  std::vector<char> dead_;
  std::vector<char> abandoned_;
  std::vector<char> cold_;
};

}  // namespace mpiv::elog
