// Per-rank structured trace lanes — the debugging instrument for replay.
//
// Every rank (plus each Event Logger shard and the fault engine) owns a
// bounded lane of POD records describing the events that determine an
// execution: sends, reception matches, determinant creations, piggybacks,
// checkpoints, EL acks, faults and recovery phases. A lane grows on demand
// up to its capacity and then wraps as a ring. Capture is a single record
// append stamped with the engine clock and never schedules
// anything, so a traced run is event-for-event identical to an untraced
// one (tests/test_determinism.cpp pins the goldens both ways); with
// tracing disabled every hook is one null-pointer test.
//
// A dump merge-sorts all lanes by virtual timestamp into one text stream
// (emitted alongside the scenario JSON when `trace.dir` is set); the
// stream parses back losslessly, which is what `mpiv_trace` and the
// replay-equivalence harness consume: aligning a faulty run's stream with
// its `compare_reference` twin localizes a wrong replay to the exact
// record instead of a final checksum mismatch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace mpiv::trace {

enum class Kind : std::uint8_t {
  kSend = 0,     // app message left the rank        seq=ssn  peer=dst  aux=tag
  kRecvMatch,    // reception matched                seq=rsn  peer=src  aux=ssn
  kDeterminant,  // determinant created/stored       seq=rsn  peer=dep/creator
  kPiggyback,    // non-empty piggyback attached     seq=ssn  peer=dst  aux=events
  kCkpt,         // checkpoint transaction committed seq=version
  kElAck,        // EL stable-clock ack              seq=own stable watermark
  kFault,        // a failure struck (code = FaultCode)
  kRecovery,     // a recovery phase mark (code = PhaseCode)
};
const char* kind_name(Kind k);
bool parse_kind(const std::string& name, Kind* out);

/// `code` values of kFault records.
enum FaultCode : std::uint8_t {
  kRankCrash = 1,
  kDaemonCrash,
  kElCrash,
  kElOutage,
  kCkptOutage,
  kLinkLatency,
  kLinkDrop,
  kPartition,
  kNodeCrash,    // network-level node epoch bump (any node id)
  kNodeRestart,
  kElSuspect,      // shard behind a cut declared suspect (peer = shard,
                   // seq = cut clients, aux = successor shard)
  kPartitionHeal,  // service cut healed; reconciliation starts
};

/// `code` values of kRecovery records.
enum PhaseCode : std::uint8_t {
  kPhaseRestart = 1,  // new incarnation launched
  kPhaseImage,        // checkpoint image fetched + state restored
  kPhaseCollect,      // replay set assembled (seq = determinants to replay)
  kPhaseReplayDone,   // forced replay drained: execution live again
  kPhaseElFailover,   // home shard re-homed (peer = dead shard, aux = successor)
  kPhaseDaemonUp,     // respawned daemon serving again (seq = drained frames)
  kPhaseLogMounted,   // successor shard mounted a dead shard's log
  kPhaseReconcile,    // split-brain heal merged two live logs (peer = stale
                      // shard, seq = records merged, aux = duplicates dropped)
  kPhaseDupDrop,      // a duplicate submission dropped during reconciliation
                      // (peer = creator rank, seq = duplicate seq)
  kPhasePromote,      // replica shadow promoted to primary (seq = held
                      // frames drained to the new incarnation)
  kPhaseRevoke,       // ULFM revoke notice reached this survivor
                      // (peer = victim rank)
  kPhaseRepairDone,   // shrunk communicator live (peer = victim,
                      // seq = surviving communicator size)
};

/// One trace record. POD on purpose: capture is a struct copy into the
/// lane, nothing more. `t` orders the merged stream; the meaning of
/// `code`/`peer`/`seq`/`aux`/`digest` depends on `kind` (see above).
struct Record {
  sim::Time t = 0;
  Kind kind = Kind::kSend;
  std::uint8_t code = 0;
  std::int32_t peer = -1;
  std::uint64_t seq = 0;
  std::uint64_t aux = 0;
  std::uint64_t digest = 0;

  /// Record identity for replay-equivalence: everything but the wall
  /// timestamp (a recovered run re-creates the same records later).
  bool same_content(const Record& o) const {
    return kind == o.kind && code == o.code && peer == o.peer &&
           seq == o.seq && aux == o.aux && digest == o.digest;
  }
};

/// Trace knobs (ClusterConfig::trace, the `[trace]` scenario section).
struct Config {
  bool enabled = false;
  std::uint32_t capacity = 8192;  // retained records per lane
};

/// One bounded lane. Appends are amortized O(1) struct copies. Storage
/// grows with the records actually captured (a short run never pays for
/// the whole capacity); once `capacity` records are held the lane wraps,
/// the oldest records are overwritten and `dropped()` reports how many
/// (the divergence comparator falls back to suffix alignment then).
class Lane {
 public:
  Lane(std::string name, std::size_t capacity)
      : name_(std::move(name)), capacity_(capacity) {}

  /// Out of line, so each hook site's inlined capture stays a null test
  /// and a call (the hot paths mostly run untraced).
  void push(const Record& r);

  const std::string& name() const { return name_; }
  std::uint64_t total() const { return total_; }
  std::size_t retained() const { return ring_.size(); }
  std::uint64_t dropped() const { return total_ - retained(); }

  /// Visits retained records oldest to newest (engine time is monotone, so
  /// this is also nondecreasing-timestamp order).
  template <class Fn>
  void for_each(Fn&& fn) const {
    const std::uint64_t start = total_ - retained();
    for (std::uint64_t i = start; i < total_; ++i) {
      fn(ring_[static_cast<std::size_t>(i % capacity_)]);
    }
  }

 private:
  std::string name_;
  std::size_t capacity_;
  std::vector<Record> ring_;  // record i lives at i % capacity_
  std::uint64_t total_ = 0;
};

/// The per-cluster registry: one lane per rank ("r<k>"), one per EL shard
/// ("el<s>"), one for the fault engine / fabric ("engine"). Owned by
/// runtime::Cluster and handed out as raw Lane pointers, stable for the
/// cluster's lifetime.
class TraceSink {
 public:
  TraceSink(int nranks, int el_shards, std::uint32_t capacity);

  Lane* rank_lane(int r) { return &lanes_[static_cast<std::size_t>(r)]; }
  Lane* el_lane(int shard) {
    return &lanes_[static_cast<std::size_t>(nranks_ + shard)];
  }
  Lane* engine_lane() {
    return &lanes_[static_cast<std::size_t>(nranks_ + el_shards_)];
  }
  int nranks() const { return nranks_; }
  const std::vector<Lane>& lanes() const { return lanes_; }

  /// Merge-sorts every lane by (timestamp, lane index, lane order) into one
  /// deterministic text stream (format parsed back by parse_stream).
  std::string dump() const;

 private:
  int nranks_;
  int el_shards_;
  std::vector<Lane> lanes_;
};

/// Capture helper used at every hook site: one branch when disabled.
inline void emit(Lane* lane, sim::Time t, Kind kind, std::uint8_t code,
                 std::int32_t peer, std::uint64_t seq, std::uint64_t aux = 0,
                 std::uint64_t digest = 0) {
  if (lane == nullptr) return;
  lane->push(Record{t, kind, code, peer, seq, aux, digest});
}

// --- parsed stream (the mpiv_trace / test-harness side) ---------------------

struct StreamRecord {
  std::string lane;  // "r2", "el0", "engine"
  Record rec;
};

struct LaneInfo {
  std::string name;
  std::uint64_t total = 0;
  std::uint64_t dropped = 0;
};

struct Stream {
  std::vector<LaneInfo> lanes;
  std::vector<StreamRecord> records;  // merged dump order

  const LaneInfo* lane_info(const std::string& name) const;
  /// Records of one lane, in stream (= lane) order.
  std::vector<Record> lane_records(const std::string& name) const;
};

/// Parses a dump() stream back. Throws std::runtime_error with a line
/// number on malformed input.
Stream parse_stream(const std::string& text);

/// One-line human rendering of a record ("r2 recv-match seq=57 peer=0 ...").
std::string format_record(const std::string& lane, const Record& r);

}  // namespace mpiv::trace
