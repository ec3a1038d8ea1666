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
// At the end of a run the sink's lanes are packed into a Capture: an
// immutable, delta/varint-encoded copy of every retained record, about a
// third of the lanes' 40-byte records, decoded one lane at a time only
// when someone reads it. A Capture is the only container of a finished
// trace. Runs keep captures, not text: `render` merge-sorts a capture by
// virtual timestamp into the `# mpiv-trace v1` text stream only for a
// reader of text (a `trace.dir` file, `TraceSink::dump()`, `Dump::text()`),
// and `parse_stream` reads that text back into the Capture it was rendered
// from. `mpiv_trace` and the replay-equivalence harness read captures
// lane by lane: aligning each rank lane of a faulty run with its
// `compare_reference` twin's localizes a wrong replay to the exact record
// instead of a final checksum mismatch.
#pragma once

#include <cstdint>
#include <memory>
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
/// the whole capacity) and never past `capacity` slots; once `capacity`
/// records are held the lane wraps, the oldest records are overwritten
/// and `dropped()` reports how many (the divergence comparator falls back
/// to suffix alignment then).
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
  /// Record slots allocated; at most the capacity.
  std::size_t allocated() const { return ring_.capacity(); }

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

/// One lane's header: its name and how many records it captured and lost.
struct LaneInfo {
  std::string name;
  std::uint64_t total = 0;
  std::uint64_t dropped = 0;

  bool operator==(const LaneInfo&) const = default;
};

/// An immutable, packed copy of a sink's lanes: each lane's retained
/// records, oldest first, encoded lane after lane into one exact-size byte
/// vector. Per record: a header byte (kind, whether code and digest are
/// nonzero), the code byte if nonzero, zigzag varints of t minus the
/// lane's previous t, of seq minus the lane's previous seq of the same
/// kind and of peer, a varint of aux, and the 8 digest bytes if nonzero.
/// Every Record round-trips exactly. Readers decode through a Cursor; no
/// unpacked copy is kept. The packing is a pure function of the lanes, so
/// equal captures hold equal lane headers and records.
class Capture {
  /// A record's seq is a delta against the lane's previous seq in slot
  /// `kind % kSeqSlots`; any fixed mapping is exact, this one gives every
  /// Kind its own base.
  static constexpr std::size_t kSeqSlots = 8;

 public:
  /// Packs the lanes' retained records (what TraceSink::capture() does).
  explicit Capture(const std::vector<Lane>& lanes);
  /// Packs parsed lanes: `records[i]` holds lane i's records, oldest first.
  Capture(std::vector<LaneInfo> lanes,
          const std::vector<std::vector<Record>>& records);

  bool operator==(const Capture&) const = default;

  /// Lane headers, in sink order (timestamp ties break on it).
  const std::vector<LaneInfo>& lanes() const { return lanes_; }
  /// Retained records over all lanes.
  std::uint64_t records() const { return records_; }
  /// Size of the packed records in bytes.
  std::size_t packed_bytes() const { return bytes_.size(); }

  /// Decodes one lane's records, oldest first. Valid while its Capture is.
  class Cursor {
   public:
    bool done() const { return done_; }
    /// The current record; only meaningful while !done().
    const Record& record() const { return rec_; }
    void advance();

   private:
    friend class Capture;
    Cursor(const std::uint8_t* begin, const std::uint8_t* end);

    const std::uint8_t* p_;
    const std::uint8_t* end_;
    Record rec_;  // also the delta base: rec_.t is the previous t
    bool done_ = false;
    std::uint64_t kind_seq_[kSeqSlots] = {};  // previous seq per kind slot
  };
  Cursor cursor(std::size_t lane) const;
  /// One lane's records, oldest first.
  std::vector<Record> lane_records(std::size_t lane) const;

 private:
  /// The one encoder behind both constructors: with lanes_ and records_
  /// set, packs the records that visit_lane(i, put) passes to put(record)
  /// for each lane i.
  template <class VisitLane>
  void pack(VisitLane&& visit_lane);

  std::vector<LaneInfo> lanes_;
  /// Lane i's bytes are [lane_ends_[i - 1], lane_ends_[i]) (from 0 for i = 0).
  std::vector<std::size_t> lane_ends_;
  std::vector<std::uint8_t> bytes_;
  std::uint64_t records_ = 0;
};

/// Visits a capture's records in stream order as fn(lane index, record):
/// k-way merged by (timestamp, lane index, lane order). Lane index breaks
/// timestamp ties deterministically; within a lane the capture order is
/// the record order.
template <class Fn>
void for_each_record(const Capture& capture, Fn&& fn) {
  std::vector<Capture::Cursor> lanes;
  lanes.reserve(capture.lanes().size());
  for (std::size_t li = 0; li < capture.lanes().size(); ++li) {
    lanes.push_back(capture.cursor(li));
  }
  for (;;) {
    std::size_t best = lanes.size();
    for (std::size_t li = 0; li < lanes.size(); ++li) {
      if (lanes[li].done()) continue;
      if (best == lanes.size() ||
          lanes[li].record().t < lanes[best].record().t) {
        best = li;
      }
    }
    if (best == lanes.size()) return;
    fn(best, lanes[best].record());
    lanes[best].advance();
  }
}

/// The `# mpiv-trace v1` text of a capture: lane headers, then every record
/// in stream order (for_each_record). parse_stream reads it back.
std::string render(const Capture& capture);

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

  /// Packs every lane's retained records into a capture.
  Capture capture() const { return Capture(lanes_); }

  /// render(capture()): the deterministic text stream.
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

/// A run's shared capture; empty when tracing was off. Copies share the
/// capture, and the text is rendered only when a reader asks for it.
class Dump {
 public:
  Dump() = default;
  explicit Dump(std::shared_ptr<const Capture> capture)
      : capture_(std::move(capture)) {}

  bool empty() const { return capture_ == nullptr; }
  const std::shared_ptr<const Capture>& capture() const { return capture_; }
  /// Retained records (the non-comment lines of text()).
  std::uint64_t records() const {
    return empty() ? 0 : capture_->records();
  }
  /// The rendered stream ("" when empty), rendered on first use and cached.
  const std::string& text() const;
  std::string::const_iterator begin() const { return text().begin(); }
  std::string::const_iterator end() const { return text().end(); }

 private:
  std::shared_ptr<const Capture> capture_;
  mutable std::shared_ptr<const std::string> text_;
};

/// Parses a rendered stream back into the capture it was rendered from:
/// parse_stream(render(c)) == c. Throws std::runtime_error with a line
/// number on malformed input: a first non-empty line other than
/// `# mpiv-trace v1` or a repeated one, a field that is not a number in
/// its type's range, extra fields, a record on a lane with no `# lane`
/// header, a repeated lane header, a header whose dropped exceeds its
/// total, or a lane holding other than total - dropped records.
Capture parse_stream(const std::string& text);

/// One-line human rendering of a record ("r2 recv-match seq=57 peer=0 ...").
std::string format_record(const std::string& lane, const Record& r);

}  // namespace mpiv::trace
