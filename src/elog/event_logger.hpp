// The Event Logger (paper §IV-B.4): a single-threaded reliable server that
// stores reception determinants and acknowledges with the stable-clock
// vector — "the last event stored for each process".
//
// It is deliberately a single select-loop service with a per-event service
// cost and one 100 Mb/s NIC: when every rank streams determinants at it
// (LU, 16 ranks), its ingress and service queue saturate, acks lag, nodes
// prune later and piggybacks grow — the bottleneck the paper observes and
// proposes distributing in future work.
//
// Failure semantics (fault engine): the determinant log is on stable
// storage, the *service* is not. crash_service() models the paper's §VI
// single-point-of-failure concern — queued-but-unserviced records are lost
// (clients never see an ack and keep them piggybackable), acks stop, and a
// successor shard can later mount_log() the dead shard's committed records
// and take over its ranks through the ElDirectory.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "elog/el_directory.hpp"
#include "ftapi/determinant.hpp"
#include "ftapi/services.hpp"
#include "ftapi/stats.hpp"
#include "mpi/rank_runtime.hpp"
#include "net/service_port.hpp"
#include "trace/trace.hpp"
#include "util/seq_window.hpp"

namespace mpiv::elog {

class EventLogger {
 public:
  /// `shard` selects which subset of ranks this instance serves (paper §VI:
  /// "assigning a subset of the nodes to one Event Logger"). With more than
  /// one shard, each periodically multicasts its local stable-clock array
  /// to the others so that every ack can still carry the global view.
  /// `dir` says which ranks the shard owns (live routing, failover
  /// included); `obs` receives store-count events for trigger-based fault
  /// injection.
  EventLogger(net::Network& net, const ftapi::NodeLayout& layout,
              ftapi::ElStats* stats, int shard, const ElDirectory& dir,
              ftapi::FaultObserver& obs)
      : net_(net),
        layout_(layout),
        stats_(stats),
        shard_(shard),
        dir_(dir),
        obs_(obs),
        port_(net, layout.el_node(shard)),
        per_(static_cast<std::size_t>(layout.nranks)),
        dup_by_rank_(static_cast<std::size_t>(layout.nranks), 0),
        reconciled_by_rank_(static_cast<std::size_t>(layout.nranks), 0),
        deferred_(static_cast<std::size_t>(layout.nranks), 0) {
    net.attach(layout.el_node(shard),
               [this](net::Message&& m) { on_frame(std::move(m)); });
    if (layout_.el_count > 1) arm_exchange();
  }

  /// Period of the shard-to-shard stable-clock multicast (paper §VI).
  static constexpr sim::Time kExchangeInterval = 5 * sim::kMillisecond;

  /// Stable watermark for `creator`: every determinant with seq <= watermark
  /// is either stored (here or at the creator's shard) or covered by a
  /// checkpoint image.
  std::uint64_t stable(std::uint32_t creator) const {
    return per_[creator].contiguous;
  }
  int shard() const { return shard_; }
  /// This shard's trace lane (null = tracing off).
  void set_trace(trace::Lane* lane) { trace_ = lane; }
  bool owns_rank(int r) const { return dir_.shard_of(r) == shard_; }
  bool service_down() const { return down_; }
  std::size_t stored_count() const {
    std::size_t n = 0;
    for (const Per& p : per_) n += p.dets.size();
    return n;
  }
  /// Determinant store operations performed (trigger-threshold counter).
  std::uint64_t stored_ops() const { return stored_ops_; }
  /// Submissions accepted but not yet acked (metrics queue-depth probe;
  /// peak is tracked separately in ElStats::peak_queue).
  std::uint32_t queue_depth() const { return pending_; }
  /// Submissions from `creator` this shard dropped as duplicates of records
  /// it already held (resubmission after a failover, or a heal-time merge).
  std::uint64_t dup_submissions(int creator) const {
    return dup_by_rank_[static_cast<std::size_t>(creator)];
  }
  /// Records of `creator` a split-brain heal merged over from the stale
  /// shard's live log.
  std::uint64_t reconciled_records(int creator) const {
    return reconciled_by_rank_[static_cast<std::size_t>(creator)];
  }

  /// Directory epoch this shard believes is current; stamped into every
  /// ack so clients can fence watermarks from a superseded home. A shard
  /// behind a cut keeps its stale view — epochs propagate by assignment at
  /// failover time, never through the cut.
  void set_dir_epoch(std::uint64_t epoch) { dir_epoch_ = epoch; }
  std::uint64_t dir_epoch() const { return dir_epoch_; }

  /// Holds recovery reads for `ranks` until the pending split-brain merge
  /// commits: a moved rank's log is incomplete here (its acked prefix lives
  /// on the unreachable stale shard), so answering now would replay a hole.
  /// Clients retry on the campaign's service_retry cadence into the heal.
  void defer_recovery(const std::vector<int>& ranks) {
    for (const int r : ranks) deferred_[static_cast<std::size_t>(r)] = 1;
  }
  void clear_deferred(const std::vector<int>& ranks) {
    for (const int r : ranks) deferred_[static_cast<std::size_t>(r)] = 0;
  }

  // --- failure injection (driven by the fault engine) ----------------------
  /// Service crash: queued-but-unserviced work is lost (those clients never
  /// get an ack), the exchange loop stops. The committed log in `per_` is
  /// stable storage and survives.
  void crash_service() {
    down_ = true;
    ++svc_gen_;  // in-flight charge_then closures become inert
    pending_ = 0;
  }
  /// Transient-outage recovery: the service process is back with its log
  /// intact (the network node restart is the caller's job).
  void restore_service() {
    if (!down_) return;
    down_ = false;
    if (layout_.el_count > 1) arm_exchange();
  }
  /// Failover: mounts `dead`'s persistent determinant log for `ranks`
  /// (sequential read priced like recovery read-out), then runs `done` —
  /// the fault engine re-homes the ranks and notifies them from there.
  void mount_log(const EventLogger& dead, const std::vector<int>& ranks,
                 std::function<void()> done) {
    std::size_t to_read = 0;
    for (const int r : ranks) {
      to_read += dead.per_[static_cast<std::size_t>(r)].dets.size();
    }
    const net::CostModel& c = net_.cost();
    port_.charge_then(
        static_cast<sim::Time>(to_read) * c.el_recovery_read + c.el_ack_build,
        [this, &dead, ranks, done = std::move(done)] {
          if (down_) {
            // This shard died mid-mount: the transaction never commits.
            // The caller's completion hook re-runs the failover elsewhere.
            done();
            return;
          }
          trace::emit(trace_, net_.engine().now(), trace::Kind::kRecovery,
                      trace::kPhaseLogMounted, dead.shard_, ranks.size());
          for (const int r : ranks) {
            Per& mine = per_[static_cast<std::size_t>(r)];
            const Per& theirs = dead.per_[static_cast<std::size_t>(r)];
            // Copy the log wholesale: our `contiguous` for a never-owned
            // rank came from the clock exchange and has NO backing storage —
            // every committed determinant of the dead shard is needed for
            // recovery, including those below the exchanged watermark.
            theirs.dets.for_each(
                [&mine](std::uint64_t, const ftapi::Determinant& d) {
                  mine.dets.emplace(d.seq, d);
                });
            mine.contiguous = std::max(mine.contiguous, theirs.contiguous);
            while (mine.dets.contains(mine.contiguous + 1)) ++mine.contiguous;
          }
          done();
        });
  }

  /// Outcome of a split-brain merge, delivered to reconcile_from's `done`.
  struct ReconcileResult {
    std::uint64_t merged = 0;       // records pulled over from the stale log
    std::uint64_t duplicates = 0;   // submissions both sides had stored
    int first_dup_rank = -1;        // creator of the first duplicate dropped
    std::uint64_t first_dup_seq = 0;
  };

  /// Split-brain heal: merges `stale`'s live log for `ranks` into this
  /// shard's, keyed by (creator, seq) against the SeqWindow stores so the
  /// merge is idempotent — a record both sides hold is dropped exactly
  /// once, and the stability watermark advances only over the merged log.
  /// Unlike mount_log the other shard is alive and keeps serving its own
  /// side; only the moved ranks' records are reconciled. Priced like a
  /// failover read-out.
  void reconcile_from(const EventLogger& stale, const std::vector<int>& ranks,
                      std::function<void(const ReconcileResult&)> done) {
    std::size_t to_read = 0;
    for (const int r : ranks) {
      to_read += stale.per_[static_cast<std::size_t>(r)].dets.size();
    }
    const net::CostModel& c = net_.cost();
    port_.charge_then(
        static_cast<sim::Time>(to_read) * c.el_recovery_read + c.el_ack_build,
        [this, &stale, ranks, done = std::move(done)] {
          ReconcileResult res;
          if (down_) {
            // Successor died before the merge committed; the shard-crash
            // failover path will mount both logs instead.
            done(res);
            return;
          }
          for (const int r : ranks) {
            Per& mine = per_[static_cast<std::size_t>(r)];
            const Per& theirs = stale.per_[static_cast<std::size_t>(r)];
            theirs.dets.for_each([this, &mine, &res,
                                  r](std::uint64_t,
                                     const ftapi::Determinant& d) {
              if (d.seq <= mine.contiguous || !mine.dets.emplace(d.seq, d)) {
                ++res.duplicates;
                ++dup_by_rank_[static_cast<std::size_t>(r)];
                if (res.first_dup_rank < 0) {
                  res.first_dup_rank = r;
                  res.first_dup_seq = d.seq;
                }
                trace::emit(trace_, net_.engine().now(), trace::Kind::kRecovery,
                            trace::kPhaseDupDrop, r, d.seq, mine.contiguous);
              } else {
                ++res.merged;
                ++reconciled_by_rank_[static_cast<std::size_t>(r)];
              }
            });
            // The stale side's watermark is backed by its (now merged)
            // durable log plus checkpoint-covered prunes — both safe.
            mine.contiguous = std::max(mine.contiguous, theirs.contiguous);
            while (mine.dets.contains(mine.contiguous + 1)) ++mine.contiguous;
          }
          trace::emit(trace_, net_.engine().now(), trace::Kind::kRecovery,
                      trace::kPhaseReconcile, stale.shard_, res.merged,
                      res.duplicates);
          done(res);
        });
  }

 private:
  /// Shard storage per creator: a sequence-indexed window whose base is the
  /// checkpoint-GC floor (kElGc), holding everything received since; the
  /// `contiguous` stability watermark advances through it as gaps fill.
  struct Per {
    std::uint64_t contiguous = 0;
    util::SeqWindow<ftapi::Determinant> dets;
  };

  void on_frame(net::Message&& m) {
    if (down_) return;  // crashed service: nothing is accepted
    const net::CostModel& c = net_.cost();
    switch (m.kind) {
      case net::MsgKind::kElEvent: {
        const std::uint32_t n = m.body.get_u32();
        std::vector<ftapi::Determinant> dets;
        dets.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          dets.push_back(ftapi::Determinant::deserialize(m.body));
        }
        stats_->bytes_in += m.wire_bytes;
        const net::NodeId reply_to = m.src;
        const std::uint64_t gen = svc_gen_;
        port_.charge_then(
            static_cast<sim::Time>(n) * c.el_service,
            [this, dets = std::move(dets), reply_to, gen] {
              if (gen != svc_gen_) return;  // queue entry died with the service
              for (const ftapi::Determinant& d : dets) store(d);
              ack(reply_to);
              obs_.on_el_stored(shard_, stored_ops_);
            });
        ++pending_;
        stats_->peak_queue = std::max(stats_->peak_queue, pending_);
        return;
      }
      case net::MsgKind::kElRecoveryReq: {
        const auto rank = static_cast<std::uint32_t>(m.arg);
        if (deferred_[rank] != 0) {
          // Split-brain merge pending for this rank: its acked prefix is
          // still on the unreachable stale shard. Stay silent; the client's
          // retry loop re-asks after the heal commits the merge.
          return;
        }
        const net::NodeId reply_to = m.src;
        const std::uint64_t gen = svc_gen_;
        // The read MUST be serialized behind the store queue, not snapshot
        // the log at request arrival: store batches already queued — the
        // victim's own pre-crash submissions among them — commit and
        // advance stability before the survivors answer the victim's
        // recovery broadcast, and survivors prune everything stability
        // covers. A response built from an earlier snapshot would leave a
        // hole in the victim's replay union (EL prefix ∪ survivor
        // knowledge) exactly when the shard is saturated and the queue is
        // long. Under saturation this wait is also the measured cost of
        // under-provisioned logging: collect stalls behind the backlog.
        port_.charge_then(0, [this, rank, reply_to, gen] {
          if (gen != svc_gen_) return;  // request died with the service
          const net::CostModel& cc = net_.cost();
          net::Message resp;
          resp.kind = net::MsgKind::kElRecoveryResp;
          resp.dst = reply_to;
          // The current stable vector first: a restarting node must resync
          // its stability knowledge (a restored image may lag the EL, and
          // e.g. the pessimistic send gate depends on it).
          for (const Per& q : per_) resp.body.put_u64(q.contiguous);
          const Per& p = per_[rank];
          resp.body.put_u32(static_cast<std::uint32_t>(p.dets.size()));
          p.dets.for_each([&resp](std::uint64_t, const ftapi::Determinant& d) {
            d.serialize(resp.body);
          });
          port_.send_after(
              static_cast<sim::Time>(p.dets.size()) * cc.el_recovery_read +
                  cc.el_ack_build,
              std::move(resp));
        });
        return;
      }
      case net::MsgKind::kControl:
        switch (static_cast<mpi::CtlSub>(m.tag)) {
          case mpi::CtlSub::kElGc: {
            // Checkpoint of `src_rank` covers receptions <= arg: stability
            // may advance and storage be pruned.
            Per& p = per_[static_cast<std::uint32_t>(m.src_rank)];
            p.contiguous = std::max(p.contiguous, m.arg);
            p.dets.prune_to(m.arg);
            return;
          }
          case mpi::CtlSub::kElShardClock: {
            // Another shard's stable-clock array: merge the entries for the
            // ranks it owns into our global view.
            for (int r = 0; r < layout_.nranks; ++r) {
              const std::uint64_t v = m.body.get_u64();
              if (!owns_rank(r)) {
                per_[static_cast<std::uint32_t>(r)].contiguous = std::max(
                    per_[static_cast<std::uint32_t>(r)].contiguous, v);
              }
            }
            return;
          }
          default:
            return;
        }
      default:
        return;
    }
  }

  void store(const ftapi::Determinant& d) {
    Per& p = per_[d.creator];
    ++stats_->events_stored;
    ++stored_ops_;
    if (d.seq <= p.contiguous || !p.dets.emplace(d.seq, d)) {
      // Duplicate submission: a post-failover resubmission (or a parked
      // frame redelivered after a heal) of a record this shard already
      // covers. Keyed by (creator, seq); dropping it is the idempotence
      // the reconciliation path relies on.
      ++dup_by_rank_[d.creator];
      return;
    }
    while (p.dets.contains(p.contiguous + 1)) ++p.contiguous;
    // code=1 distinguishes EL-side storage from the rank-side creation
    // record of the same determinant.
    trace::emit(trace_, net_.engine().now(), trace::Kind::kDeterminant, 1,
                static_cast<std::int32_t>(d.creator), d.seq, p.contiguous,
                d.ssn);
  }

  void ack(net::NodeId to) {
    if (pending_ > 0) --pending_;
    net::Message a;
    a.kind = net::MsgKind::kElAck;
    a.dst = to;
    // Epoch + shard stamp (header fields, wire-neutral): lets a client whose
    // home moved while this ack crossed a cut recognize and fence it.
    a.arg = dir_epoch_;
    a.src_rank = shard_;
    for (const Per& p : per_) a.body.put_u64(p.contiguous);
    ++stats_->acks_sent;
    trace::emit(trace_, net_.engine().now(), trace::Kind::kElAck, 1,
                static_cast<std::int32_t>(to), stats_->acks_sent, pending_);
    port_.send_after(net_.cost().el_ack_build, std::move(a));
  }

  /// The exchange loop is generation-stamped so a service crash retires the
  /// pending tick and restore_service() can arm a fresh loop without racing
  /// it.
  void arm_exchange() {
    net_.engine().after(kExchangeInterval, [this, gen = svc_gen_] {
      if (gen == svc_gen_) exchange_clocks();
    });
  }

  void exchange_clocks() {
    for (int other = 0; other < layout_.el_count; ++other) {
      if (other == shard_) continue;
      if (dir_.dead(other)) continue;
      net::Message m;
      m.kind = net::MsgKind::kControl;
      m.tag = static_cast<std::int32_t>(mpi::CtlSub::kElShardClock);
      m.dst = layout_.el_node(other);
      // Send our whole view; receivers only merge the slots we own.
      for (const Per& p : per_) m.body.put_u64(p.contiguous);
      port_.send_after(net_.cost().el_ack_build, std::move(m));
    }
    arm_exchange();
  }

  net::Network& net_;
  ftapi::NodeLayout layout_;
  ftapi::ElStats* stats_;
  int shard_;
  const ElDirectory& dir_;
  ftapi::FaultObserver& obs_;
  trace::Lane* trace_ = nullptr;
  net::ServicePort port_;
  std::vector<Per> per_;
  std::vector<std::uint64_t> dup_by_rank_;
  std::vector<std::uint64_t> reconciled_by_rank_;
  std::vector<char> deferred_;
  std::uint64_t dir_epoch_ = 0;
  std::uint64_t pending_ = 0;
  std::uint64_t stored_ops_ = 0;
  std::uint64_t svc_gen_ = 0;
  bool down_ = false;
};

}  // namespace mpiv::elog
