// Shared base for the message-logging V-protocols (causal and pessimistic).
//
// Owns the machinery the two families have in common: the sender-based
// payload log with checkpoint-driven GC, the Event Logger client, the
// determinant store, and the recovery exchange — the restarting rank
// queries the EL and/or broadcasts a recovery request, survivors respond
// with every determinant of the failed rank they hold and re-send logged
// payloads above the restored arrival watermark.
#pragma once

#include <memory>
#include <optional>

#include "causal/el_client.hpp"
#include "causal/event_store.hpp"
#include "causal/sender_log.hpp"
#include "ftapi/vprotocol.hpp"
#include "mpi/rank_runtime.hpp"
#include "sim/sync.hpp"

namespace mpiv::causal {

class MsgLogProtocolBase : public ftapi::VProtocol {
 public:
  explicit MsgLogProtocolBase(bool use_el) : use_el_(use_el) {}

  bool is_message_logging() const override { return true; }
  bool uses_event_logger() const { return use_el_; }
  std::size_t pb_set_size() const override {
    return store_ ? store_->held_count() : 0;
  }

  void bind(const ftapi::RankServices& svc) override {
    ftapi::VProtocol::bind(svc);
    store_ = std::make_unique<EventStore>(svc.nranks);
    slog_ = std::make_unique<SenderLog>(svc.nranks);
    el_.attach(svc, [this](const std::vector<std::uint64_t>& stable) {
      store_->set_stable(stable);
      on_stable(stable);
    });
    resp_latch_ = std::make_unique<sim::CountLatch>(*svc.eng);
  }

  void on_peer_checkpoint(int peer, std::uint64_t arr_ssn) override {
    slog_->gc(peer, arr_ssn);
  }

  void on_ctl(net::Message&& m) override {
    switch (m.kind) {
      case net::MsgKind::kElAck: {
        el_.on_ack(std::move(m));
        trace::emit(svc_.trace, svc_.eng->now(), trace::Kind::kElAck, 0,
                    svc_.el_shard_for(svc_.rank), el_.own_stable());
        return;
      }
      case net::MsgKind::kElRecoveryResp:
        el_.on_recovery_resp(std::move(m));
        return;
      case net::MsgKind::kRecoveryReq:
        handle_peer_recovery(m);
        return;
      case net::MsgKind::kRecoveryResp: {
        const std::uint32_t n = m.body.get_u32();
        for (std::uint32_t i = 0; i < n; ++i) {
          gathered_.push_back(ftapi::Determinant::deserialize(m.body));
        }
        resp_latch_->arrive();
        return;
      }
      case net::MsgKind::kControl:
        if (static_cast<mpi::CtlSub>(m.tag) == mpi::CtlSub::kElFailover) {
          on_el_failover(m.arg);
        }
        return;
      default:
        return;  // not ours (e.g. stray frames after restart)
    }
  }

  /// EL-shard failover notice: our home shard died and (when a successor
  /// exists) the directory already re-homed us. Everything the dead shard
  /// never durably acknowledged — our unstable suffix, still held locally —
  /// is re-persisted on the successor; until its acks land, stability is
  /// frozen and piggybacks regrow, exactly the paper's no-EL regime entered
  /// dynamically.
  void on_el_failover(std::uint64_t arg) {
    if (!use_el_) return;
    trace::emit(svc_.trace, svc_.eng->now(), trace::Kind::kRecovery,
                trace::kPhaseElFailover, mpi::el_failover_dead(arg),
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(mpi::el_failover_successor(arg))));
    if (mpi::el_failover_successor(arg) < 0) return;  // abandoned: no-EL now
    const auto me = static_cast<std::uint32_t>(svc_.rank);
    ftapi::DeterminantList mine;
    store_->for_range(me, el_.own_stable(), store_->known(me),
                      [&mine](const ftapi::Determinant& d) {
                        mine.push_back(d);
                      });
    el_.submit_batch(mine);
  }

  /// True when this rank's determinants are unreachable at any Event Logger
  /// (home shard dead with no successor): recovery and the send gate must
  /// not wait on it.
  bool el_unreachable() const {
    return svc_.el_dir != nullptr &&
           svc_.el_dir->abandoned(svc_.el_shard_for(svc_.rank));
  }

  sim::Task<ftapi::DeterminantList> recover(
      std::uint64_t already_rsn,
      const std::vector<std::uint64_t>& arr_watermarks) override {
    (void)already_rsn;
    ftapi::DeterminantList all;
    if (use_el_ && !el_unreachable()) {
      all = co_await el_.fetch_mine();
    }
    // Ask every survivor for the determinants it holds about us and for the
    // logged payloads we have not provably received.
    gathered_.clear();
    resp_latch_->expect(static_cast<std::size_t>(svc_.nranks - 1));
    const std::vector<std::uint64_t> known = store_->known_vector();
    for (int peer = 0; peer < svc_.nranks; ++peer) {
      if (peer == svc_.rank) continue;
      net::Message m;
      m.kind = net::MsgKind::kRecoveryReq;
      m.src_rank = svc_.rank;
      m.body.put_u64(arr_watermarks[static_cast<std::size_t>(peer)]);
      for (const std::uint64_t k : known) m.body.put_u64(k);
      svc_.send_ctl_to_rank(peer, std::move(m));
    }
    co_await resp_latch_->wait();
    // Survivors may ship third-party determinants (no-EL mode): those
    // rebuild our causal knowledge; only our own creations are replayed.
    for (const ftapi::Determinant& d : gathered_) {
      if (d.creator == static_cast<std::uint32_t>(svc_.rank)) {
        all.push_back(d);
      } else {
        store_->add(d);
      }
    }
    gathered_.clear();
    co_return all;
  }

  void serialize(util::Buffer& b) const override {
    store_->serialize(b);
    slog_->serialize(b);
    el_.serialize(b);
  }
  void restore(util::Buffer& b) override {
    store_->restore(b);
    slog_->restore(b);
    el_.restore(b);
  }
  void reset() override {
    store_->reset();
    slog_->reset();
    el_.reset();
    gathered_.clear();
  }

  EventStore& store() { return *store_; }
  SenderLog& sender_log() { return *slog_; }
  ElClient& el() { return el_; }

 protected:
  /// Hook for strategies: a peer restarted with knowledge vector `known`.
  virtual void on_peer_restart(int peer, const std::vector<std::uint64_t>& known) {
    (void)peer; (void)known;
  }
  /// Hook: the stable vector advanced (store already pruned).
  virtual void on_stable(const std::vector<std::uint64_t>& stable) {
    (void)stable;
  }

  void handle_peer_recovery(net::Message& m) {
    const int failed = m.src_rank;
    const std::uint64_t arr_ssn = m.body.get_u64();
    std::vector<std::uint64_t> known(static_cast<std::size_t>(svc_.nranks));
    for (std::uint64_t& k : known) k = m.body.get_u64();
    on_peer_restart(failed, known);

    // With an EL, the failed rank's own determinants beyond its checkpoint
    // suffice (the EL covers the stable prefix and the stable vector covers
    // third-party knowledge). Without one, the restarting rank must also
    // rebuild its causal knowledge of everyone else, so each survivor ships
    // its ENTIRE held determinant set — the volume (and the recovery-time
    // blow-up with cluster size) the paper's Fig. 10 measures.
    ftapi::DeterminantList dets;
    if (use_el_) {
      store_->collect(static_cast<std::uint32_t>(failed), dets);
    } else {
      for (int c = 0; c < svc_.nranks; ++c) {
        store_->collect(static_cast<std::uint32_t>(c), dets);
      }
    }
    net::Message resp;
    resp.kind = net::MsgKind::kRecoveryResp;
    resp.src_rank = svc_.rank;
    resp.body.put_u32(static_cast<std::uint32_t>(dets.size()));
    for (const ftapi::Determinant& d : dets) d.serialize(resp.body);
    svc_.send_ctl_to_rank(failed, std::move(resp));

    // Re-send logged payloads the failed rank's checkpoint does not cover.
    slog_->for_pending(failed, arr_ssn, [&](const SenderLog::Entry& e) {
      net::Message r;
      r.kind = net::MsgKind::kPayloadResend;
      r.src = svc_.layout.rank_node(svc_.rank);
      r.dst = svc_.layout.rank_node(failed);
      r.src_rank = svc_.rank;
      r.dst_rank = failed;
      r.tag = e.tag;
      r.ssn = e.ssn;
      r.payload = e.payload;
      svc_.daemon->submit_app(std::move(r));
    });
  }

  bool use_el_;
  std::unique_ptr<EventStore> store_;
  std::unique_ptr<SenderLog> slog_;
  ElClient el_;
  std::unique_ptr<sim::CountLatch> resp_latch_;
  ftapi::DeterminantList gathered_;
};

}  // namespace mpiv::causal
