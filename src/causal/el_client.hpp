// Node-side Event Logger client.
//
// Each reception determinant is sent asynchronously to the EL; the EL's
// acknowledgements carry the global stable-clock vector ("the last event
// stored for each process"), which lets the node discard its own and other
// processes' determinant copies — the garbage-collection effect whose
// impact the paper measures. The client also measures ack latency (how long
// a determinant stays piggybackable) and serves the pessimistic protocol's
// wait-until-stable gate.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "ftapi/determinant.hpp"
#include "ftapi/services.hpp"
#include "sim/sync.hpp"

namespace mpiv::causal {

class ElClient {
 public:
  using StableFn = std::function<void(const std::vector<std::uint64_t>&)>;

  void attach(const ftapi::RankServices& svc, StableFn on_stable) {
    svc_ = svc;
    on_stable_ = std::move(on_stable);
    stable_.assign(static_cast<std::size_t>(svc.nranks), 0);
    own_waiters_ = std::make_unique<sim::WaitQueue>(*svc.eng);
    fetch_done_ = std::make_unique<sim::OneShot>(*svc.eng);
  }

  /// Asynchronously ships a local determinant to the Event Logger.
  void submit(const ftapi::Determinant& d) {
    pending_.emplace(d.seq, svc_.eng->now());
    net::Message m;
    m.kind = net::MsgKind::kElEvent;
    m.src_rank = svc_.rank;
    m.arg = dir_epoch();  // epoch-stamped store batch (0 fault-free)
    m.body.put_u32(1);
    d.serialize(m.body);
    svc_.send_ctl(svc_.el_node_for(svc_.rank), std::move(m));
  }

  /// Re-ships a batch of determinants in one frame — the EL failover path:
  /// after re-homing, everything the dead shard never durably acknowledged
  /// is persisted again on the successor.
  void submit_batch(const ftapi::DeterminantList& dets) {
    if (dets.empty()) return;
    net::Message m;
    m.kind = net::MsgKind::kElEvent;
    m.src_rank = svc_.rank;
    m.arg = dir_epoch();
    m.body.put_u32(static_cast<std::uint32_t>(dets.size()));
    for (const ftapi::Determinant& d : dets) {
      pending_.emplace(d.seq, svc_.eng->now());
      d.serialize(m.body);
    }
    svc_.send_ctl(svc_.el_node_for(svc_.rank), std::move(m));
  }

  /// Handles a stable-clock acknowledgement from the EL.
  void on_ack(net::Message&& m) {
    // Split-brain fence: an ack stamped with a pre-failover directory epoch
    // by a shard that is no longer our home carries a minority-side
    // watermark — a heal-time redelivery from the stale side of a cut.
    // Pruning against it could discard determinants only the stale shard's
    // unmerged log covers, so drop it. Fault-free both epochs are 0 and the
    // stamp shard equals the home shard.
    if (m.arg < dir_epoch() &&
        static_cast<int>(m.src_rank) != svc_.el_shard_for(svc_.rank)) {
      ++svc_.stats->stale_acks_fenced;
      trace::emit(svc_.trace, svc_.eng->now(), trace::Kind::kElAck, 2,
                  m.src_rank, m.arg, dir_epoch());
      return;
    }
    std::vector<std::uint64_t> vec(stable_.size());
    for (std::uint64_t& v : vec) v = m.body.get_u64();
    // Ack latency: time from determinant creation to coverage by an ack.
    const std::uint64_t own = vec[static_cast<std::size_t>(svc_.rank)];
    for (auto it = pending_.begin(); it != pending_.end() && it->first <= own;) {
      svc_.stats->el_ack_latency_us.add(sim::to_us(svc_.eng->now() - it->second));
      it = pending_.erase(it);
    }
    apply_stable(vec);
  }

  void apply_stable(const std::vector<std::uint64_t>& vec) {
    bool advanced = false;
    for (std::size_t c = 0; c < stable_.size(); ++c) {
      if (vec[c] > stable_[c]) {
        stable_[c] = vec[c];
        advanced = true;
      }
    }
    if (advanced) {
      if (on_stable_) on_stable_(stable_);
      own_waiters_->wake_all();
    }
  }

  const std::vector<std::uint64_t>& stable() const { return stable_; }
  std::uint64_t own_stable() const {
    return stable_[static_cast<std::size_t>(svc_.rank)];
  }
  /// The directory epoch this client sees (0 until a suspected failover).
  std::uint64_t dir_epoch() const { return svc_.el_dir->epoch(); }

  /// Pessimistic gate: waits until all own determinants up to `seq` are
  /// safely stored at the EL.
  sim::Task<void> wait_own_stable(std::uint64_t seq) {
    while (own_stable() < seq) co_await own_waiters_->wait();
  }

  /// Recovery: fetches every determinant of this rank stored at the EL.
  /// With svc_.service_retry armed (fault campaigns), an unanswered request
  /// is retransmitted — re-routed through the directory, so a fetch that
  /// raced a shard crash lands on the successor once failover completes.
  sim::Task<ftapi::DeterminantList> fetch_mine() {
    fetch_done_->reset();
    fetched_.clear();
    for (;;) {
      // A cascade may abandon our home shard while the fetch is in flight
      // (dead, no successor): stop retrying into a hole — survivors are
      // the only source left.
      if (svc_.el_dir->abandoned(svc_.el_shard_for(svc_.rank))) {
        fetched_.clear();
        break;
      }
      net::Message m;
      m.kind = net::MsgKind::kElRecoveryReq;
      m.src_rank = svc_.rank;
      m.arg = static_cast<std::uint64_t>(svc_.rank);
      svc_.send_ctl(svc_.el_node_for(svc_.rank), std::move(m));
      if (svc_.service_retry <= 0) {
        co_await fetch_done_->wait();
        break;
      }
      const sim::Time deadline = svc_.eng->now() + svc_.service_retry;
      svc_.eng->at(deadline, [done = fetch_done_.get()] { done->poke(); });
      while (!fetch_done_->ready() && svc_.eng->now() < deadline) {
        co_await fetch_done_->wait_once();
      }
      if (fetch_done_->ready()) break;
    }
    co_return std::move(fetched_);
  }
  void on_recovery_resp(net::Message&& m) {
    // Resync the stable vector from the EL's authoritative copy.
    std::vector<std::uint64_t> vec(stable_.size());
    for (std::uint64_t& v : vec) v = m.body.get_u64();
    apply_stable(vec);
    const std::uint32_t n = m.body.get_u32();
    fetched_.clear();
    fetched_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      fetched_.push_back(ftapi::Determinant::deserialize(m.body));
    }
    fetch_done_->set();
  }

  void serialize(util::Buffer& b) const {
    for (const std::uint64_t v : stable_) b.put_u64(v);
  }
  void restore(util::Buffer& b) {
    for (std::uint64_t& v : stable_) v = b.get_u64();
  }
  void reset() {
    std::fill(stable_.begin(), stable_.end(), 0);
    pending_.clear();
  }

 private:
  ftapi::RankServices svc_{};
  StableFn on_stable_;
  std::vector<std::uint64_t> stable_;
  std::map<std::uint64_t, sim::Time> pending_;
  std::unique_ptr<sim::WaitQueue> own_waiters_;
  std::unique_ptr<sim::OneShot> fetch_done_;
  ftapi::DeterminantList fetched_;
};

}  // namespace mpiv::causal
