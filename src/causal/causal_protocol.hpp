// The causal message-logging V-protocol (paper §III-A, Fig. 2).
//
// Shared causal mechanics over a pluggable piggyback-reduction strategy:
//  - sender-based payload logging on every send,
//  - piggyback of unstable determinants built by the strategy,
//  - asynchronous determinant shipping to the Event Logger (when enabled)
//    and pruning on stable-clock acks,
//  - recovery by union of the EL prefix and survivors' knowledge.
//
// With use_el = false the protocol is still correct — determinants are then
// reclaimable only from survivors and nothing is ever pruned, which is
// exactly the configuration the paper contrasts against.
#pragma once

#include "causal/msg_log_protocol.hpp"
#include "causal/strategy.hpp"

namespace mpiv::causal {

class CausalProtocol final : public MsgLogProtocolBase {
 public:
  CausalProtocol(StrategyKind kind, bool use_el)
      : MsgLogProtocolBase(use_el), strategy_(make_strategy(kind)) {}

  const char* name() const override { return strategy_->name(); }
  Strategy& strategy() { return *strategy_; }

  void bind(const ftapi::RankServices& svc) override {
    MsgLogProtocolBase::bind(svc);
    strategy_->attach(store_.get(), svc.cost, svc.rank, svc.nranks);
  }

  ftapi::PiggybackOut on_send(int dst_rank, std::uint64_t ssn,
                              const net::Payload& payload,
                              std::int32_t tag) override {
    slog_->log(dst_rank, ssn, tag, payload);
    ftapi::PiggybackOut out;
    const Strategy::Work w = strategy_->build(dst_rank, out.bytes, out.deps);
    out.events = w.events;
    // Fixed logging bookkeeping + sender-based copy + piggyback work; only
    // the last is "time to prepare causality information" (Fig. 8).
    out.stats_cpu = w.cpu;
    out.cpu = svc_.cost->mlog_send_fixed + w.cpu;
    // Daemon-side copy into the sender log.
    out.cpu += static_cast<sim::Time>(static_cast<double>(payload.bytes) *
                                      svc_.cost->slog_ns_per_byte);
    update_peaks();
    return out;
  }

  PacketCost on_packet(net::Message& m) override {
    PacketCost c;
    c.cpu = svc_.cost->mlog_recv_fixed;
    if (!m.body.empty()) {
      const Strategy::Work w = strategy_->absorb(m.src_rank, m.body, m.dep_shadow);
      update_peaks();
      c.cpu += w.cpu;
      c.stats_cpu = w.cpu;
    }
    return c;
  }

  sim::Time on_deliver(const ftapi::Determinant& d) override {
    ftapi::Determinant full = d;
    // Cross edge: the freshest event of the message's sender we know —
    // its events arrived (piggybacked) with or before this very message.
    full.dep_creator = d.src;
    full.dep_seq = store_->known(d.src);
    store_->add(full);
    strategy_->on_local_event(full);
    ++svc_.stats->dets_created;
    // The only place the antecedence edge exists rank-side: peer/aux carry
    // (dep_creator, dep_seq) so mpiv_trace can rebuild the graph.
    trace::emit(svc_.trace, svc_.eng->now(), trace::Kind::kDeterminant, 0,
                static_cast<std::int32_t>(full.dep_creator), full.seq,
                full.dep_seq, full.ssn);
    if (use_el_) el_.submit(full);
    return svc_.cost->det_create;
  }

  void serialize(util::Buffer& b) const override {
    MsgLogProtocolBase::serialize(b);
    strategy_->serialize(b);
  }
  void restore(util::Buffer& b) override {
    MsgLogProtocolBase::restore(b);
    strategy_->restore(b);
  }
  void reset() override {
    MsgLogProtocolBase::reset();
    strategy_->reset();
  }

 protected:
  void on_stable(const std::vector<std::uint64_t>& stable) override {
    strategy_->on_stable(stable);
  }
  void on_peer_restart(int peer,
                       const std::vector<std::uint64_t>& known) override {
    strategy_->on_peer_restart(peer, known);
  }

 private:
  void update_peaks() {
    ftapi::RankStats& st = *svc_.stats;
    st.sender_log_peak_bytes = std::max(st.sender_log_peak_bytes, slog_->bytes());
    st.event_store_peak =
        std::max(st.event_store_peak, static_cast<std::uint64_t>(store_->held_count()));
    st.graph_peak_nodes = std::max(
        st.graph_peak_nodes, static_cast<std::uint64_t>(strategy_->graph_vertices()));
  }

  std::unique_ptr<Strategy> strategy_;
};

}  // namespace mpiv::causal
