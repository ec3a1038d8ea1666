// MPICH-V communication daemon (the "Vdaemon" of the paper, Fig. 4/5).
//
// Each compute node runs the MPI process and a separate communication
// daemon connected by a pair of pipes; the daemon owns all network I/O.
// This file models that structure's costs and mechanics:
//  - per-message software cost on each side (v_per_msg),
//  - pipe crossings with per-byte copy cost (the ~35 us latency the paper
//    attributes to the daemon separation, cf. Fig. 6a P4 vs Vdummy),
//  - a single daemon CPU serializing message handling (select loop),
//  - the short/eager/rendezvous protocol layer,
//  - the alternative ch_p4 direct channel (no daemon, half-duplex NIC use).
//
// Fault-tolerance protocols live *above* the daemon (see ftapi); the daemon
// also carries their control frames (Event Logger records, checkpoints) at
// select-loop cost, without pipe crossings.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "net/network.hpp"
#include "trace/trace.hpp"
#include "util/slab.hpp"

namespace mpiv::net {

enum class ChannelKind : std::uint8_t {
  kP4,  // MPICH-P4 reference channel: direct, no daemon, no fault tolerance
  kV,   // MPICH-V channel: communication daemon + hooks
};

class Daemon {
 public:
  /// Upcall delivering a fully received message to the rank runtime.
  using UpFn = std::function<void(Message&&)>;

  Daemon(Network& net, NodeId node, ChannelKind channel)
      : net_(net), node_(node), channel_(channel) {
    if (channel_ == ChannelKind::kP4 && net_.cost().p4_half_duplex) {
      net_.set_half_duplex(node, true);
    }
    net_.attach(node, [this](Message&& m) { on_frame(std::move(m)); });
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  NodeId node() const { return node_; }
  ChannelKind channel() const { return channel_; }
  Network& network() { return net_; }
  const CostModel& cost() const { return net_.cost(); }

  void attach_upper(UpFn fn) { up_ = std::move(fn); }
  /// Owning rank's trace lane (null = tracing off): daemon outages and
  /// respawns are recorded there.
  void set_trace(trace::Lane* lane) { trace_ = lane; }

  /// Sender-side cost charged to the *application* coroutine before the
  /// message is handed to the daemon (pipe write + copy), in ns.
  sim::Time app_handoff_cost(std::uint64_t payload_bytes) const;

  /// Submits an application message (payload + protocol body already
  /// attached). Handles eager/rendezvous. The caller has already charged
  /// app_handoff_cost to the sending coroutine.
  void submit_app(Message&& m);

  /// Submits a protocol/control frame (EL records, checkpoints, recovery,
  /// dispatcher control). No pipe crossing; select-loop cost only.
  void submit_ctl(Message&& m);

  /// Crash/restart: drop rendezvous state held for the old incarnation.
  void reset();

  // --- daemon-process faults (failure domain distinct from the rank) -------
  /// The daemon process dies while the MPI process survives: nothing is
  /// forwarded in either direction until the respawn. Work keeps queueing
  /// through the daemon's single CPU clock (outbound submissions back up in
  /// the app-side pipe, inbound frames in the kernel socket buffers — the
  /// respawned daemon will have to do that processing anyway), but every
  /// completed charge HOLDS at the delivery boundary instead of injecting
  /// or delivering up. That keeps one strict FIFO through the daemon: the
  /// backlog releases in charge-completion order on restart, ahead of any
  /// charge still pending, so no frame overtakes an older one across the
  /// outage. Nothing is lost (the channel stays reliable across the
  /// respawn — peers' TCP stacks retransmit unacked data, and the respawned
  /// daemon re-reads its pipe). A rank-level crash (reset()) supersedes the
  /// outage: the node restart discards the held frames with the rest of the
  /// volatile state.
  void crash_daemon();
  /// The dispatcher's respawned daemon reconnects: the held backlog
  /// releases in charge-completion (i.e. arrival) order, its processing
  /// cost already paid while it queued. Returns how many frames were held
  /// (no-op returning 0 when the daemon was not down).
  std::size_t restart_daemon();
  bool daemon_down() const { return down_; }

  // --- Stats ---------------------------------------------------------------
  std::uint64_t app_msgs_sent() const { return app_msgs_sent_; }
  std::uint64_t app_bytes_sent() const { return app_bytes_sent_; }
  /// Messages parked while the daemon is down (metrics backlog probe).
  std::size_t held_depth() const { return held_.size(); }

 private:
  /// What to do with a parked message once its CPU charge elapses.
  enum class Charged : std::uint8_t {
    kInject,     // hand to the fabric (outbound)
    kDeliverUp,  // hand to the rank runtime (inbound)
  };

  void on_frame(Message&& m);
  /// Occupies the daemon CPU for `cpu` and runs `fn` when done.
  void charge_then(sim::Time cpu, std::function<void()> fn);
  /// Occupies the daemon CPU for `cpu`, then injects or delivers `m`. The
  /// message is parked in a slab so the scheduled closure stays inline in
  /// std::function (no per-message allocation).
  void charge_msg(sim::Time cpu, Message&& m, Charged action);
  void inject(Message&& m);

  /// Performs a charged message's final hop (fabric injection or upward
  /// delivery) — or holds it in `held_` while the daemon is down.
  void finish_charged(Message&& m, Charged action);

  Network& net_;
  NodeId node_;
  ChannelKind channel_;
  UpFn up_;
  trace::Lane* trace_ = nullptr;
  util::Slab<Message> parked_;
  sim::Time cpu_free_ = 0;
  bool down_ = false;
  // Fully-charged frames held at the delivery boundary while the daemon is
  // down, in charge-completion (FIFO) order.
  std::deque<std::pair<Message, Charged>> held_;
  std::uint64_t app_msgs_sent_ = 0;
  std::uint64_t app_bytes_sent_ = 0;
  std::uint64_t rdv_cookie_ = 0;
  // Messages parked waiting for a rendezvous CTS, keyed by cookie.
  std::vector<std::pair<std::uint64_t, Message>> rdv_pending_;
};

}  // namespace mpiv::net
