#include "net/daemon.hpp"

#include <algorithm>

namespace mpiv::net {

sim::Time Daemon::app_handoff_cost(std::uint64_t payload_bytes) const {
  const CostModel& c = cost();
  if (channel_ == ChannelKind::kP4) {
    return c.p4_per_msg + c.memcpy_time(payload_bytes) +
           static_cast<sim::Time>(static_cast<double>(payload_bytes) *
                                  c.p4_extra_copy_ns_per_byte);
  }
  return c.pipe_cross + c.memcpy_time(payload_bytes);
}

void Daemon::charge_then(sim::Time cpu, std::function<void()> fn) {
  sim::Engine& eng = net_.engine();
  const sim::Time start = std::max(eng.now(), cpu_free_);
  cpu_free_ = start + cpu;
  eng.at(cpu_free_, std::move(fn));
}

void Daemon::charge_msg(sim::Time cpu, Message&& m, Charged action) {
  const std::uint32_t slot = parked_.put(std::move(m));
  charge_then(cpu, [this, slot, action] {
    finish_charged(parked_.take(slot), action);
  });
}

void Daemon::finish_charged(Message&& m, Charged action) {
  if (down_) {
    // Daemon-process outage: the work is done (charged) but nothing leaves
    // the node — the frame holds at the delivery boundary until the
    // respawned daemon releases the backlog.
    held_.emplace_back(std::move(m), action);
    return;
  }
  if (action == Charged::kInject) {
    inject(std::move(m));
  } else {
    MPIV_CHECK(static_cast<bool>(up_), "daemon %u has no upper layer", node_);
    up_(std::move(m));
  }
}

void Daemon::inject(Message&& m) {
  m.wire_bytes = cost().header_bytes + m.payload.bytes + m.body.size();
  net_.send(std::move(m));
}

void Daemon::crash_daemon() {
  down_ = true;
  trace::emit(trace_, net_.engine().now(), trace::Kind::kFault,
              trace::kDaemonCrash, static_cast<std::int32_t>(node_),
              held_.size());
}

std::size_t Daemon::restart_daemon() {
  if (!down_) return 0;
  down_ = false;
  trace::emit(trace_, net_.engine().now(), trace::Kind::kRecovery,
              trace::kPhaseDaemonUp, static_cast<std::int32_t>(node_),
              held_.size());
  // Everything in held_ finished its charge BEFORE any charge still
  // pending on the CPU clock, so releasing the backlog now — and leaving
  // cpu_free_ alone — preserves the daemon's strict FIFO across the
  // outage: no frame overtakes an older one.
  const std::size_t drained = held_.size();
  while (!held_.empty()) {
    auto [m, action] = std::move(held_.front());
    held_.pop_front();
    finish_charged(std::move(m), action);
  }
  return drained;
}

void Daemon::submit_app(Message&& m) {
  ++app_msgs_sent_;
  app_bytes_sent_ += m.payload.bytes;
  const CostModel& c = cost();
  // ch_p4 has no separate daemon process: the whole send-side software cost
  // is the app handoff already charged by the caller.
  const sim::Time per_msg = channel_ == ChannelKind::kP4 ? 0 : c.v_per_msg;
  if (channel_ == ChannelKind::kV && m.payload.bytes > c.eager_threshold) {
    // Rendezvous: park the payload, ask the receiver for clearance.
    const std::uint64_t cookie = ++rdv_cookie_;
    Message rts;
    rts.src = m.src;
    rts.dst = m.dst;
    rts.kind = MsgKind::kRendezvousRts;
    rts.arg = cookie;
    rdv_pending_.emplace_back(cookie, std::move(m));
    charge_msg(per_msg, std::move(rts), Charged::kInject);
    return;
  }
  charge_msg(per_msg, std::move(m), Charged::kInject);
}

void Daemon::submit_ctl(Message&& m) {
  charge_msg(cost().ctl_per_msg, std::move(m), Charged::kInject);
}

void Daemon::reset() {
  rdv_pending_.clear();
  cpu_free_ = 0;
  // A node-level restart supersedes any daemon-process outage: the fresh
  // daemon starts live and the old backlog died with the node.
  down_ = false;
  held_.clear();
}

void Daemon::on_frame(Message&& m) {
  const CostModel& c = cost();
  switch (m.kind) {
    case MsgKind::kRendezvousRts: {
      // Grant clearance immediately (receive buffers are the daemon's).
      Message cts;
      cts.src = node_;
      cts.dst = m.src;
      cts.kind = MsgKind::kRendezvousCts;
      cts.arg = m.arg;
      charge_msg(c.ctl_per_msg, std::move(cts), Charged::kInject);
      return;
    }
    case MsgKind::kRendezvousCts: {
      const std::uint64_t cookie = m.arg;
      auto it = std::find_if(rdv_pending_.begin(), rdv_pending_.end(),
                             [cookie](const auto& p) { return p.first == cookie; });
      if (it == rdv_pending_.end()) return;  // stale (peer restarted)
      Message data = std::move(it->second);
      rdv_pending_.erase(it);
      charge_msg(c.v_per_msg, std::move(data), Charged::kInject);
      return;
    }
    default:
      break;
  }
  // Inbound delivery to the rank runtime: daemon handling + pipe crossing
  // for application data; control frames skip the pipe.
  const bool app_path =
      m.kind == MsgKind::kAppData || m.kind == MsgKind::kPayloadResend;
  sim::Time cpu;
  if (channel_ == ChannelKind::kP4) {
    cpu = c.p4_per_msg + c.memcpy_time(m.payload.bytes);
  } else if (app_path) {
    cpu = c.v_per_msg + c.pipe_cross + c.memcpy_time(m.payload.bytes);
  } else {
    cpu = c.ctl_per_msg;
  }
  charge_msg(cpu, std::move(m), Charged::kDeliverUp);
}

}  // namespace mpiv::net
