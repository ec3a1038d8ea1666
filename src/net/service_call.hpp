// One request to a crashable stable service (Event Logger shard, checkpoint
// server): send it, await the reply, resend it under a rule, and drop stale
// replies. A client keeps one ServiceCall per kind of request and routes
// that kind's reply frames into deliver().
//
// With retry == 0 (fault-free runs) a call sends once and waits, arming no
// timer. Otherwise it looks for the reply every `retry` and asks its Resend
// rule whether the request must go out again.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "util/check.hpp"

namespace mpiv::net {

class ServiceCall {
 public:
  enum class Resend {
    kEveryPeriod,  // at every deadline that passes without a reply
    /// Only if the target was down at send time or has crashed since (its
    /// Network::node_epoch moved). Partitions, drop windows and daemon
    /// outages hold frames and deliver them later, so a live but slow
    /// server gets another period instead of a second copy to queue.
    kIfTargetLost,
  };
  /// Asked before every (re)send; kNoNode ends the call without a reply.
  using Resolve = std::function<NodeId()>;
  /// Emits the request to `target`, once per (re)send.
  using Send = std::function<void(NodeId target)>;

  ServiceCall(Network& net, sim::Time retry)
      : net_(net), retry_(retry), waiters_(net.engine()) {}

  /// A call may send more than once, so a sender must copy, not move.
  bool resends() const { return retry_ > 0; }

  /// One exchange: the reply, or nothing once `resolve` gives up. One call
  /// at a time.
  sim::Task<std::optional<Message>> call(Resolve resolve, Send send,
                                         Resend rule) {
    MPIV_CHECK(!awaiting_, "service call already in flight");
    awaiting_ = true;
    sim::Engine& eng = net_.engine();
    for (NodeId target = resolve(); target != kNoNode; target = resolve()) {
      send(target);
      if (retry_ <= 0) {
        while (!reply_) co_await waiters_.wait();
        break;
      }
      const bool down_at_send = !net_.node_up(target);
      const std::uint64_t epoch = net_.node_epoch(target);
      bool resend = false;
      while (!reply_ && !resend) {
        // The deadline wakes the caller without a reply to look again.
        const sim::Time deadline = eng.now() + retry_;
        eng.at(deadline, [this] { waiters_.wake_all(); });
        while (!reply_ && eng.now() < deadline) co_await waiters_.wait();
        resend = rule == Resend::kEveryPeriod || down_at_send ||
                 net_.node_epoch(target) != epoch;
      }
      if (reply_) break;
    }
    std::optional<Message> reply = std::move(reply_);
    cancel();
    co_return reply;
  }

  /// Hands a reply frame to the call in flight; false (frame dropped) when
  /// none awaits one. A later reply that arrives before the caller resumes
  /// replaces the earlier one.
  bool deliver(Message&& m) {
    if (!awaiting_) return false;
    reply_ = std::move(m);
    waiters_.wake_all();
    return true;
  }

  /// Abandons the call in flight (its process died): a reply arriving
  /// afterwards is not taken by the next call.
  void cancel() { awaiting_ = false; reply_.reset(); }

 private:
  Network& net_;
  sim::Time retry_;
  bool awaiting_ = false;
  sim::WaitQueue waiters_;        // the caller, parked for a reply
  std::optional<Message> reply_;  // set = replied
};

}  // namespace mpiv::net
