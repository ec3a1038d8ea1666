// The MPICH-V dispatcher (paper §IV-B.1): launches the runtime, monitors
// the execution, detects faults and relaunches crashed MPI processes.
//
// Fault *scheduling* (timed, stochastic and event-triggered injections)
// lives in fault::FaultEngine; the dispatcher executes rank faults the
// engine hands it and serializes recoveries: a fault that strikes while
// another rank is still collecting its determinants is queued until that
// recovery finishes, so survivors are always available to answer recovery
// requests. It also stamps the detect phase of every recovery timeline.
#pragma once

#include <deque>
#include <functional>
#include <set>
#include <vector>

#include "ckpt/checkpoint_server.hpp"
#include "coord/coordinated_protocol.hpp"
#include "fault/timeline.hpp"
#include "ftapi/services.hpp"
#include "mpi/comm.hpp"
#include "mpi/rank_runtime.hpp"
#include "net/service_port.hpp"
#include "ulfm/ulfm_protocol.hpp"

namespace mpiv::runtime {

/// How the dispatcher answers a rank crash (a protocol descriptor trait,
/// ProtocolEntry::recovery).
enum class RecoveryMode : std::uint8_t {
  kRestart,      // message logging: restart the victim, replay its log
  kCoordinated,  // global rollback to the last complete snapshot
  kPromote,      // replica hybrid: promote the shadow, no rollback
  kShrink,       // ULFM: revoke + repair, survivors continue without victim
};

class Dispatcher {
 public:
  Dispatcher(net::Network& net, const ftapi::NodeLayout& layout,
             std::vector<mpi::RankRuntime*> ranks, mpi::AppFactory factory,
             RecoveryMode mode, sim::Time detection_delay,
             fault::RecoveryTimeline* timeline = nullptr,
             sim::Time repair_cost = 0)
      : net_(net),
        layout_(layout),
        port_(net, layout.dispatcher_node()),
        ranks_(std::move(ranks)),
        factory_(std::move(factory)),
        mode_(mode),
        detection_delay_(detection_delay),
        repair_cost_(repair_cost),
        timeline_(timeline),
        coordinator_(net, layout) {
    net.attach(layout.dispatcher_node(),
               [this](net::Message&& m) { on_frame(std::move(m)); });
  }

  /// Starts every rank's application process.
  void launch_all() {
    for (mpi::RankRuntime* r : ranks_) r->launch(factory_);
  }

  /// Injects a fault into `rank` (the fault engine's rank-crash primitive).
  /// Queued if another recovery is still in flight; dropped once the run
  /// completed or the rank already finished.
  void fault(int rank) {
    if (all_done() || done_.count(rank) != 0 || dead_.count(rank) != 0 ||
        promoting_.count(rank) != 0) {
      return;
    }
    if (recovery_busy_) {
      pending_faults_.push_back(rank);
      return;
    }
    execute_fault(rank);
  }

  /// Ranks the fault engine may still crash (alive = not yet finished).
  std::vector<int> alive_ranks() const {
    std::vector<int> alive;
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      if (done_.count(static_cast<int>(r)) == 0) alive.push_back(static_cast<int>(r));
    }
    return alive;
  }

  /// Emits a control frame from the dispatcher node (fault-engine
  /// notifications, e.g. EL failover notices) at select-loop cost.
  void send_ctl(net::Message&& m) {
    port_.send_after(net_.cost().ctl_per_msg, std::move(m));
  }

  /// Every rank accounted for — and at least one survivor actually finished
  /// the workload (an all-dead shrink fills done_ with corpses; that is an
  /// abandonment, not a completion).
  bool all_done() const {
    return done_.size() == ranks_.size() && dead_.size() < ranks_.size();
  }
  sim::Time completion_time() const { return completion_time_; }
  std::uint64_t faults_injected() const { return faults_injected_; }
  const coord::WaveCoordinator& coordinator() const { return coordinator_; }

 private:
  void execute_fault(int rank) {
    const sim::Time now = port_.engine().now();
    if (mode_ == RecoveryMode::kPromote) {
      // Replica hybrid: no rollback and no serialized recovery window — the
      // hot shadow already holds the state. The victim's daemon parks its
      // traffic for the switchover stall; after the detection delay the
      // shadow serves as the primary and the held frames drain to it.
      // Promotions of distinct ranks overlap freely.
      ++faults_injected_;
      const bool held =
          ranks_[static_cast<std::size_t>(rank)]->promote_hold();
      promoting_.insert(rank);
      const int idx =
          timeline_ != nullptr ? timeline_->begin_promotion(rank, now) : -1;
      port_.engine().after(detection_delay_, [this, rank, idx, held] {
        const long drained =
            held ? ranks_[static_cast<std::size_t>(rank)]->promote_release()
                 : 0;
        if (timeline_ != nullptr) {
          timeline_->end_promotion(
              idx, port_.engine().now(),
              drained < 0 ? 0 : static_cast<std::uint64_t>(drained));
        }
        promoting_.erase(rank);
      });
      return;
    }
    if (mode_ == RecoveryMode::kShrink) {
      // ULFM shrink-and-repair: the victim is dead for good. After the
      // detection window the dispatcher broadcasts revoke notices to the
      // survivors; one repair_cost_ later (the priced agreement +
      // communicator rebuild) every survivor relaunches the workload on
      // the shrunk communicator — previously-finished survivors included,
      // since their completed work named the old communicator.
      ++faults_injected_;
      recovery_busy_ = true;
      ranks_[static_cast<std::size_t>(rank)]->crash();
      dead_.insert(rank);
      done_.insert(rank);
      std::vector<int> survivors;
      for (std::size_t r = 0; r < ranks_.size(); ++r) {
        if (dead_.count(static_cast<int>(r)) == 0) {
          survivors.push_back(static_cast<int>(r));
        }
      }
      const int idx =
          timeline_ != nullptr
              ? timeline_->begin_repair(
                    rank, static_cast<int>(survivors.size()), now)
              : -1;
      if (survivors.empty()) {
        // Nobody left to repair with: the run can only be abandoned (the
        // all_done() guard keeps the corpse-filled done_ set from
        // reporting completion).
        recovery_busy_ = false;
        return;
      }
      port_.engine().after(detection_delay_, [this, rank, idx, survivors] {
        if (timeline_ != nullptr) {
          timeline_->mark_revoke(idx, port_.engine().now());
        }
        for (const int s : survivors) {
          net::Message m;
          m.kind = net::MsgKind::kControl;
          m.tag = static_cast<std::int32_t>(ulfm::kUlfmRevoke);
          m.dst = layout_.rank_node(s);
          m.dst_rank = s;
          m.arg = static_cast<std::uint64_t>(rank);
          send_ctl(std::move(m));
        }
        port_.engine().after(repair_cost_, [this, rank, idx, survivors] {
          for (const int s : survivors) {
            done_.erase(s);
            ranks_[static_cast<std::size_t>(s)]->shrink_relaunch(
                factory_, survivors, /*victim=*/rank);
          }
          if (timeline_ != nullptr) {
            timeline_->end_repair(idx, port_.engine().now());
          }
          recovery_busy_ = false;
          if (!pending_faults_.empty()) {
            const int next = pending_faults_.front();
            pending_faults_.pop_front();
            fault(next);
          }
        });
      });
      return;
    }
    ++faults_injected_;
    recovery_busy_ = true;
    if (mode_ == RecoveryMode::kCoordinated) {
      // Global rollback: every rank dies and restarts from the last
      // globally-complete snapshot, or from scratch before the first wave
      // commits (a rank's newer, uncommitted image must not leak in).
      const std::uint64_t wave = coordinator_.last_complete();
      const std::uint64_t snapshot = wave != 0 ? wave : ckpt::kNoImage;
      done_.clear();
      for (mpi::RankRuntime* r : ranks_) r->crash();
      if (timeline_ != nullptr) {
        for (std::size_t r = 0; r < ranks_.size(); ++r) {
          timeline_->begin(static_cast<int>(r), now, /*coordinated=*/true);
        }
      }
      port_.engine().after(detection_delay_, [this, snapshot] {
        recoveries_outstanding_ = ranks_.size();
        for (std::size_t r = 0; r < ranks_.size(); ++r) {
          if (timeline_ != nullptr) {
            timeline_->mark_restart(static_cast<int>(r), port_.engine().now());
          }
          ranks_[r]->restart(factory_, snapshot);
        }
      });
      return;
    }
    ranks_[static_cast<std::size_t>(rank)]->crash();
    if (timeline_ != nullptr) timeline_->begin(rank, now, /*coordinated=*/false);
    done_.erase(rank);
    port_.engine().after(detection_delay_, [this, rank] {
      recoveries_outstanding_ = 1;
      if (timeline_ != nullptr) timeline_->mark_restart(rank, port_.engine().now());
      ranks_[static_cast<std::size_t>(rank)]->restart(factory_, 0);
    });
  }

  void on_frame(net::Message&& m) {
    if (m.kind != net::MsgKind::kControl) return;
    if (coordinator_.on_ctl(m)) return;
    switch (static_cast<mpi::CtlSub>(m.tag)) {
      case mpi::CtlSub::kAppDone:
        done_.insert(m.src_rank);
        // A shrink repair in flight voids survivors' completions (their
        // done_ entries are erased at relaunch), so completion is only
        // declared outside a recovery window.
        if (all_done() && !recovery_busy_) {
          completion_time_ = port_.engine().now();
          port_.engine().stop();
        }
        return;
      case mpi::CtlSub::kRecoveryDone:
        if (recoveries_outstanding_ > 0) --recoveries_outstanding_;
        if (recoveries_outstanding_ == 0) {
          recovery_busy_ = false;
          if (!pending_faults_.empty()) {
            const int next = pending_faults_.front();
            pending_faults_.pop_front();
            fault(next);
          }
        }
        return;
      default:
        return;
    }
  }

  net::Network& net_;
  ftapi::NodeLayout layout_;
  net::ServicePort port_;
  std::vector<mpi::RankRuntime*> ranks_;
  mpi::AppFactory factory_;
  RecoveryMode mode_;
  sim::Time detection_delay_;
  sim::Time repair_cost_;
  fault::RecoveryTimeline* timeline_;
  coord::WaveCoordinator coordinator_;

  std::set<int> done_;
  std::set<int> dead_;       // shrink mode: ranks excluded for good
  std::set<int> promoting_;  // promote mode: switchover stall in flight
  sim::Time completion_time_ = 0;
  bool recovery_busy_ = false;
  std::size_t recoveries_outstanding_ = 0;
  std::deque<int> pending_faults_;
  std::uint64_t faults_injected_ = 0;
};

}  // namespace mpiv::runtime
