// FaultEngine — owns a declarative fault Campaign and sequences it against
// a running cluster.
//
// The engine is the single place failures enter the simulation:
//  - timed and Poisson rank crashes (the paper's mid-run crash and Fig. 1's
//    fault rate included) go through the dispatcher's serialized fault
//    path,
//  - Event Logger shard crashes/outages drive the elog failover machinery
//    (service down -> detection -> successor mounts the persistent log ->
//    directory re-home -> re-homed ranks re-persist their unacked suffix),
//  - checkpoint-server outages toggle the service node (the disk persists;
//    clients ride it out with retransmits),
//  - link faults perturb the network (latency spikes, drop-with-retransmit
//    windows).
// Event-triggered injections ("kill rank 3 on its 5th checkpoint", "crash
// shard 0 once N determinants are stored") arrive through the
// ftapi::FaultObserver hooks the cluster wires into the rank runtimes and
// EL shards.
#pragma once

#include <cstdint>
#include <vector>

#include "elog/el_directory.hpp"
#include "fault/campaign.hpp"
#include "fault/timeline.hpp"
#include "ftapi/services.hpp"
#include "net/network.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace mpiv::elog {
class EventLogger;
}
namespace mpiv::mpi {
class RankRuntime;
}
namespace mpiv::runtime {
class Dispatcher;
}

namespace mpiv::fault {

class FaultEngine final : public ftapi::FaultObserver {
 public:
  /// The cluster services the engine acts on from construction on, wired
  /// by runtime::Cluster. Only `trace` is optional.
  struct Bindings {
    sim::Engine& eng;
    net::Network& net;
    ftapi::NodeLayout layout;
    elog::ElDirectory& directory;
    /// Daemon outage and split-brain reconcile records land here.
    RecoveryTimeline& timeline;
    /// The cluster's engine-side trace lane (null = tracing off).
    trace::Lane* trace = nullptr;
    /// Cluster-level failure-detection delay: the default suspicion window
    /// for a service cut when the campaign does not override it.
    sim::Time detection_delay = 0;
  };

  /// Schedules nothing: the injections are armed by arm().
  FaultEngine(Campaign campaign, std::uint64_t seed, Bindings b);

  /// Hands over the run's moving parts — every EL shard (standby
  /// included), the dispatcher that serializes rank crashes and the rank
  /// runtimes whose daemons fail on their own — then schedules the timed
  /// and stochastic injections in campaign order. Call once, when all
  /// three exist and before the run starts; no observer trigger can fire
  /// earlier.
  void arm(std::vector<elog::EventLogger*> els, runtime::Dispatcher& dispatcher,
           std::vector<mpi::RankRuntime*> ranks);

  // --- execution-event triggers (ftapi::FaultObserver) ---------------------
  void on_rank_checkpoint(int rank, std::uint64_t completed) override;
  void on_el_stored(int shard, std::uint64_t stored) override;

  const FaultCounts& counts() const { return counts_; }
  /// Time of the first EL shard loss (0 = none): the piggyback-regrowth
  /// reference point. The reference stays valid, and tracks the value, for
  /// the lifetime of the engine (RankHooks::el_fault_at reads it live).
  const sim::Time& first_el_fault() const { return first_el_fault_; }

 private:
  // --- one injection's action (execute() dispatches) -----------------------
  void crash_el_shard(int shard);
  void el_outage(int shard, sim::Time duration);
  void ckpt_outage(sim::Time duration);
  void link_fault(int rank, Action action, sim::Time magnitude,
                  sim::Time duration);
  /// Kills rank `rank`'s communication daemon; the dispatcher respawns it
  /// `downtime` later (0 = the campaign's daemon_restart_delay). No-op on a
  /// daemon already down.
  void crash_daemon(int rank, sim::Time downtime);
  /// Opens a partition window between the two groups. Each side may name
  /// service endpoints (EL shards by id, kCkptService for the checkpoint
  /// server) alongside its ranks; cutting a serving EL shard from clients
  /// arms the suspicion -> split-brain -> heal-time reconcile machinery.
  void partition(const std::vector<int>& group_a,
                 const std::vector<int>& group_b, sim::Time duration,
                 sim::Time heal_backoff, const std::vector<int>& services_a,
                 const std::vector<int>& services_b);

  void fire(std::size_t idx);
  void execute(const Injection& inj);
  void trigger_async(std::size_t idx);
  void arm_poisson(std::size_t idx);
  void fail_over(int dead_shard);
  void announce_failover(const std::vector<int>& ranks, int dead_shard,
                         int successor);
  /// True when every live moved rank can reach shard `succ` right now.
  bool successor_reachable(int succ, const std::vector<int>& ranks) const;
  /// Detection-delay check behind a service cut: still-unreachable clients
  /// of a live shard are re-homed onto a reachable successor (split-brain).
  void suspect_shard(int shard, sim::Time cut_at, sim::Time heal_at);
  /// Heal-time merge of the stale shard's live log into the successor's.
  void reconcile(int stale_shard, int successor, std::vector<int> ranks,
                 int record_idx);

  Campaign campaign_;
  Bindings b_;
  std::vector<elog::EventLogger*> els_;  // set by arm()
  runtime::Dispatcher* dispatcher_ = nullptr;
  std::vector<mpi::RankRuntime*> ranks_;
  util::Rng rng_;
  std::vector<char> fired_;      // one-shot latch per injection
  std::vector<char> in_outage_;  // per shard: down transiently, will return
  /// Per rank: daemon-outage generation. A rank crash can end an outage
  /// early (the node restart respawns the daemon), so the respawn timer
  /// captures its generation and only acts if no newer outage started —
  /// the live daemon state (RankRuntime::daemon_down), not this counter,
  /// decides whether a new injection may fire.
  std::vector<std::uint32_t> daemon_gen_;
  FaultCounts counts_;
  sim::Time first_el_fault_ = 0;
};

}  // namespace mpiv::fault
