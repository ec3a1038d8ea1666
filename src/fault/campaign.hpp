// Declarative fault campaigns — the input language of the fault-injection
// engine (paper §V-VI context: the evaluation's single pre-scheduled crash
// generalized to every failure the architecture can absorb).
//
// A Campaign is a list of Injections. Each injection names a target (a
// compute rank, an Event Logger shard, the checkpoint server, or a network
// link), a trigger (a wall-clock time, a seeded Poisson process, or an
// execution event such as "the victim's Nth checkpoint commit" / "N
// determinants stored at the shard") and an action (permanent crash,
// transient outage, latency spike, drop-with-retransmit window).
// Injections may overlap and cascade; the FaultEngine sequences them
// against the simulated cluster.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace mpiv::fault {

enum class Target : std::uint8_t {
  kRank,        // a compute rank (MPI process + daemon die together)
  kDaemon,      // only the rank's communication daemon (the app survives,
                // blocked, until the dispatcher respawns the daemon)
  kElShard,     // one Event Logger shard
  kCkptServer,  // the checkpoint server (service outage; disk persists)
  kLink,        // a rank's network link (NIC-side perturbation)
  kFabric,      // the switch itself (partial partitions between rank sets)
};

enum class Trigger : std::uint8_t {
  kAt,            // fire at absolute simulated time `at`
  kRate,          // seeded Poisson process at `rate_per_minute`
  kOnCheckpoint,  // fire when the target rank commits its `nth` checkpoint
  kOnElStored,    // fire when the shard has stored `nth` determinants
};

enum class Action : std::uint8_t {
  kCrash,         // permanent loss (ranks recover via restart; EL via
                  // failover; daemons via dispatcher respawn)
  kOutage,        // transient: service down for `duration`, then back
  kLatencySpike,  // +`magnitude` latency on the link for `duration`
  kDropWindow,    // frames toward the link held for `duration`, then
                  // retransmitted after `magnitude` backoff (TCP-style)
  kPartition,     // group_a <-> group_b mutually unreachable for `duration`;
                  // crossing frames held, redelivered `magnitude` after heal
};

struct Injection {
  Target target = Target::kRank;
  int index = 0;  // rank id / shard id / link's rank id (kCkptServer /
                  // kFabric: unused)

  Trigger trigger = Trigger::kAt;
  sim::Time at = 0;              // kAt
  double rate_per_minute = 0.0;  // kRate; index < 0 picks a random live rank
  std::uint64_t nth = 1;         // kOnCheckpoint / kOnElStored threshold

  Action action = Action::kCrash;
  sim::Time duration = 0;   // kOutage / kLatencySpike / kDropWindow /
                            // kPartition window; kDaemon crash: optional
                            // per-injection downtime (0 = campaign default)
  sim::Time magnitude = 0;  // kLatencySpike extra latency / kDropWindow and
                            // kPartition heal backoff

  // kPartition only: the two mutually unreachable rank sets.
  std::vector<int> group_a;
  std::vector<int> group_b;
  // kPartition only: service endpoints cut alongside the ranks. Values
  // >= 0 name an Event Logger shard (serving or standby); kCkptService
  // names the checkpoint server. Empty on rank-only partitions.
  std::vector<int> services_a;
  std::vector<int> services_b;

  bool cuts_services() const {
    return !services_a.empty() || !services_b.empty();
  }
};

/// A crash of compute rank `rank` at time `at`.
inline Injection rank_crash_at(sim::Time at, int rank) {
  Injection inj;
  inj.at = at;
  inj.index = rank;
  return inj;
}

/// A seeded Poisson crash stream over random live ranks (kRank: the
/// paper's fault model) or over their daemons (kDaemon).
inline Injection crash_stream(Target target, double rate_per_minute) {
  Injection inj;
  inj.target = target;
  inj.index = -1;
  inj.trigger = Trigger::kRate;
  inj.rate_per_minute = rate_per_minute;
  return inj;
}

/// Sentinel inside Injection::services_a/b: the checkpoint server.
inline constexpr int kCkptService = -1;

/// What the engine does with a dead Event Logger shard.
enum class ElFailover : std::uint8_t {
  kReassign,  // surviving serving shard mounts the log and absorbs the ranks
  kStandby,   // a provisioned cold standby shard takes over (falls back to
              // reassign when no standby is available)
};

struct Campaign {
  std::vector<Injection> injections;

  ElFailover el_failover = ElFailover::kReassign;
  /// Delay between a shard crash and the successor serving its ranks
  /// (detection + log mount initiation).
  sim::Time el_failover_delay = 25 * sim::kMillisecond;
  /// Delay between a daemon crash and the dispatcher's respawned daemon
  /// serving the node again (failure detection + process restart +
  /// reconnect). Per-injection `duration` overrides it when > 0.
  sim::Time daemon_restart_delay = 40 * sim::kMillisecond;
  /// Client-side retransmit interval for unacknowledged checkpoint-server
  /// and Event Logger requests. Armed only while a campaign is active so
  /// fault-free runs schedule no extra events.
  sim::Time service_retry = 500 * sim::kMillisecond;
  /// How long a service cut must persist before the directory declares the
  /// cut-off shard suspect and fails its unreachable clients over to a
  /// reachable successor (the split-brain trigger). -1 inherits the
  /// cluster-level detection_delay used for rank-crash detection.
  sim::Time detection_delay = -1;

  bool empty() const { return injections.empty(); }
};

/// Per-run tally of what the engine actually injected (ClusterReport).
struct FaultCounts {
  std::uint64_t rank_crashes = 0;
  std::uint64_t daemon_crashes = 0;
  std::uint64_t el_crashes = 0;
  std::uint64_t el_outages = 0;
  std::uint64_t el_failovers = 0;
  std::uint64_t ckpt_outages = 0;
  std::uint64_t link_faults = 0;
  std::uint64_t partitions = 0;
  // Derived events, like el_failovers: suspected failovers fired behind a
  // service cut, and the heal-time log merges they forced.
  std::uint64_t el_suspects = 0;
  std::uint64_t el_reconciles = 0;

  std::uint64_t total() const {
    return rank_crashes + daemon_crashes + el_crashes + el_outages +
           ckpt_outages + link_faults + partitions;
  }
};

inline const char* el_failover_name(ElFailover f) {
  switch (f) {
    case ElFailover::kReassign: return "reassign";
    case ElFailover::kStandby: return "standby";
  }
  return "?";
}

/// Campaign sanity — the single rule set both entry points share:
/// scenario::validate reports through SpecError, runtime::Cluster through
/// MPIV_CHECK. `fail` receives one message per violation (and may throw).
template <class Fail>
void validate_campaign(const Campaign& campaign, int nranks, int total_shards,
                       bool event_logger, Fail&& fail) {
  if (campaign.detection_delay != -1 && campaign.detection_delay <= 0) {
    fail("faults.detection_delay must be positive (-1 inherits the "
         "cluster detection delay)");
  }
  const std::vector<Injection>& all = campaign.injections;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Injection& inj = all[i];
    switch (inj.trigger) {
      case Trigger::kAt:
        if (inj.at <= 0) fail("campaign injection scheduled at t <= 0");
        break;
      case Trigger::kRate:
        if (inj.rate_per_minute <= 0) {
          fail("campaign rate trigger needs a positive rate");
        }
        if (inj.target != Target::kRank && inj.target != Target::kDaemon) {
          fail("rate triggers target compute ranks or their daemons");
        }
        break;
      case Trigger::kOnCheckpoint:
        if (inj.target != Target::kRank || inj.nth < 1) {
          fail("checkpoint triggers kill the checkpointing rank (nth >= 1)");
        }
        break;
      case Trigger::kOnElStored:
        if (inj.target != Target::kElShard || inj.nth < 1) {
          fail("stored-count triggers crash the counting EL shard (nth >= 1)");
        }
        break;
    }
    switch (inj.target) {
      case Target::kRank:
        if (inj.index >= nranks ||
            (inj.index < 0 && inj.trigger != Trigger::kRate)) {
          fail("campaign names rank " + std::to_string(inj.index) +
               " but only ranks 0.." + std::to_string(nranks - 1) + " exist");
        }
        if (inj.action != Action::kCrash) {
          fail("rank faults are crashes (use link faults for degradation)");
        }
        for (std::size_t j = 0; inj.trigger == Trigger::kAt && j < i; ++j) {
          const Injection& prev = all[j];
          if (prev.target == Target::kRank && prev.trigger == Trigger::kAt &&
              prev.index == inj.index && prev.at == inj.at) {
            fail("duplicate fault: rank " + std::to_string(inj.index) +
                 " at t = " + std::to_string(inj.at) + "ns named twice");
            break;
          }
        }
        break;
      case Target::kDaemon:
        if (inj.index >= nranks ||
            (inj.index < 0 && inj.trigger != Trigger::kRate)) {
          fail("campaign names the daemon of rank " +
               std::to_string(inj.index) + " but only ranks 0.." +
               std::to_string(nranks - 1) + " exist");
        }
        if (inj.action != Action::kCrash) {
          fail("daemon faults are crashes (the dispatcher respawns the "
               "daemon after the restart delay)");
        }
        if (inj.duration < 0) {
          fail("daemon downtime override must be >= 0");
        }
        break;
      case Target::kElShard:
        if (!event_logger) {
          fail("campaign crashes an EL shard but the variant disables the "
               "event logger");
        }
        if (inj.index < 0 || inj.index >= total_shards) {
          fail("campaign names EL shard " + std::to_string(inj.index) +
               " but only shards 0.." + std::to_string(total_shards - 1) +
               " exist");
        }
        if (inj.action != Action::kCrash && inj.action != Action::kOutage) {
          fail("EL shard faults are crashes or outages");
        }
        if (inj.action == Action::kOutage && inj.duration <= 0) {
          fail("EL outage needs a positive duration");
        }
        if (inj.action == Action::kCrash && total_shards < 2) {
          fail("a permanent EL shard crash needs a failover target — add "
               "el_shards or el_standby, or use el_outage");
        }
        break;
      case Target::kCkptServer:
        if (inj.action != Action::kOutage || inj.duration <= 0) {
          fail("checkpoint-server faults are outages with a duration (the "
               "image store is persistent)");
        }
        break;
      case Target::kLink:
        if (inj.index < 0 || inj.index >= nranks) {
          fail("campaign perturbs the link of rank " +
               std::to_string(inj.index) + " but only ranks 0.." +
               std::to_string(nranks - 1) + " exist");
        }
        if (inj.action != Action::kLatencySpike &&
            inj.action != Action::kDropWindow) {
          fail("link faults are latency spikes or drop windows");
        }
        if (inj.duration <= 0) fail("link faults need a positive duration");
        if (inj.action == Action::kLatencySpike && inj.magnitude <= 0) {
          fail("latency spikes need a positive magnitude");
        }
        break;
      case Target::kFabric: {
        if (inj.action != Action::kPartition) {
          fail("fabric faults are partitions");
        }
        if (inj.trigger != Trigger::kAt) {
          fail("partitions are timed (trigger = at)");
        }
        if (inj.duration <= 0) fail("partitions need a positive duration");
        if (inj.group_a.empty() + inj.services_a.empty() == 2 ||
            inj.group_b.empty() + inj.services_b.empty() == 2) {
          fail("a partition needs two non-empty groups (ranks or services)");
        }
        for (const std::vector<int>* g : {&inj.group_a, &inj.group_b}) {
          for (const int r : *g) {
            if (r < 0 || r >= nranks) {
              fail("partition group names rank " + std::to_string(r) +
                   " but only ranks 0.." + std::to_string(nranks - 1) +
                   " exist");
            }
          }
        }
        for (const std::vector<int>* g : {&inj.services_a, &inj.services_b}) {
          for (const int s : *g) {
            if (s == kCkptService) continue;
            if (!event_logger) {
              fail("partition group cuts an EL shard but the variant "
                   "disables the event logger");
            } else if (s < 0 || s >= total_shards) {
              fail("partition group names EL shard " + std::to_string(s) +
                   " but only shards 0.." + std::to_string(total_shards - 1) +
                   " exist");
            }
          }
        }
        for (const int a : inj.group_a) {
          for (const int b : inj.group_b) {
            if (a == b) {
              fail("rank " + std::to_string(a) +
                   " appears on both sides of a partition");
            }
          }
        }
        for (const int a : inj.services_a) {
          for (const int b : inj.services_b) {
            if (a == b) {
              fail(std::string(a == kCkptService
                                   ? "the checkpoint server"
                                   : "EL shard " + std::to_string(a)) +
                   " appears on both sides of a partition");
            }
          }
        }
        break;
      }
    }
  }
}

}  // namespace mpiv::fault
