// Cluster: one self-contained MPICH-V deployment (Fig. 5 of the paper) —
// N compute nodes (MPI process + communication daemon each), the Event
// Logger, the checkpoint server, and the dispatcher with its checkpoint
// scheduler, all on one simulated Fast Ethernet switch.
//
// This is the top-level entry point of the library: configure, call run()
// with an application factory, read the report.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint_server.hpp"
#include "ckpt/scheduler.hpp"
#include "causal/strategy.hpp"
#include "elog/el_directory.hpp"
#include "elog/event_logger.hpp"
#include "fault/campaign.hpp"
#include "fault/timeline.hpp"
#include "ftapi/stats.hpp"
#include "metrics/metrics.hpp"
#include "mpi/rank_runtime.hpp"
#include "runtime/dispatcher.hpp"
#include "trace/trace.hpp"

namespace mpiv::fault {
class FaultEngine;
}

namespace mpiv::runtime {

enum class ProtocolKind : std::uint8_t {
  kP4,           // MPICH-P4 reference: direct channel, no fault tolerance
  kVdummy,       // MPICH-V framework without fault tolerance
  kCausal,       // causal message logging (strategy selects the reduction)
  kPessimistic,  // MPICH-V2-style pessimistic logging
  kCoordinated,  // Chandy-Lamport coordinated checkpointing
  kReplica,      // replication hybrid: shadow replica absorbs the crash
  kUlfm,         // ULFM-style shrink-and-repair: survivors continue without
                 // the victim on a rebuilt communicator
};

/// One protocol variant of the evaluation ("p4", "vdummy", "coordinated",
/// "vcausal:el", "manetho:noel", ...). Non-causal protocols ignore the
/// strategy; the Event Logger stays on for them.
struct Variant {
  ProtocolKind protocol = ProtocolKind::kVdummy;
  causal::StrategyKind strategy = causal::StrategyKind::kVcausal;
  bool event_logger = true;

  bool operator==(const Variant&) const = default;
};

/// Everything one cluster run is configured by. Each member is set from
/// one scenario key (docs/SCENARIOS.md); scenario::ScenarioSpec derives
/// from this struct, so these are the only defaults.
struct ClusterConfig {
  int nranks = 4;
  Variant variant;
  /// Number of Event Logger shards (paper §VI future work: > 1 distributes
  /// determinant logging; shards exchange their stable-clock arrays).
  int el_shards = 1;
  /// Cold standby EL shard nodes: provisioned and exchanging clocks but
  /// serving no ranks until a shard crash fails over onto one.
  int el_standby = 0;
  net::CostModel cost{};
  /// Master seed: workload RNG, checkpoint scheduler, fault streams.
  std::uint64_t seed = 1;

  ckpt::Policy ckpt_policy = ckpt::Policy::kNone;
  sim::Time ckpt_interval = 0;

  /// Every fault of the run (rank and daemon crashes, EL shard crashes,
  /// checkpoint-server outages, link perturbations, partitions), executed
  /// by the fault engine (the `[faults]` section of scenario files).
  fault::Campaign campaign;
  sim::Time detection_delay = 250 * sim::kMillisecond;

  /// Replica hybrid: the shadow is refreshed with one sync frame every this
  /// many application sends (`replica.sync_interval`; <= 1 = every send).
  int replica_sync_interval = 8;
  /// ULFM shrink-and-repair: the priced agreement + communicator-rebuild
  /// window between revoke and the survivors' relaunch (`ulfm.repair_cost`).
  sim::Time ulfm_repair_cost = 10 * sim::kMillisecond;

  /// Per-rank trace lanes (trace::Config{} = disabled, zero overhead).
  trace::Config trace{};

  /// Aggregate metrics + virtual-time sampler (metrics::Config{} =
  /// disabled: no registry, no sampler armed, identical event schedule).
  metrics::Config metrics{};

  /// Safety net for runaway simulations (0 = unlimited).
  sim::Time max_sim_time = 4L * 3600 * sim::kSecond;
};

/// A protocol's descriptor: the traits the runtime and the scenario layer
/// read instead of switching on ProtocolKind, plus how to instantiate its
/// per-rank VProtocol. scenario/registry.cpp registers one per kind.
struct ProtocolEntry {
  ProtocolKind kind;
  const char* name;     // registry and variant name ("replica", "causal")
  const char* display;  // report label; a causal label names the strategy
  const char* summary;
  bool fault_tolerant;
  /// Causal message logging: takes a piggyback strategy.
  bool causal;
  /// kP4 is the direct channel, outside the daemon's fault tolerance: no
  /// fault plan may run on it.
  net::ChannelKind channel;
  /// How the dispatcher answers a rank crash.
  RecoveryMode recovery;
  /// Checkpoints are global waves: any set policy checkpoints every rank
  /// at once.
  bool global_waves;
  std::unique_ptr<ftapi::VProtocol> (*make)(const ClusterConfig&);

  /// The variant as `.scn` files name it ("replica", "manetho:noel").
  std::string variant_name(const Variant& v) const;
  /// The report label ("Replica hybrid", "Manetho (no EL)").
  std::string label(const Variant& v) const;
};

/// The registered descriptor of `kind` (panics on an unregistered kind).
const ProtocolEntry& protocol_entry(ProtocolKind kind);

/// The cross-field rules every ClusterConfig obeys, shared by the two
/// front doors: scenario::validate reports each violation as a SpecError,
/// the Cluster constructor panics. `fail` receives one message per
/// violated rule (and may throw).
template <class Fail>
void check_config(const ClusterConfig& cfg, Fail&& fail) {
  using std::to_string;
  if (cfg.nranks < 1 || cfg.nranks > 4096) {
    fail("nranks must be in [1, 4096] (got " + to_string(cfg.nranks) + ")");
  }
  if (cfg.el_shards < 1) {
    fail("el_shards must be >= 1 (got " + to_string(cfg.el_shards) + ")");
  }
  if (cfg.el_shards > cfg.nranks) {
    fail("el_shards (" + to_string(cfg.el_shards) + ") cannot exceed nranks (" +
         to_string(cfg.nranks) + ")");
  }
  const ProtocolEntry& p = protocol_entry(cfg.variant.protocol);
  const auto needs_el = [&](const char* knob, int n) {
    fail(std::string(knob) + " = " + to_string(n) +
         " requires event_logger = true, but variant '" +
         p.variant_name(cfg.variant) +
         "' disables the event logger");
  };
  // One shard is no sharding, so it stays legal without an event logger.
  if (cfg.el_shards > 1 && !cfg.variant.event_logger) {
    needs_el("el_shards", cfg.el_shards);
  }
  if (cfg.el_standby < 0 || cfg.el_standby > 64) {
    fail("el_standby must be in [0, 64] (got " + to_string(cfg.el_standby) +
         ")");
  }
  if (cfg.el_standby > 0 && !cfg.variant.event_logger) {
    needs_el("el_standby", cfg.el_standby);
  }
  if (p.channel == net::ChannelKind::kP4 && !cfg.campaign.empty()) {
    fail(std::string(p.display) +
         " is not fault tolerant — remove the fault plan");
  }
  // Every injection must name a real target and an implementable
  // trigger/action combination before anything is scheduled.
  fault::validate_campaign(cfg.campaign, cfg.nranks,
                           cfg.el_shards + cfg.el_standby,
                           cfg.variant.event_logger, fail);
}

struct ClusterReport {
  bool completed = false;
  sim::Time completion_time = 0;
  std::uint64_t faults_injected = 0;
  std::vector<ftapi::RankStats> rank_stats;
  ftapi::ElStats el_stats;
  /// Per-recovery phase breakdown (detect / image / collect / replay).
  std::vector<fault::RecoveryRecord> recoveries;
  /// Daemon-process outages (failure domain split from the rank: the app
  /// survived, stalled, while the dispatcher respawned the daemon).
  std::vector<fault::DaemonOutageRecord> daemon_outages;
  /// Split-brain EL reconciliations (service-side partitions: suspected
  /// failover behind the cut, heal-time merge of the two live logs).
  std::vector<fault::ElReconcileRecord> el_reconciles;
  /// ULFM communicator repairs (revoke -> agreement -> shrunk relaunch).
  std::vector<fault::RepairRecord> repairs;
  /// Replica shadow promotions (crash absorbed with no rollback).
  std::vector<fault::PromotionRecord> promotions;
  /// What the fault engine actually injected.
  fault::FaultCounts fault_counts;
  sim::Time first_el_fault = 0;
  /// Frozen metrics (default Snapshot with enabled = false when metrics
  /// were off — consumers key off that flag, keeping metrics-off report
  /// output byte-identical to the pre-metrics shape).
  metrics::Snapshot metrics;

  ftapi::RankStats totals() const {
    ftapi::RankStats t;
    for (const ftapi::RankStats& r : rank_stats) t.merge(r);
    return t;
  }
  /// Piggybacked bytes as a percentage of total application bytes (Fig. 7).
  double piggyback_pct() const {
    const ftapi::RankStats t = totals();
    return t.app_bytes_sent == 0
               ? 0.0
               : 100.0 * static_cast<double>(t.pb_bytes_sent) /
                     static_cast<double>(t.app_bytes_sent);
  }
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Engine& engine() { return eng_; }
  net::Network& network() { return net_; }
  mpi::RankRuntime& rank(int r) { return *ranks_[static_cast<std::size_t>(r)]; }
  elog::EventLogger& event_logger(int shard = 0) { return *els_[static_cast<std::size_t>(shard)]; }
  ckpt::CheckpointServer& checkpoint_server() { return *ckpt_; }
  const elog::ElDirectory& el_directory() const { return el_dir_; }
  const fault::RecoveryTimeline& timeline() const { return timeline_; }
  const ClusterConfig& config() const { return cfg_; }
  /// Null when tracing is disabled.
  trace::TraceSink* trace_sink() { return trace_.get(); }

  /// Human-readable protocol tag ("Manetho (no EL)", "MPICH-P4", ...).
  std::string protocol_label() const;

  /// Runs `factory` on every rank to completion (or until max_sim_time).
  ClusterReport run(mpi::AppFactory factory);

 private:
  void arm_metrics();
  void fold_metrics(ClusterReport& rep);

  ClusterConfig cfg_;
  sim::Engine eng_;
  ftapi::NodeLayout layout_;
  net::Network net_;
  std::vector<ftapi::RankStats> stats_;
  ftapi::ElStats el_stats_;
  elog::ElDirectory el_dir_;
  fault::RecoveryTimeline timeline_;
  std::unique_ptr<trace::TraceSink> trace_;
  std::unique_ptr<metrics::Registry> metrics_;
  std::unique_ptr<metrics::Sampler> sampler_;
  std::unique_ptr<fault::FaultEngine> fault_engine_;
  std::vector<std::unique_ptr<mpi::RankRuntime>> ranks_;
  std::vector<std::unique_ptr<elog::EventLogger>> els_;
  std::unique_ptr<ckpt::CheckpointServer> ckpt_;
  std::unique_ptr<ckpt::CheckpointScheduler> sched_;
  std::unique_ptr<Dispatcher> dispatcher_;
};

}  // namespace mpiv::runtime
