#include "fault/engine.hpp"

#include "elog/event_logger.hpp"
#include "mpi/rank_runtime.hpp"
#include "runtime/dispatcher.hpp"

namespace mpiv::fault {

FaultEngine::FaultEngine(Campaign campaign, std::uint64_t seed, Bindings b)
    : campaign_(std::move(campaign)), b_(std::move(b)) {
  rng_.reseed(seed ^ 0xFA17'2005ULL);
  fired_.assign(campaign_.injections.size(), 0);
  in_outage_.assign(static_cast<std::size_t>(b_.directory.total_shards()), 0);
  daemon_gen_.assign(static_cast<std::size_t>(b_.layout.nranks), 0);
}

void FaultEngine::arm(std::vector<elog::EventLogger*> els,
                      runtime::Dispatcher& dispatcher,
                      std::vector<mpi::RankRuntime*> ranks) {
  els_ = std::move(els);
  dispatcher_ = &dispatcher;
  ranks_ = std::move(ranks);
  for (std::size_t i = 0; i < campaign_.injections.size(); ++i) {
    const Injection& inj = campaign_.injections[i];
    switch (inj.trigger) {
      case Trigger::kAt:
        b_.eng.at(inj.at, [this, i] { fire(i); });
        break;
      case Trigger::kRate:
        arm_poisson(i);
        break;
      case Trigger::kOnCheckpoint:
      case Trigger::kOnElStored:
        break;  // observer-driven
    }
  }
}

void FaultEngine::on_rank_checkpoint(int rank, std::uint64_t completed) {
  for (std::size_t i = 0; i < campaign_.injections.size(); ++i) {
    const Injection& inj = campaign_.injections[i];
    if (fired_[i] || inj.trigger != Trigger::kOnCheckpoint) continue;
    if (inj.index == rank && completed >= inj.nth) trigger_async(i);
  }
}

void FaultEngine::on_el_stored(int shard, std::uint64_t stored) {
  for (std::size_t i = 0; i < campaign_.injections.size(); ++i) {
    const Injection& inj = campaign_.injections[i];
    if (fired_[i] || inj.trigger != Trigger::kOnElStored) continue;
    if (inj.index == shard && stored >= inj.nth) trigger_async(i);
  }
}

void FaultEngine::trigger_async(std::size_t idx) {
  // Observer notifications arrive from inside the observed component — the
  // checkpointing rank's own coroutine, the EL's service loop. Injecting
  // there would have a process kill itself mid-execution; a zero-delay
  // engine event detaches the injection (and models the detector hop).
  fired_[idx] = 1;
  b_.eng.at(b_.eng.now(), [this, idx] {
    if (!dispatcher_->all_done()) execute(campaign_.injections[idx]);
  });
}

void FaultEngine::fire(std::size_t idx) {
  if (fired_[idx] || dispatcher_->all_done()) return;
  fired_[idx] = 1;
  execute(campaign_.injections[idx]);
}

void FaultEngine::execute(const Injection& inj) {
  switch (inj.target) {
    case Target::kRank:
      ++counts_.rank_crashes;
      dispatcher_->fault(inj.index);
      return;
    case Target::kDaemon:
      crash_daemon(inj.index, inj.duration);
      return;
    case Target::kFabric:
      partition(inj.group_a, inj.group_b, inj.duration, inj.magnitude,
                inj.services_a, inj.services_b);
      return;
    case Target::kElShard:
      if (inj.action == Action::kOutage) {
        el_outage(inj.index, inj.duration);
      } else {
        crash_el_shard(inj.index);
      }
      return;
    case Target::kCkptServer:
      ckpt_outage(inj.duration);
      return;
    case Target::kLink:
      link_fault(inj.index, inj.action, inj.magnitude, inj.duration);
      return;
  }
}

void FaultEngine::arm_poisson(std::size_t idx) {
  const Injection& inj = campaign_.injections[idx];
  const double mean_ns = 60.0 * 1e9 / inj.rate_per_minute;
  const sim::Time dt = static_cast<sim::Time>(rng_.next_exponential(mean_ns));
  b_.eng.after(dt, [this, idx] {
    if (dispatcher_->all_done()) return;
    const Injection& i = campaign_.injections[idx];
    if (i.index < 0 &&
        (i.target == Target::kRank || i.target == Target::kDaemon)) {
      // Uniformly random not-yet-finished victim (the paper's fault model);
      // a daemon stream hits the victim's daemon, not the rank.
      const std::vector<int> alive = dispatcher_->alive_ranks();
      if (!alive.empty()) {
        const int victim = alive[rng_.next_below(alive.size())];
        if (i.target == Target::kRank) {
          ++counts_.rank_crashes;
          dispatcher_->fault(victim);
        } else {
          crash_daemon(victim, i.duration);
        }
      }
    } else {
      execute(i);  // rate streams repeat
    }
    arm_poisson(idx);
  });
}

void FaultEngine::crash_el_shard(int shard) {
  if (shard < 0 || shard >= b_.directory.total_shards()) return;
  if (b_.directory.dead(shard)) return;
  ++counts_.el_crashes;
  if (first_el_fault_ == 0) first_el_fault_ = b_.eng.now();
  trace::emit(b_.trace, b_.eng.now(), trace::Kind::kFault, trace::kElCrash,
              shard, counts_.el_crashes);
  b_.net.crash_node(b_.layout.el_node(shard));
  els_[static_cast<std::size_t>(shard)]->crash_service();
  b_.directory.mark_dead(shard);
  b_.eng.after(campaign_.el_failover_delay, [this, shard] { fail_over(shard); });
}

void FaultEngine::el_outage(int shard, sim::Time duration) {
  if (shard < 0 || shard >= b_.directory.total_shards()) return;
  if (b_.directory.dead(shard)) return;
  ++counts_.el_outages;
  if (first_el_fault_ == 0) first_el_fault_ = b_.eng.now();
  trace::emit(b_.trace, b_.eng.now(), trace::Kind::kFault, trace::kElOutage,
              shard, static_cast<std::uint64_t>(duration));
  in_outage_[static_cast<std::size_t>(shard)] = 1;
  b_.net.crash_node(b_.layout.el_node(shard));
  els_[static_cast<std::size_t>(shard)]->crash_service();
  b_.directory.mark_dead(shard);
  b_.eng.after(duration, [this, shard] {
    // Service restart on the same node: the persistent log was never lost,
    // but everything queued or in flight during the outage was — the owned
    // ranks re-persist their unacked suffix exactly like a failover.
    in_outage_[static_cast<std::size_t>(shard)] = 0;
    b_.net.restart_node(b_.layout.el_node(shard));
    els_[static_cast<std::size_t>(shard)]->restore_service();
    b_.directory.mark_alive(shard);
    announce_failover(b_.directory.ranks_on(shard), shard, shard);
  });
}

void FaultEngine::fail_over(int dead_shard) {
  const std::vector<int> ranks = b_.directory.ranks_on(dead_shard);
  int succ = b_.directory.pick_successor(
      dead_shard, campaign_.el_failover == ElFailover::kStandby);
  if (succ < 0) {
    // No live successor right now. A shard in a *transient* outage will be
    // back with its log intact — retry the failover rather than condemning
    // the ranks to the permanent no-EL regime for a passing blip.
    for (std::size_t s = 0; s < in_outage_.size(); ++s) {
      if (in_outage_[s] && static_cast<int>(s) != dead_shard) {
        b_.eng.after(campaign_.el_failover_delay,
                      [this, dead_shard] { fail_over(dead_shard); });
        return;
      }
    }
    // Nothing survives: those ranks are permanently in the no-EL regime.
    b_.directory.mark_abandoned(dead_shard);
    announce_failover(ranks, dead_shard, -1);
    return;
  }
  if (!successor_reachable(succ, ranks)) {
    // The chosen successor is alive but behind a cut from the clients it
    // must serve: mounting now would strand their resubmissions and
    // recovery fetches at the fabric. Prefer any other live shard every
    // client reaches; failing that, retry into the heal.
    int alt = -1;
    for (int s = 0; s < b_.directory.total_shards(); ++s) {
      if (s != dead_shard && !b_.directory.dead(s) &&
          successor_reachable(s, ranks)) {
        alt = s;
        break;
      }
    }
    if (alt < 0) {
      b_.eng.after(campaign_.el_failover_delay,
                    [this, dead_shard] { fail_over(dead_shard); });
      return;
    }
    succ = alt;
  }
  elog::EventLogger& successor = *els_[static_cast<std::size_t>(succ)];
  elog::EventLogger& dead = *els_[static_cast<std::size_t>(dead_shard)];
  // Mount the dead shard's persistent log on the successor, then switch the
  // routing and tell the moved ranks — ordering matters: a resubmission or
  // recovery fetch must never observe the successor without the log.
  successor.mount_log(dead, ranks, [this, ranks, dead_shard, succ] {
    if (b_.directory.dead(succ)) {
      // The successor itself died while the mount was in flight (cascading
      // crash): the ranks are still homed on the dead shard — run the
      // failover again against whatever now survives.
      fail_over(dead_shard);
      return;
    }
    b_.directory.rehome(dead_shard, succ);
    ++counts_.el_failovers;
    trace::emit(b_.trace, b_.eng.now(), trace::Kind::kRecovery,
                trace::kPhaseElFailover, dead_shard,
                static_cast<std::uint64_t>(succ), ranks.size());
    announce_failover(ranks, dead_shard, succ);
  });
}

void FaultEngine::announce_failover(const std::vector<int>& ranks,
                                    int dead_shard, int successor) {
  for (const int r : ranks) {
    net::Message m;
    m.kind = net::MsgKind::kControl;
    m.tag = static_cast<std::int32_t>(mpi::CtlSub::kElFailover);
    m.arg = mpi::pack_el_failover(dead_shard, successor);
    m.dst = b_.layout.rank_node(r);
    dispatcher_->send_ctl(std::move(m));
  }
}

void FaultEngine::crash_daemon(int rank, sim::Time downtime) {
  if (rank < 0 || rank >= b_.layout.nranks) return;
  mpi::RankRuntime& rt = *ranks_[static_cast<std::size_t>(rank)];
  // The LIVE daemon state decides, not a latch: a rank crash ends an
  // outage early (the node restart respawns the daemon with the node), and
  // a fresh daemon fault may then strike again before the original respawn
  // timer fires.
  if (rt.daemon_down()) return;  // already down
  const std::uint32_t gen = ++daemon_gen_[static_cast<std::size_t>(rank)];
  ++counts_.daemon_crashes;
  rt.daemon_crash();
  b_.timeline.begin_daemon(rank, b_.eng.now());
  const sim::Time dt =
      downtime > 0 ? downtime : campaign_.daemon_restart_delay;
  b_.eng.after(dt, [this, rank, gen, &rt] {
    // No all_done guard here, unlike the injection paths: the workload can
    // complete while the daemon is down (a partition heal redelivering a
    // parked completion frame, or the rank had already finished), and the
    // respawn still drains the daemon at this time — the outage record must
    // close at drain time or it reads as "still down at run end".
    // A newer outage owns the rank now; its own timer will respawn it.
    if (gen != daemon_gen_[static_cast<std::size_t>(rank)]) return;
    // -1: a rank crash in the interim restarted the whole node — the
    // node-level recovery record supersedes this outage, which stays
    // open-ended like any interrupted recovery.
    const long drained = rt.daemon_restart();
    if (drained < 0) {
      b_.timeline.interrupt_daemon(rank);
    } else {
      b_.timeline.end_daemon(rank, b_.eng.now(),
                             static_cast<std::uint64_t>(drained));
    }
  });
}

void FaultEngine::partition(const std::vector<int>& group_a,
                            const std::vector<int>& group_b,
                            sim::Time duration, sim::Time heal_backoff,
                            const std::vector<int>& services_a,
                            const std::vector<int>& services_b) {
  ++counts_.partitions;
  std::vector<net::NodeId> a, b;
  a.reserve(group_a.size() + services_a.size());
  b.reserve(group_b.size() + services_b.size());
  for (const int r : group_a) a.push_back(b_.layout.rank_node(r));
  for (const int r : group_b) b.push_back(b_.layout.rank_node(r));
  for (const int s : services_a) {
    a.push_back(s == kCkptService ? b_.layout.ckpt_node()
                                  : b_.layout.el_node(s));
  }
  for (const int s : services_b) {
    b.push_back(s == kCkptService ? b_.layout.ckpt_node()
                                  : b_.layout.el_node(s));
  }
  b_.net.partition(a, b, duration, heal_backoff);

  // A cut EL shard is indistinguishable from a dead one to the clients it
  // can no longer reach: arm the failure detector. After the detection
  // delay, clients still cut from a live shard are re-homed onto a
  // reachable successor — the split-brain the heal later reconciles. (The
  // checkpoint server needs no detector: its frames park at the fabric and
  // clients ride the cut out on the campaign's service_retry cadence.)
  const sim::Time cut_at = b_.eng.now();
  const sim::Time heal_at = cut_at + duration + heal_backoff;
  const sim::Time delay = campaign_.detection_delay >= 0
                              ? campaign_.detection_delay
                              : b_.detection_delay;
  std::vector<char> seen(static_cast<std::size_t>(
                             b_.directory.total_shards()),
                         0);
  for (const std::vector<int>* g : {&services_a, &services_b}) {
    for (const int s : *g) {
      if (s == kCkptService || s >= b_.directory.total_shards()) continue;
      if (seen[static_cast<std::size_t>(s)]) continue;
      seen[static_cast<std::size_t>(s)] = 1;
      b_.eng.after(delay, [this, s, cut_at, heal_at] {
        suspect_shard(s, cut_at, heal_at);
      });
    }
  }
}

void FaultEngine::suspect_shard(int shard, sim::Time cut_at,
                                sim::Time heal_at) {
  if (dispatcher_->all_done()) return;
  if (b_.directory.dead(shard)) return;  // a real crash took over
  // Re-evaluate at fire time: the cut may have healed under the detection
  // delay (blip absorbed, nobody moves), clients may have crashed, and
  // overlapping cuts compose — reachability is the only truth.
  const net::NodeId shard_node = b_.layout.el_node(shard);
  std::vector<int> cut;
  for (const int r : b_.directory.ranks_on(shard)) {
    const net::NodeId rn = b_.layout.rank_node(r);
    if (!b_.net.node_up(rn)) continue;  // crashed rank: not a live client
    if (!b_.net.reachable(rn, shard_node)) cut.push_back(r);
  }
  if (cut.empty()) return;
  // The successor must be reachable from every client it inherits — by
  // construction it sits on the clients' side of the cut (or outside it).
  int succ = -1;
  for (int s = 0; s < b_.directory.total_shards(); ++s) {
    if (s != shard && !b_.directory.dead(s) && successor_reachable(s, cut)) {
      succ = s;
      break;
    }
  }
  if (succ < 0) return;  // nothing reachable: clients ride out the cut
  ++counts_.el_suspects;
  ++counts_.el_failovers;
  trace::emit(b_.trace, b_.eng.now(), trace::Kind::kFault, trace::kElSuspect,
              shard, cut.size(), static_cast<std::uint64_t>(succ));
  // Both shards stay live from here to the heal: the suspect keeps serving
  // whatever still reaches it, the successor takes the cut-off clients.
  // The epoch bump fences acks the suspect still emits toward moved
  // clients (parked at the fabric, redelivered after the heal).
  b_.directory.bump_epoch();
  b_.directory.rehome_ranks(cut, succ);
  elog::EventLogger& successor = *els_[static_cast<std::size_t>(succ)];
  successor.set_dir_epoch(b_.directory.epoch());
  // The moved clients' acked prefix lives only in the suspect's log until
  // the merge: recovery reads for them wait for it.
  successor.defer_recovery(cut);
  const int rec = b_.timeline.begin_reconcile(
      shard, succ, static_cast<int>(cut.size()), cut_at, b_.eng.now());
  announce_failover(cut, shard, succ);
  b_.eng.at(heal_at, [this, shard, succ, cut, rec] {
    reconcile(shard, succ, cut, rec);
  });
}

void FaultEngine::reconcile(int stale_shard, int successor,
                            std::vector<int> ranks, int record_idx) {
  elog::EventLogger& succ = *els_[static_cast<std::size_t>(successor)];
  if (b_.directory.dead(successor)) return;  // crash failover re-homes again
  if (b_.directory.dead(stale_shard)) {
    // The suspect really died during the split: the shard-crash failover
    // mounts its whole persistent log, superseding this merge.
    succ.clear_deferred(ranks);
    return;
  }
  const sim::Time heal_at = b_.eng.now();
  trace::emit(b_.trace, heal_at, trace::Kind::kFault, trace::kPartitionHeal,
              stale_shard, ranks.size(), static_cast<std::uint64_t>(successor));
  succ.reconcile_from(
      *els_[static_cast<std::size_t>(stale_shard)], ranks,
      [this, successor, ranks, record_idx,
       heal_at](const elog::EventLogger::ReconcileResult& res) {
        els_[static_cast<std::size_t>(successor)]->clear_deferred(ranks);
        ++counts_.el_reconciles;
        b_.timeline.end_reconcile(record_idx, heal_at, b_.eng.now(),
                                  res.merged, res.duplicates,
                                  res.first_dup_rank, res.first_dup_seq);
      });
}

bool FaultEngine::successor_reachable(int succ,
                                      const std::vector<int>& ranks) const {
  const net::NodeId sn = b_.layout.el_node(succ);
  for (const int r : ranks) {
    const net::NodeId rn = b_.layout.rank_node(r);
    if (!b_.net.node_up(rn)) continue;  // crashed: will fetch after restart
    if (!b_.net.reachable(rn, sn)) return false;
  }
  return b_.net.node_up(sn);
}

void FaultEngine::ckpt_outage(sim::Time duration) {
  ++counts_.ckpt_outages;
  trace::emit(b_.trace, b_.eng.now(), trace::Kind::kFault, trace::kCkptOutage,
              -1, static_cast<std::uint64_t>(duration));
  // Service outage only: committed images are on disk and survive; clients
  // retransmit unacked store/fetch requests until the node returns.
  b_.net.crash_node(b_.layout.ckpt_node());
  b_.eng.after(duration, [this] {
    b_.net.restart_node(b_.layout.ckpt_node());
  });
}

void FaultEngine::link_fault(int rank, Action action, sim::Time magnitude,
                             sim::Time duration) {
  if (rank < 0 || rank >= b_.layout.nranks) return;
  ++counts_.link_faults;
  const net::NodeId node = b_.layout.rank_node(rank);
  if (action == Action::kDropWindow) {
    b_.net.perturb_drop(node, duration, magnitude);
  } else {
    b_.net.perturb_latency(node, magnitude, duration);
  }
}

}  // namespace mpiv::fault
