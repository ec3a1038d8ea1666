// Probes shared across the stack — the quantities the paper's evaluation
// section reports (piggyback bytes, piggyback management time, recovery
// timing, Event Logger behaviour).
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/metrics.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"

namespace mpiv::ftapi {

struct RankStats {
  // Application traffic.
  std::uint64_t app_msgs_sent = 0;
  std::uint64_t app_bytes_sent = 0;
  // Piggyback volume (Fig. 7).
  std::uint64_t pb_events_sent = 0;
  std::uint64_t pb_bytes_sent = 0;
  std::uint64_t pb_empty_msgs = 0;  // app messages that carried no events
  // Worst single-message piggyback — the regrowth probe: during an Event
  // Logger outage stability freezes and this peak climbs toward the no-EL
  // regime, then shrinks back once the failover shard starts acking. The
  // post_el_fault pair counts only messages sent after the first EL fault,
  // so a single report shows the regrowth against the startup transient.
  std::uint64_t pb_peak_msg_bytes = 0;
  std::uint64_t pb_peak_msg_events = 0;
  std::uint64_t pb_peak_post_el_fault_bytes = 0;
  std::uint64_t pb_peak_post_el_fault_events = 0;
  // Piggyback management time (Fig. 8): simulated CPU charged.
  sim::Time pb_send_cpu = 0;   // select + serialize on the send path
  sim::Time pb_recv_cpu = 0;   // parse + merge on the receive path
  // Determinants and the Event Logger.
  std::uint64_t dets_created = 0;
  // Histogram, not just a mean: the EL ack tail (p99) is what bounds how
  // long events linger in piggyback sets. mean() is bit-identical to the
  // util::Accumulator this replaced (the histogram embeds one), so the
  // fault-free `mean_ack_us` goldens are unaffected.
  metrics::Histogram el_ack_latency_us;
  // Recovery (Fig. 10).
  sim::Time recovery_collect_time = 0;  // time to gather all events to replay
  sim::Time recovery_total_time = 0;    // image fetch + events + replay
  std::uint64_t recovery_events = 0;
  std::uint64_t replayed_receptions = 0;
  // Split-brain reconciliation (service-side partitions). The first two are
  // EL-side, attributed to the creator rank: submissions the shard dropped
  // as duplicates of records it already held, and records a heal-time merge
  // pulled over from the stale shard's live log. The third is client-side:
  // acks discarded because they carried a pre-failover directory epoch from
  // a shard that is no longer the rank's home.
  std::uint64_t el_dup_submissions = 0;
  std::uint64_t el_reconciled_records = 0;
  std::uint64_t stale_acks_fenced = 0;
  // Replica hybrid pricing: sync frames shipped to the shadow, their bytes,
  // and the per-send mirror copy keeping the shadow's image warm (the 2×
  // compute shows up as mirror cpu, the fabric share as sync bytes).
  std::uint64_t replica_sync_msgs = 0;
  std::uint64_t replica_sync_bytes = 0;
  sim::Time replica_mirror_cpu = 0;
  // ULFM shrink-and-repair: revoke notices this rank absorbed and the
  // agreement rounds it participated in.
  std::uint64_t ulfm_revokes_seen = 0;
  std::uint64_t ulfm_repairs = 0;
  // Memory watermarks.
  std::uint64_t sender_log_peak_bytes = 0;
  std::uint64_t event_store_peak = 0;
  std::uint64_t graph_peak_nodes = 0;

  void merge(const RankStats& o) {
    app_msgs_sent += o.app_msgs_sent;
    app_bytes_sent += o.app_bytes_sent;
    pb_events_sent += o.pb_events_sent;
    pb_bytes_sent += o.pb_bytes_sent;
    pb_empty_msgs += o.pb_empty_msgs;
    pb_peak_msg_bytes = std::max(pb_peak_msg_bytes, o.pb_peak_msg_bytes);
    pb_peak_msg_events = std::max(pb_peak_msg_events, o.pb_peak_msg_events);
    pb_peak_post_el_fault_bytes =
        std::max(pb_peak_post_el_fault_bytes, o.pb_peak_post_el_fault_bytes);
    pb_peak_post_el_fault_events =
        std::max(pb_peak_post_el_fault_events, o.pb_peak_post_el_fault_events);
    pb_send_cpu += o.pb_send_cpu;
    pb_recv_cpu += o.pb_recv_cpu;
    dets_created += o.dets_created;
    el_ack_latency_us.merge(o.el_ack_latency_us);
    recovery_collect_time += o.recovery_collect_time;
    recovery_total_time += o.recovery_total_time;
    recovery_events += o.recovery_events;
    replayed_receptions += o.replayed_receptions;
    el_dup_submissions += o.el_dup_submissions;
    el_reconciled_records += o.el_reconciled_records;
    stale_acks_fenced += o.stale_acks_fenced;
    replica_sync_msgs += o.replica_sync_msgs;
    replica_sync_bytes += o.replica_sync_bytes;
    replica_mirror_cpu += o.replica_mirror_cpu;
    ulfm_revokes_seen += o.ulfm_revokes_seen;
    ulfm_repairs += o.ulfm_repairs;
    sender_log_peak_bytes = std::max(sender_log_peak_bytes, o.sender_log_peak_bytes);
    event_store_peak = std::max(event_store_peak, o.event_store_peak);
    graph_peak_nodes = std::max(graph_peak_nodes, o.graph_peak_nodes);
  }
};

struct ElStats {
  std::uint64_t events_stored = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t peak_queue = 0;
};

}  // namespace mpiv::ftapi
