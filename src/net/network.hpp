// Switched-Ethernet network model.
//
// Topology: every node has one NIC connected to a single store-and-forward
// switch (the paper's 32-port Fast Ethernet switch). A frame:
//   1. queues on the source NIC egress serializer (bytes at line rate),
//   2. crosses the fabric after a fixed wire latency,
//   3. queues on the destination NIC ingress serializer — this is where a
//      single Event Logger node saturates when every rank streams
//      determinants at it, reproducing the paper's LU/16 observation,
//   4. is handed to the destination node's deliver callback.
// Full duplex gives each NIC independent egress/ingress serializers;
// half-duplex (the ch_p4 emulation) shares one.
//
// Crash semantics: each node has an epoch. Frames are stamped with the
// destination epoch at *arrival* time; crashing a node bumps its epoch so
// frames still in flight toward it are dropped (TCP reset), while frames it
// emitted before dying are still delivered.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/cost_model.hpp"
#include "net/message.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"
#include "util/slab.hpp"

namespace mpiv::net {

class Network {
 public:
  using DeliverFn = std::function<void(Message&&)>;

  Network(sim::Engine& eng, std::uint32_t nodes, CostModel cost)
      : eng_(eng), cost_(cost), nodes_(nodes) {}

  sim::Engine& engine() { return eng_; }
  const CostModel& cost() const { return cost_; }

  /// Installs the ingress handler for a node (its communication daemon).
  void attach(NodeId node, DeliverFn fn) {
    MPIV_CHECK(node < nodes_.size(), "attach: bad node %u", node);
    nodes_[node].deliver = std::move(fn);
  }

  /// Marks a node half-duplex (shared egress/ingress serializer), used to
  /// emulate the ch_p4 channel behaviour.
  void set_half_duplex(NodeId node, bool half) { nodes_[node].half_duplex = half; }

  /// Fabric-level trace lane (the cluster's "engine" lane; null = off).
  void set_trace(trace::Lane* lane) { trace_ = lane; }

  /// Injects a frame. `wire_bytes` must already be set by the sender.
  void send(Message&& m);

  /// Crash: bump epoch (drops in-flight frames toward the node) and mark down.
  void crash_node(NodeId node) {
    Node& n = at(node);
    ++n.epoch;
    n.up = false;
    trace::emit(trace_, eng_.now(), trace::Kind::kFault, trace::kNodeCrash,
                static_cast<std::int32_t>(node), n.epoch);
  }
  /// Restart: node accepts traffic again (new epoch already in effect).
  void restart_node(NodeId node) {
    Node& n = at(node);
    n.up = true;
    trace::emit(trace_, eng_.now(), trace::Kind::kFault, trace::kNodeRestart,
                static_cast<std::int32_t>(node), n.epoch);
  }
  bool node_up(NodeId node) const { return nodes_[node].up; }
  std::uint64_t node_epoch(NodeId node) const { return nodes_[node].epoch; }

  // --- Link perturbation (fault injection) ---------------------------------
  /// Latency spike: frames to/from `node` pay +`extra` propagation for
  /// `duration` (flaky cable / congested uplink). Overlapping spikes keep
  /// the larger extra and the later end.
  void perturb_latency(NodeId node, sim::Time extra, sim::Time duration) {
    Node& n = at(node);
    const sim::Time until = eng_.now() + duration;
    n.lat_extra = std::max(n.lat_extra, extra);
    n.lat_until = std::max(n.lat_until, until);
    trace::emit(trace_, eng_.now(), trace::Kind::kFault, trace::kLinkLatency,
                static_cast<std::int32_t>(node),
                static_cast<std::uint64_t>(extra),
                static_cast<std::uint64_t>(duration));
  }
  /// Drop-with-retransmit window: frames arriving at `node` inside the
  /// window are held and re-delivered `backoff` after it closes (TCP loses
  /// nothing, it retransmits — unlike crash_node's connection reset).
  void perturb_drop(NodeId node, sim::Time duration, sim::Time backoff) {
    Node& n = at(node);
    n.drop_until = std::max(n.drop_until, eng_.now() + duration);
    n.drop_backoff = std::max(n.drop_backoff, backoff);
    trace::emit(trace_, eng_.now(), trace::Kind::kFault, trace::kLinkDrop,
                static_cast<std::int32_t>(node),
                static_cast<std::uint64_t>(duration),
                static_cast<std::uint64_t>(backoff));
  }
  /// Partial partition: the switch stops forwarding between the `a` nodes
  /// and the `b` nodes until `duration` elapses (a failed uplink between
  /// two leaf switches). Frames crossing the cut are held at the fabric
  /// and re-delivered `backoff` after the heal in their original send
  /// order; traffic within either side is untouched. Distinct from the
  /// per-NIC perturbations above: membership is pairwise, not per node.
  /// Overlapping partitions compose (a frame waits out every cut it
  /// crosses).
  void partition(const std::vector<NodeId>& a, const std::vector<NodeId>& b,
                 sim::Time duration, sim::Time backoff);
  /// Active partitions right now (expired windows are pruned lazily).
  std::size_t active_partitions() const;
  /// True when a frame `a -> b` would reach the destination unobstructed:
  /// both nodes up and no active cut between them. The fault engine's
  /// suspicion and failover logic keys off this (a service behind a cut is
  /// indistinguishable from a dead one until the heal).
  bool reachable(NodeId a, NodeId b) const {
    return a < nodes_.size() && b < nodes_.size() && nodes_[a].up &&
           nodes_[b].up && partition_release(a, b) == 0;
  }

  // --- Introspection / stats ----------------------------------------------
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t frames_delayed() const { return frames_delayed_; }
  /// Partition HOLD events, not distinct frames: a frame that retries into
  /// a second cut that opened during its first wait is counted again (like
  /// frames_delayed() counts per drop-window hold).
  std::uint64_t frames_partitioned() const { return frames_partitioned_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  /// Frames currently in flight through the fabric (serializing, crossing,
  /// or held by a partition) — the metrics sampler's congestion probe.
  std::size_t inflight_frames() const { return flights_.in_use(); }
  /// Earliest time the egress serializer of `node` is free (for tests).
  sim::Time egress_free(NodeId node) const { return nodes_[node].egress_free; }

 private:
  struct Node {
    DeliverFn deliver;
    bool up = true;
    bool half_duplex = false;
    std::uint64_t epoch = 0;
    sim::Time egress_free = 0;
    sim::Time ingress_free = 0;
    // Link-fault windows (see perturb_latency / perturb_drop).
    sim::Time lat_extra = 0;
    sim::Time lat_until = 0;
    sim::Time drop_until = 0;
    sim::Time drop_backoff = 0;
  };

  /// An in-flight frame parked in the slab between the two scheduling hops
  /// (fabric crossing, ingress serialization). Keeping the Message and its
  /// routing snapshot here lets the scheduled closures capture only
  /// {this, slot} — inline in std::function, no per-frame allocation.
  struct Flight {
    Message msg;
    sim::Time tx = 0;
    NodeId dst = kNoNode;
    std::uint64_t dst_epoch = 0;
  };

  /// One active partition window: `side[node]` is 0 (unaffected), 'a' or
  /// 'b'. A frame crosses the cut iff its endpoints sit on opposite sides.
  struct Partition {
    std::vector<std::uint8_t> side;
    sim::Time until = 0;
    sim::Time backoff = 0;
  };

  void on_fabric(std::uint32_t slot);
  void on_ingress_done(std::uint32_t slot);
  /// When `src -> dst` crosses an active cut, the time the frame may try
  /// the fabric again (max over all cuts it crosses); 0 = unobstructed.
  sim::Time partition_release(NodeId src, NodeId dst) const;

  Node& at(NodeId node) {
    MPIV_CHECK(node < nodes_.size(), "bad node %u", node);
    return nodes_[node];
  }

  sim::Engine& eng_;
  CostModel cost_;
  trace::Lane* trace_ = nullptr;
  std::vector<Node> nodes_;
  util::Slab<Flight> flights_;
  std::vector<Partition> partitions_;  // empty on fault-free runs
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_delayed_ = 0;
  std::uint64_t frames_partitioned_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace mpiv::net
