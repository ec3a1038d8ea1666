// Node layout and the service bundle handed to fault-tolerance protocols.
#pragma once

#include <cstdint>

#include "elog/el_directory.hpp"
#include "ftapi/stats.hpp"
#include "net/cost_model.hpp"
#include "net/daemon.hpp"
#include "net/message.hpp"
#include "net/service_call.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace mpiv::ftapi {

/// Execution-event sink for trigger-based fault injection ("kill rank 3 on
/// its 5th checkpoint", "crash shard 0 once N determinants are stored").
/// The fault engine implements it and every rank runtime and EL shard
/// reports to it; the base class ignores every event.
class FaultObserver {
 public:
  virtual ~FaultObserver() = default;
  /// `completed` = how many checkpoint transactions this rank has committed.
  virtual void on_rank_checkpoint(int rank, std::uint64_t completed) {
    (void)rank;
    (void)completed;
  }
  /// `stored` = determinant store operations the shard has performed.
  virtual void on_el_stored(int shard, std::uint64_t stored) {
    (void)shard;
    (void)stored;
  }
};

/// Cluster node numbering: ranks first, then the stable auxiliary servers
/// (Fig. 5 of the paper: checkpoint server, Event Logger(s), dispatcher
/// with its checkpoint scheduler). `el_count > 1` enables the distributed
/// Event Logger of the paper's future work (§VI): the shards exchange their
/// stable-clock arrays, and elog::ElDirectory says which shard serves which
/// rank. The layout only places nodes; it routes nothing.
struct NodeLayout {
  int nranks = 0;
  int el_count = 1;

  net::NodeId rank_node(int r) const { return static_cast<net::NodeId>(r); }
  net::NodeId el_node(int shard = 0) const {
    return static_cast<net::NodeId>(nranks + shard);
  }
  net::NodeId ckpt_node() const {
    return static_cast<net::NodeId>(nranks + el_count);
  }
  net::NodeId dispatcher_node() const {
    return static_cast<net::NodeId>(nranks + el_count + 1);
  }
  std::uint32_t total_nodes() const {
    return static_cast<std::uint32_t>(nranks + el_count + 2);
  }
};

/// Everything a V-protocol may use, owned by the rank runtime.
struct RankServices {
  sim::Engine* eng = nullptr;
  net::Daemon* daemon = nullptr;
  const net::CostModel* cost = nullptr;
  int rank = -1;
  int nranks = 0;
  NodeLayout layout{};
  RankStats* stats = nullptr;
  /// The cluster's live rank -> EL shard directory, the only router: a
  /// shard failover re-homes ranks there and every client follows. Always
  /// set by the rank runtime.
  const elog::ElDirectory* el_dir = nullptr;
  /// The rank's recovery request to its EL shard; the runtime owns it so a
  /// crash cancels it with the checkpoint calls.
  net::ServiceCall* el_call = nullptr;
  /// This rank's trace lane (null = tracing disabled).
  trace::Lane* trace = nullptr;

  int el_shard_for(int r) const { return el_dir->shard_of(r); }
  net::NodeId el_node_for(int r) const { return layout.el_node(el_shard_for(r)); }

  /// Sends a control frame from this rank's node.
  void send_ctl(net::NodeId dst, net::Message&& m) const {
    m.src = layout.rank_node(rank);
    m.dst = dst;
    daemon->submit_ctl(std::move(m));
  }
  void send_ctl_to_rank(int dst_rank, net::Message&& m) const {
    send_ctl(layout.rank_node(dst_rank), std::move(m));
  }
};

}  // namespace mpiv::ftapi
