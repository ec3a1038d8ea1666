// Per-rank MPI runtime: the generic MPICH-V subsystem of the paper.
//
// One RankRuntime per MPI process. It owns the node's communication daemon,
// implements the Comm interface for application coroutines, runs message
// matching with determinant capture, and orchestrates checkpoint/restart:
//
//   app coroutine  <->  RankRuntime (matching, ssn/rsn, dedup, replay)
//                              |        \ hooks (ftapi::VProtocol)
//                         net::Daemon  <-> net::Network
//
// Crash/recovery protocol (message logging):
//   1. dispatcher calls crash(): the coroutine frame dies mid-operation,
//      the network drops in-flight frames toward the node;
//   2. restart(): new incarnation fetches the checkpoint image, restores
//      matching + protocol state, asks the protocol to collect the
//      determinants to replay (Event Logger and/or survivors) and to
//      trigger payload resends;
//   3. matching enters replay mode: reception k only matches the message
//      named by determinant k; when determinants run out, matching is live
//      again and execution has provably passed the pre-crash state that the
//      rest of the system observed.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "elog/el_directory.hpp"
#include "fault/timeline.hpp"
#include "ftapi/services.hpp"
#include "ftapi/vprotocol.hpp"
#include "mpi/comm.hpp"
#include "mpi/matching.hpp"
#include "net/daemon.hpp"
#include "net/network.hpp"
#include "sim/sync.hpp"
#include "trace/trace.hpp"
#include "util/slab.hpp"

namespace mpiv::mpi {

/// The cluster-level collaborators every rank runtime reports to, wired
/// once by runtime::Cluster. Only `trace` is optional.
struct RankHooks {
  const elog::ElDirectory& el_directory;  // live rank -> shard map
  ftapi::FaultObserver& observer;         // checkpoint triggers
  fault::RecoveryTimeline& timeline;      // per-phase recovery marks
  /// Time of the first EL fault (engine-owned, 0 until one happens): gates
  /// the post-fault piggyback-regrowth peaks in RankStats.
  const sim::Time& el_fault_at;
  /// > 0: check unanswered checkpoint-server requests at this interval and
  /// resend the ones a server crash or outage lost (also handed to the EL
  /// client).
  sim::Time service_retry = 0;
  /// Cluster trace sink (null = tracing disabled); the runtime records into
  /// its own rank lane and shares that lane with the protocol + daemon.
  trace::TraceSink* trace = nullptr;
};

/// Control-frame subtypes (carried in Message.tag of kControl frames).
enum class CtlSub : std::int32_t {
  kCkptRequest = 1,  // checkpoint scheduler -> rank
  kCkptNotify = 2,   // rank -> peers: sender-log GC notice (arg = arr ssn)
  kElGc = 3,         // rank -> EL: prune my determinants with seq <= arg
  kAppDone = 4,      // rank -> dispatcher
  kRecoveryDone = 5, // rank -> dispatcher: determinant collection finished
  kElShardClock = 6, // EL shard -> EL shard: stable-clock array exchange
  kElFailover = 7,   // fault engine -> re-homed rank: arg packs the dead
                     // shard (high 32) and the successor (low 32, ~0 = none)
  kProtocol = 16,    // >= kProtocol: owned by the fault-tolerance protocol
};

/// Packs/unpacks the kElFailover control word.
inline std::uint64_t pack_el_failover(int dead_shard, int successor) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dead_shard))
          << 32) |
         static_cast<std::uint32_t>(successor);
}
inline int el_failover_dead(std::uint64_t arg) {
  return static_cast<int>(static_cast<std::int32_t>(arg >> 32));
}
inline int el_failover_successor(std::uint64_t arg) {
  return static_cast<int>(static_cast<std::int32_t>(arg & 0xffffffffu));
}

class RankRuntime final : public Comm, public ftapi::ICheckpointOps {
 public:
  RankRuntime(sim::Engine& eng, net::Network& net, const ftapi::NodeLayout& layout,
              int rank, net::ChannelKind channel,
              std::unique_ptr<ftapi::VProtocol> proto, ftapi::RankStats* stats,
              std::uint64_t seed, RankHooks hooks);
  ~RankRuntime() override;

  // --- lifecycle (driven by the dispatcher) --------------------------------
  void set_process(sim::Process* p) { proc_ = p; }
  sim::Process* process() const { return proc_; }
  void launch(AppFactory factory);
  /// Kills the process mid-run: coroutine frames destroyed, network epoch
  /// bumped (in-flight frames dropped), volatile state lost.
  void crash();
  /// Starts a new incarnation that recovers and re-runs the application.
  /// `image_version` selects the checkpoint image to restore (0 = latest);
  /// coordinated rollback passes the last globally-complete snapshot, or
  /// ckpt::kNoImage to restart from scratch.
  void restart(AppFactory factory, std::uint64_t image_version = 0);
  bool app_finished() const { return app_finished_; }

  // --- replica promotion (dispatcher, RecoveryMode::kPromote) --------------
  /// A crash under the replication hybrid: the primary dies but its hot
  /// shadow holds identical state, so nothing rolls back — the node's
  /// traffic merely parks at the daemon for the switchover window.
  /// Distinct from daemon_crash(): no daemon fault is counted; the stall
  /// is recorded as a PromotionRecord, not a DaemonOutageRecord.
  /// Returns false when the daemon was already down (a daemon outage in
  /// progress owns the hold — the release is then skipped too).
  bool promote_hold();
  /// The shadow is the primary: release the held traffic to it. Returns
  /// the number of drained frames.
  long promote_release();

  // --- ULFM shrink-and-repair (dispatcher, RecoveryMode::kShrink) ----------
  /// Survivor side of a communicator repair: wipe the revoked
  /// communicator's state (crash-style soft teardown, no fault record) and
  /// relaunch the application on the shrunk communicator. `survivors` maps
  /// virtual rank -> physical rank; this rank's Comm view (rank()/size()
  /// and every src/dst) speaks virtual ranks from here on.
  void shrink_relaunch(AppFactory factory, std::vector<int> survivors,
                       int victim);

  // --- daemon-process faults (fault engine) --------------------------------
  /// Kills only the communication daemon: the MPI process survives with all
  /// of its volatile state but stalls — nothing is forwarded until the
  /// dispatcher's respawned daemon reconnects (daemon_restart()). Distinct
  /// from crash(): no image fetch, no determinant collection, no replay.
  void daemon_crash();
  /// Respawned daemon serving again; drains the backed-up frames. Returns
  /// the drained count, or -1 when no daemon outage was in progress (a rank
  /// crash in the interim restarted the whole node, daemon included).
  long daemon_restart();
  bool daemon_down() const { return daemon_->daemon_down(); }

  // --- checkpoint scheduler interface ---------------------------------------
  void request_checkpoint() { ckpt_requested_ = true; }

  // --- accessors -------------------------------------------------------------
  ftapi::VProtocol& protocol() { return *proto_; }
  net::Daemon& daemon() { return *daemon_; }
  ftapi::RankStats& stats() { return *stats_; }
  std::uint64_t rsn() const { return rsn_; }
  bool replaying() const { return !replay_.empty(); }
  bool recovering() const { return recovering_; }
  // Introspection for tests and diagnostics.
  std::size_t posted_count() const { return posted_.size(); }
  std::size_t unexpected_count() const { return unexpected_.size(); }
  std::size_t replay_count() const { return replay_.size(); }
  const ftapi::Determinant* replay_head() const {
    return replay_.empty() ? nullptr : &replay_.front();
  }
  const std::deque<StoredMsg>& unexpected_queue() const { return unexpected_; }
  struct PostedInfo { int src; int tag; };
  PostedInfo posted_front() const;

  // --- Comm -------------------------------------------------------------------
  // After a ULFM shrink the application speaks virtual ranks on the
  // repaired communicator; with no shrink (survivors_ empty) virtual ==
  // physical and the translation is the identity.
  int rank() const override { return survivors_.empty() ? rank_ : vrank_; }
  int size() const override {
    return survivors_.empty() ? layout_.nranks
                              : static_cast<int>(survivors_.size());
  }
  sim::Task<void> send(int dst, int tag, std::uint64_t bytes,
                       std::uint64_t check) override;
  sim::Task<RecvResult> recv(int src, int tag) override;
  RecvHandle irecv(int src, int tag) override;
  sim::Task<RecvResult> wait_recv(RecvHandle h) override;
  sim::Task<void> compute(sim::Time cpu) override;
  sim::Task<void> compute_flops(double flops) override;
  sim::Task<void> checkpoint_site(const util::Buffer& app_state) override;
  util::BufferView restart_state() const override {
    return restart_image_ ? restart_image_->view(blob_offset_, blob_len_)
                          : util::BufferView{};
  }
  void set_logical_state_bytes(std::uint64_t bytes) override {
    logical_state_bytes_ = bytes;
  }
  util::Rng& rng() override { return rng_; }
  sim::Time now() const override { return eng_.now(); }
  std::uint64_t next_collective_seq() override { return coll_seq_++; }

  // --- ICheckpointOps -----------------------------------------------------------
  bool checkpoint_requested() const override { return ckpt_requested_; }
  void clear_checkpoint_request() override { ckpt_requested_ = false; }
  sim::Task<void> store_checkpoint(const util::Buffer& app_state,
                                   std::uint64_t version) override;

 private:
  struct PostedRecv {
    PostedRecv(sim::Engine& eng, int src, int tag)
        : src(src), tag(tag), done(eng) {}
    int src;
    int tag;
    RecvResult result;
    sim::Time deliver_cpu = 0;
    sim::OneShot done;
  };

  sim::Task<void> app_main(AppFactory factory);
  sim::Task<void> recovery_main(AppFactory factory, std::uint64_t image_version);
  sim::Task<std::optional<util::Buffer>> fetch_image(std::uint64_t image_version);
  /// Waits for a checkpoint-server reply on the service_retry cadence.
  /// True when the request must be resent (the server was down when it was
  /// sent, or crashed since); false once `reply` is set.
  sim::Task<bool> await_ckpt_server(sim::OneShot& reply);
  void notify_dispatcher(CtlSub sub);

  void on_daemon_up(net::Message&& m);
  void on_app_frame(net::Message&& m);
  void accept_app_frame(net::Message&& m);  // after piggyback absorb + dedup
  void pump();
  void deliver_to(PostedRecv& pr, const StoredMsg& m);
  static bool matches(const PostedRecv& pr, const StoredMsg& m) {
    return (pr.src == kAnySource || pr.src == m.src_rank) && pr.tag == m.tag;
  }

  void serialize_matching(util::Buffer& b) const;
  void restore_matching(util::Buffer& b);
  /// The wipe shared by crash() and shrink_relaunch(): takes the node off
  /// the fabric, kills the process, resets the daemon and drops every piece
  /// of volatile matching and protocol state.
  void teardown();

  /// Virtual -> physical rank on the (possibly shrunk) communicator.
  int to_physical(int v) const {
    return survivors_.empty() ? v : survivors_[static_cast<std::size_t>(v)];
  }
  /// Physical -> virtual; a physical rank outside the shrunk communicator
  /// (a stale pre-shrink frame) passes through unchanged.
  int to_virtual(int phys) const {
    if (survivors_.empty()) return phys;
    for (std::size_t i = 0; i < survivors_.size(); ++i) {
      if (survivors_[i] == phys) return static_cast<int>(i);
    }
    return phys;
  }

  sim::Engine& eng_;
  net::Network& net_;
  ftapi::NodeLayout layout_;
  int rank_;
  RankHooks hooks_;
  std::unique_ptr<net::Daemon> daemon_;
  std::unique_ptr<ftapi::VProtocol> proto_;
  ftapi::RankStats* stats_;
  sim::Process* proc_ = nullptr;
  util::Rng rng_;
  trace::Lane* tlane_ = nullptr;  // this rank's trace lane (null when off)

  // Shrunk-communicator view (ULFM repair). Empty = full communicator;
  // otherwise survivors_[v] is the physical rank at virtual rank v and
  // vrank_ is this rank's own virtual rank. Matching/ssn/arrival state
  // stays physical — only the Comm boundary translates.
  std::vector<int> survivors_;
  int vrank_ = 0;

  // Matching state (serialized into checkpoint images).
  std::uint64_t rsn_ = 0;
  std::uint64_t coll_seq_ = 0;
  std::vector<std::uint64_t> send_ssn_;  // per destination rank
  std::vector<ArrivalDedup> arr_;        // per source rank
  std::deque<StoredMsg> unexpected_;

  // Volatile state.
  std::deque<PostedRecv*> posted_;
  std::map<std::uint64_t, std::unique_ptr<PostedRecv>> pending_irecvs_;
  std::uint64_t irecv_seq_ = 0;
  std::deque<ftapi::Determinant> replay_;
  std::deque<net::Message> held_arrivals_;  // app frames arriving mid-recovery
  sim::Time absorb_free_ = 0;               // serializes piggyback parsing
  // Frames parked while their absorb CPU charge elapses. Never cleared on
  // crash: the scheduled events still fire and drain their slots.
  util::Slab<net::Message> absorb_parked_;
  bool recovering_ = false;
  bool app_finished_ = false;
  bool ckpt_requested_ = false;
  std::uint64_t logical_state_bytes_ = 1 << 20;
  std::uint64_t ckpt_version_ = 0;
  std::uint64_t ckpts_completed_ = 0;  // committed stores (trigger counter)
  // Reply guards: a late duplicate ack/response (a resend after a server
  // crash, or the reply to a transaction a crash abandoned) must not
  // satisfy a future transaction.
  bool awaiting_store_ack_ = false;
  bool awaiting_fetch_ = false;

  // Checkpoint client rendezvous.
  sim::OneShot store_ack_;
  sim::OneShot fetch_done_;
  std::optional<net::Message> fetch_resp_;
  // The restored checkpoint image, retained whole so the app blob is read
  // in place through restart_state() (no copy); [blob_offset_, +blob_len_)
  // locates the app_state sub-range inside it.
  std::optional<util::Buffer> restart_image_;
  std::size_t blob_offset_ = 0;
  std::size_t blob_len_ = 0;
};

}  // namespace mpiv::mpi
