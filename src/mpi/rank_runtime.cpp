#include "mpi/rank_runtime.hpp"

#include <algorithm>

namespace mpiv::mpi {

RankRuntime::RankRuntime(sim::Engine& eng, net::Network& net,
                         const ftapi::NodeLayout& layout, int rank,
                         net::ChannelKind channel,
                         std::unique_ptr<ftapi::VProtocol> proto,
                         ftapi::RankStats* stats, std::uint64_t seed,
                         RankHooks hooks)
    : eng_(eng),
      net_(net),
      layout_(layout),
      rank_(rank),
      hooks_(hooks),
      daemon_(std::make_unique<net::Daemon>(net, layout.rank_node(rank), channel)),
      proto_(std::move(proto)),
      stats_(stats),
      rng_([&] {
        std::uint64_t s = seed;
        for (int i = 0; i <= rank; ++i) util::splitmix64(s);
        return s;
      }()),
      send_ssn_(static_cast<std::size_t>(layout.nranks), 0),
      arr_(static_cast<std::size_t>(layout.nranks)),
      store_ack_(eng),
      fetch_done_(eng) {
  daemon_->attach_upper([this](net::Message&& m) { on_daemon_up(std::move(m)); });
  if (hooks_.trace != nullptr) tlane_ = hooks_.trace->rank_lane(rank_);
  daemon_->set_trace(tlane_);
  ftapi::RankServices svc;
  svc.eng = &eng_;
  svc.daemon = daemon_.get();
  svc.cost = &net_.cost();
  svc.rank = rank_;
  svc.nranks = layout_.nranks;
  svc.layout = layout_;
  svc.stats = stats_;
  svc.el_dir = &hooks_.el_directory;
  svc.service_retry = hooks_.service_retry;
  svc.trace = tlane_;
  proto_->bind(svc);
}

RankRuntime::~RankRuntime() = default;

RankRuntime::PostedInfo RankRuntime::posted_front() const {
  if (posted_.empty()) return PostedInfo{-99, -99};
  return PostedInfo{posted_.front()->src, posted_.front()->tag};
}

// --- lifecycle ---------------------------------------------------------------

void RankRuntime::launch(AppFactory factory) {
  MPIV_CHECK(proc_ != nullptr, "rank %d has no process", rank_);
  app_finished_ = false;
  proc_->start(app_main(std::move(factory)));
}

void RankRuntime::crash() {
  MPIV_CHECK(proc_ != nullptr, "rank %d has no process", rank_);
  // Recorded here (not in the fault engine) so every crash path — timed,
  // Poisson and event-triggered injections alike — lands on the victim lane.
  trace::emit(tlane_, eng_.now(), trace::Kind::kFault, trace::kRankCrash,
              rank_, rsn_, ckpts_completed_);
  teardown();
}

void RankRuntime::restart(AppFactory factory, std::uint64_t image_version) {
  trace::emit(tlane_, eng_.now(), trace::Kind::kRecovery, trace::kPhaseRestart,
              rank_, image_version);
  net_.restart_node(layout_.rank_node(rank_));
  app_finished_ = false;
  proc_->start(recovery_main(std::move(factory), image_version));
}

void RankRuntime::daemon_crash() {
  if (daemon_->daemon_down()) return;
  daemon_->crash_daemon();
}

long RankRuntime::daemon_restart() {
  if (!daemon_->daemon_down()) return -1;
  return static_cast<long>(daemon_->restart_daemon());
}

bool RankRuntime::promote_hold() {
  // A daemon outage already owns the hold: promoting on top of it would
  // corrupt the open DaemonOutageRecord, so the switchover is absorbed
  // into that outage (the dispatcher records 0 held frames).
  if (daemon_->daemon_down()) return false;
  // The primary did die — the crash lands on the victim lane like any
  // other — but nothing below it resets: the shadow holds identical state.
  trace::emit(tlane_, eng_.now(), trace::Kind::kFault, trace::kRankCrash,
              rank_, rsn_, ckpts_completed_);
  daemon_->crash_daemon();
  return true;
}

long RankRuntime::promote_release() {
  if (!daemon_->daemon_down()) return -1;
  const long held = static_cast<long>(daemon_->restart_daemon());
  trace::emit(tlane_, eng_.now(), trace::Kind::kRecovery, trace::kPhasePromote,
              rank_, held < 0 ? 0 : static_cast<std::uint64_t>(held));
  return held;
}

void RankRuntime::shrink_relaunch(AppFactory factory,
                                  std::vector<int> survivors, int victim) {
  MPIV_CHECK(proc_ != nullptr, "rank %d has no process", rank_);
  // Crash-style teardown, minus the fault record: ULFM wipes the revoked
  // communicator wholesale, so no frame, match or protocol state from the
  // old world may leak into the shrunk one.
  teardown();

  survivors_ = std::move(survivors);
  vrank_ = 0;
  for (std::size_t i = 0; i < survivors_.size(); ++i) {
    if (survivors_[i] == rank_) vrank_ = static_cast<int>(i);
  }
  ++stats_->ulfm_repairs;
  trace::emit(tlane_, eng_.now(), trace::Kind::kRecovery,
              trace::kPhaseRepairDone, victim,
              static_cast<std::uint64_t>(survivors_.size()));
  net_.restart_node(layout_.rank_node(rank_));
  app_finished_ = false;
  proc_->start(app_main(std::move(factory)));
}

void RankRuntime::teardown() {
  net_.crash_node(layout_.rank_node(rank_));
  proc_->kill();
  daemon_->reset();
  // Volatile protocol + matching state dies with the process; the
  // checkpoint image (if any) is the only persistent state.
  posted_.clear();
  pending_irecvs_.clear();
  replay_.clear();
  held_arrivals_.clear();
  absorb_free_ = 0;
  recovering_ = false;
  ckpt_requested_ = false;
  store_ack_.reset();
  fetch_done_.reset();
  fetch_resp_.reset();
  awaiting_store_ack_ = false;
  awaiting_fetch_ = false;
  proto_->reset();
  rsn_ = 0;
  coll_seq_ = 0;
  std::fill(send_ssn_.begin(), send_ssn_.end(), 0);
  for (auto& a : arr_) a.reset();
  unexpected_.clear();
  restart_image_.reset();
}

sim::Task<void> RankRuntime::app_main(AppFactory factory) {
  co_await factory(*this);
  app_finished_ = true;
  notify_dispatcher(CtlSub::kAppDone);
}

void RankRuntime::notify_dispatcher(CtlSub sub) {
  net::Message m;
  m.kind = net::MsgKind::kControl;
  m.tag = static_cast<std::int32_t>(sub);
  m.src_rank = rank_;
  m.src = layout_.rank_node(rank_);
  m.dst = layout_.dispatcher_node();
  daemon_->submit_ctl(std::move(m));
}

sim::Task<bool> RankRuntime::await_ckpt_server(sim::OneShot& reply) {
  // A request is lost only when the server node is down at send time or
  // crashes before answering (its epoch moves). Partitions, drop windows
  // and daemon outages hold frames and deliver them later, so a live but
  // slow server just gets another retry period: resending a whole image
  // into its queue would only slow it down further.
  const net::NodeId node = layout_.ckpt_node();
  const bool down_at_send = !net_.node_up(node);
  const std::uint64_t epoch = net_.node_epoch(node);
  for (;;) {
    const sim::Time deadline = eng_.now() + hooks_.service_retry;
    eng_.at(deadline, [&reply] { reply.poke(); });
    while (!reply.ready() && eng_.now() < deadline) {
      co_await reply.wait_once();
    }
    if (reply.ready()) co_return false;
    if (down_at_send || net_.node_epoch(node) != epoch) co_return true;
  }
}

sim::Task<std::optional<util::Buffer>> RankRuntime::fetch_image(
    std::uint64_t image_version) {
  awaiting_fetch_ = true;
  for (;;) {
    net::Message req;
    req.kind = net::MsgKind::kCkptFetchReq;
    req.arg = static_cast<std::uint64_t>(rank_);
    req.ssn = image_version;
    req.src_rank = rank_;
    req.src = layout_.rank_node(rank_);
    req.dst = layout_.ckpt_node();
    daemon_->submit_ctl(std::move(req));
    if (hooks_.service_retry <= 0) {
      co_await fetch_done_.wait();
      break;
    }
    // The request is idempotent and the response guard drops late
    // duplicates, so a resend after a server crash is safe.
    if (!co_await await_ckpt_server(fetch_done_)) break;
  }
  awaiting_fetch_ = false;
  fetch_done_.reset();
  net::Message resp = std::move(*fetch_resp_);
  fetch_resp_.reset();
  if (resp.arg == 0) co_return std::nullopt;  // no image stored yet
  co_return std::move(resp.body);
}

sim::Task<void> RankRuntime::recovery_main(AppFactory factory,
                                            std::uint64_t image_version) {
  recovering_ = true;
  const sim::Time t_start = eng_.now();
  std::optional<util::Buffer> image = co_await fetch_image(image_version);
  if (image) {
    image->rewind();
    // Skip over the length-prefixed app blob (read later, in place, through
    // restart_state()) and restore the runtime state that follows it.
    const std::uint32_t blob_len = image->get_u32();
    const std::size_t blob_off = image->cursor();
    image->skip(blob_len);
    restore_matching(*image);
    proto_->restore(*image);
    restart_image_ = std::move(*image);
    blob_offset_ = blob_off;
    blob_len_ = blob_len;
  }
  hooks_.timeline.mark_image(rank_, eng_.now());
  trace::emit(tlane_, eng_.now(), trace::Kind::kRecovery, trace::kPhaseImage,
              rank_, rsn_, ckpt_version_);
  if (proto_->is_message_logging()) {
    const sim::Time t_events = eng_.now();
    std::vector<std::uint64_t> arr_wm(arr_.size());
    for (std::size_t s = 0; s < arr_.size(); ++s) arr_wm[s] = arr_[s].watermark();
    ftapi::DeterminantList dets = co_await proto_->recover(rsn_, arr_wm);
    stats_->recovery_collect_time += eng_.now() - t_events;

    // Keep determinants beyond the checkpoint; they must form a contiguous
    // continuation of the reception sequence (causal logging guarantees the
    // union of the EL prefix and survivors' knowledge has no holes).
    std::sort(dets.begin(), dets.end(),
              [](const ftapi::Determinant& a, const ftapi::Determinant& b) {
                return a.seq < b.seq;
              });
    replay_.clear();
    std::uint64_t expect = rsn_ + 1;
    for (const ftapi::Determinant& d : dets) {
      if (d.seq < expect) continue;  // duplicate / already covered
      MPIV_CHECK(d.seq == expect,
                 "rank %d: determinant gap at seq %llu (expected %llu)", rank_,
                 static_cast<unsigned long long>(d.seq),
                 static_cast<unsigned long long>(expect));
      replay_.push_back(d);
      ++expect;
    }
    stats_->recovery_events += replay_.size();
  }
  hooks_.timeline.mark_collect(rank_, eng_.now(), replay_.size());
  // Nothing to replay (coordinated rollback, or the checkpoint already
  // covers every reception): the recovery is live right here.
  if (replay_.empty()) hooks_.timeline.mark_replay_done(rank_, eng_.now());
  trace::emit(tlane_, eng_.now(), trace::Kind::kRecovery, trace::kPhaseCollect,
              rank_, replay_.size());
  if (replay_.empty()) {
    trace::emit(tlane_, eng_.now(), trace::Kind::kRecovery,
                trace::kPhaseReplayDone, rank_, rsn_);
  }
  recovering_ = false;
  stats_->recovery_total_time += eng_.now() - t_start;
  notify_dispatcher(CtlSub::kRecoveryDone);
  // Process app frames that arrived while we were recovering.
  std::deque<net::Message> held;
  held.swap(held_arrivals_);
  for (net::Message& m : held) on_app_frame(std::move(m));
  co_await app_main(std::move(factory));
}

// --- Comm ----------------------------------------------------------------------

sim::Task<void> RankRuntime::send(int dst, int tag, std::uint64_t bytes,
                                  std::uint64_t check) {
  // The application speaks virtual ranks (identity when un-shrunk); the
  // wire, matching and protocol layers all stay physical.
  MPIV_CHECK(dst >= 0 && dst < size() && dst != rank(),
             "rank %d: bad send destination %d", rank(), dst);
  const int pdst = to_physical(dst);
  co_await proto_->send_gate();
  const std::uint64_t ssn = ++send_ssn_[static_cast<std::size_t>(pdst)];
  net::Payload payload{bytes, check};
  ftapi::PiggybackOut pb = proto_->on_send(pdst, ssn, payload, tag);
  ++stats_->app_msgs_sent;
  stats_->app_bytes_sent += bytes;
  stats_->pb_bytes_sent += pb.bytes.size();
  stats_->pb_events_sent += pb.events;
  stats_->pb_send_cpu += pb.stats_cpu;
  if (pb.events == 0) ++stats_->pb_empty_msgs;
  // Worst single-message piggyback: the regrowth probe for EL outages (with
  // a healthy EL the unstable suffix — and so this peak — stays small).
  stats_->pb_peak_msg_bytes =
      std::max(stats_->pb_peak_msg_bytes,
               static_cast<std::uint64_t>(pb.bytes.size()));
  stats_->pb_peak_msg_events = std::max(stats_->pb_peak_msg_events, pb.events);
  trace::emit(tlane_, eng_.now(), trace::Kind::kSend, 0, pdst, ssn,
              static_cast<std::uint64_t>(tag), check);
  if (pb.events > 0) {
    trace::emit(tlane_, eng_.now(), trace::Kind::kPiggyback, 0, pdst, ssn,
                pb.events, pb.bytes.size());
  }
  if (hooks_.el_fault_at > 0) {
    stats_->pb_peak_post_el_fault_bytes =
        std::max(stats_->pb_peak_post_el_fault_bytes,
                 static_cast<std::uint64_t>(pb.bytes.size()));
    stats_->pb_peak_post_el_fault_events =
        std::max(stats_->pb_peak_post_el_fault_events, pb.events);
  }

  const sim::Time handoff = daemon_->app_handoff_cost(bytes);
  if (pb.cpu + handoff > 0) co_await eng_.sleep(pb.cpu + handoff);

  net::Message m;
  m.kind = net::MsgKind::kAppData;
  m.src = layout_.rank_node(rank_);
  m.dst = layout_.rank_node(pdst);
  m.src_rank = rank_;
  m.dst_rank = pdst;
  m.tag = tag;
  m.ssn = ssn;
  m.payload = payload;
  m.body = std::move(pb.bytes);
  m.dep_shadow = std::move(pb.deps);
  daemon_->submit_app(std::move(m));
}

sim::Task<RecvResult> RankRuntime::recv(int src, int tag) {
  MPIV_CHECK(src == kAnySource || (src >= 0 && src < size()),
             "rank %d: bad recv source %d", rank(), src);
  PostedRecv pr(eng_, src == kAnySource ? kAnySource : to_physical(src), tag);
  posted_.push_back(&pr);
  pump();
  co_await pr.done.wait();
  if (pr.deliver_cpu > 0) co_await eng_.sleep(pr.deliver_cpu);
  co_return pr.result;
}

Comm::RecvHandle RankRuntime::irecv(int src, int tag) {
  MPIV_CHECK(src == kAnySource || (src >= 0 && src < size()),
             "rank %d: bad irecv source %d", rank(), src);
  auto pr = std::make_unique<PostedRecv>(
      eng_, src == kAnySource ? kAnySource : to_physical(src), tag);
  PostedRecv* p = pr.get();
  const std::uint64_t id = ++irecv_seq_;
  pending_irecvs_.emplace(id, std::move(pr));
  posted_.push_back(p);
  pump();
  return RecvHandle{id};
}

sim::Task<mpi::RecvResult> RankRuntime::wait_recv(RecvHandle h) {
  auto it = pending_irecvs_.find(h.id);
  MPIV_CHECK(it != pending_irecvs_.end(),
             "rank %d: wait on unknown/completed request %llu", rank_,
             static_cast<unsigned long long>(h.id));
  PostedRecv* p = it->second.get();
  co_await p->done.wait();
  if (p->deliver_cpu > 0) co_await eng_.sleep(p->deliver_cpu);
  const RecvResult result = p->result;
  pending_irecvs_.erase(h.id);
  co_return result;
}

sim::Task<void> RankRuntime::compute(sim::Time cpu) {
  if (cpu > 0) co_await eng_.sleep(cpu);
}

sim::Task<void> RankRuntime::compute_flops(double flops) {
  co_await compute(net_.cost().flops_time(flops));
}

sim::Task<void> RankRuntime::checkpoint_site(const util::Buffer& app_state) {
  if (replaying() || recovering_) co_return;  // no checkpoints during recovery
  co_await proto_->at_checkpoint_site(*this, app_state);
}

// --- checkpointing ---------------------------------------------------------------

sim::Task<void> RankRuntime::store_checkpoint(const util::Buffer& app_state,
                                              std::uint64_t version) {
  MPIV_CHECK(replay_.empty(), "rank %d: checkpoint during replay", rank_);
  MPIV_CHECK(pending_irecvs_.empty(),
             "rank %d: outstanding irecv at checkpoint site (complete all "
             "requests before the site)", rank_);
  ckpt_version_ = version != 0 ? version : ckpt_version_ + 1;
  util::Buffer image;
  image.put_bytes(app_state);
  serialize_matching(image);
  proto_->serialize(image);

  // Capture the GC horizon NOW: arrivals continue while the store is in
  // flight, and a notice computed later would let senders prune payloads
  // this image cannot replay.
  std::vector<std::uint64_t> wm(arr_.size());
  for (std::size_t s = 0; s < arr_.size(); ++s) wm[s] = arr_[s].watermark();
  const std::uint64_t rsn_at_image = rsn_;

  // Dumping the process image through the daemon costs a copy.
  co_await eng_.sleep(net_.cost().memcpy_time(logical_state_bytes_));

  const bool retry = hooks_.service_retry > 0;
  awaiting_store_ack_ = true;
  for (;;) {
    net::Message m;
    m.kind = net::MsgKind::kCkptStore;
    m.arg = ckpt_version_;
    m.src_rank = rank_;
    m.payload.bytes = logical_state_bytes_;  // app memory beyond protocol state
    if (retry) {
      m.body = image;  // keep a copy for resends
    } else {
      m.body = std::move(image);
    }
    m.src = layout_.rank_node(rank_);
    m.dst = layout_.ckpt_node();
    daemon_->submit_ctl(std::move(m));
    if (!retry) {
      co_await store_ack_.wait();
      break;
    }
    // The store transaction is idempotent (same version overwrites the same
    // image), and the ack guard in on_daemon_up drops acks for any other
    // version.
    if (!co_await await_ckpt_server(store_ack_)) break;
  }
  store_ack_.reset();
  awaiting_store_ack_ = false;
  ++ckpts_completed_;
  hooks_.observer.on_rank_checkpoint(rank_, ckpts_completed_);
  trace::emit(tlane_, eng_.now(), trace::Kind::kCkpt, 0, rank_, ckpt_version_,
              ckpts_completed_, rsn_at_image);

  // Sender-log GC notices: receptions up to arr watermark are now covered
  // by this image, so peers may drop the corresponding logged payloads.
  for (int peer = 0; peer < layout_.nranks; ++peer) {
    if (peer == rank_) continue;
    net::Message n;
    n.kind = net::MsgKind::kControl;
    n.tag = static_cast<std::int32_t>(CtlSub::kCkptNotify);
    n.src_rank = rank_;
    n.arg = wm[static_cast<std::size_t>(peer)];
    n.src = layout_.rank_node(rank_);
    n.dst = layout_.rank_node(peer);
    daemon_->submit_ctl(std::move(n));
  }
  // The Event Logger may prune our determinants covered by the image (the
  // directory routes to our current home shard after a failover).
  net::Message gc;
  gc.kind = net::MsgKind::kControl;
  gc.tag = static_cast<std::int32_t>(CtlSub::kElGc);
  gc.src_rank = rank_;
  gc.arg = rsn_at_image;
  gc.src = layout_.rank_node(rank_);
  gc.dst = layout_.el_node(hooks_.el_directory.shard_of(rank_));
  daemon_->submit_ctl(std::move(gc));
}

void RankRuntime::serialize_matching(util::Buffer& b) const {
  b.put_u64(rsn_);
  b.put_u64(coll_seq_);
  b.put_u64(logical_state_bytes_);
  b.put_u64(ckpt_version_);
  for (const std::uint64_t s : send_ssn_) b.put_u64(s);
  for (const ArrivalDedup& a : arr_) a.serialize(b);
  b.put_u32(static_cast<std::uint32_t>(unexpected_.size()));
  for (const StoredMsg& m : unexpected_) m.serialize(b);
}

void RankRuntime::restore_matching(util::Buffer& b) {
  rsn_ = b.get_u64();
  coll_seq_ = b.get_u64();
  logical_state_bytes_ = b.get_u64();
  ckpt_version_ = b.get_u64();
  for (std::uint64_t& s : send_ssn_) s = b.get_u64();
  for (ArrivalDedup& a : arr_) a.restore(b);
  unexpected_.clear();
  const std::uint32_t n = b.get_u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    unexpected_.push_back(StoredMsg::deserialize(b));
  }
}

// --- arrival path ------------------------------------------------------------------

void RankRuntime::on_daemon_up(net::Message&& m) {
  switch (m.kind) {
    case net::MsgKind::kAppData:
    case net::MsgKind::kPayloadResend:
      if (recovering_) {
        held_arrivals_.push_back(std::move(m));
        return;
      }
      on_app_frame(std::move(m));
      return;
    case net::MsgKind::kCkptStoreAck:
      // Retransmitted stores and rollbacks leave duplicate or stale acks;
      // only the ack for the transaction we are awaiting counts.
      if (m.arg == ckpt_version_ && awaiting_store_ack_) store_ack_.set();
      return;
    case net::MsgKind::kCkptFetchResp:
      if (!awaiting_fetch_) return;  // late duplicate
      fetch_resp_ = std::move(m);
      fetch_done_.set();
      return;
    case net::MsgKind::kControl: {
      const auto sub = static_cast<CtlSub>(m.tag);
      if (sub == CtlSub::kCkptRequest) {
        ckpt_requested_ = true;
        // The wave number (arg) matters to coordinated checkpointing.
        proto_->on_ctl(std::move(m));
        return;
      }
      if (sub == CtlSub::kCkptNotify) {
        proto_->on_peer_checkpoint(m.src_rank, m.arg);
        return;
      }
      proto_->on_ctl(std::move(m));
      return;
    }
    default:
      proto_->on_ctl(std::move(m));
      return;
  }
}

void RankRuntime::on_app_frame(net::Message&& m) {
  // Absorbing the piggyback costs CPU and is serialized on this rank
  // (single protocol thread), which preserves arrival order.
  const ftapi::VProtocol::PacketCost cost = proto_->on_packet(m);
  stats_->pb_recv_cpu += cost.stats_cpu;
  absorb_free_ = std::max(eng_.now(), absorb_free_) + cost.cpu;
  if (absorb_free_ > eng_.now()) {
    const std::uint32_t slot = absorb_parked_.put(std::move(m));
    eng_.at(absorb_free_,
            [this, slot] { accept_app_frame(absorb_parked_.take(slot)); });
  } else {
    accept_app_frame(std::move(m));
  }
}

void RankRuntime::accept_app_frame(net::Message&& m) {
  if (!arr_[static_cast<std::size_t>(m.src_rank)].accept(m.ssn)) {
    return;  // duplicate (recovery resend or replayed re-emission)
  }
  StoredMsg sm;
  sm.src_rank = m.src_rank;
  sm.tag = m.tag;
  sm.ssn = m.ssn;
  sm.payload = m.payload;
  unexpected_.push_back(sm);
  pump();
}

void RankRuntime::pump() {
  if (replaying()) {
    // Forced matching: reception k must consume exactly the message named
    // by determinant k, regardless of arrival interleaving.
    while (replaying() && !posted_.empty()) {
      const ftapi::Determinant& head = replay_.front();
      auto it = std::find_if(unexpected_.begin(), unexpected_.end(),
                             [&head](const StoredMsg& s) {
                               return static_cast<std::uint32_t>(s.src_rank) ==
                                          head.src &&
                                      s.ssn == head.ssn;
                             });
      if (it == unexpected_.end()) return;
      // MPI semantics: the message matches the first compatible posted
      // request in post order (several may be outstanding via irecv).
      auto pit = std::find_if(posted_.begin(), posted_.end(),
                              [&](PostedRecv* p) { return matches(*p, *it); });
      MPIV_CHECK(pit != posted_.end(),
                 "rank %d replay: determinant (src %u ssn %llu tag %d) "
                 "matches no posted recv — nondeterministic re-execution",
                 rank_, head.src, static_cast<unsigned long long>(head.ssn),
                 it->tag);
      MPIV_CHECK(rsn_ + 1 == head.seq, "rank %d replay: rsn %llu vs det %llu",
                 rank_, static_cast<unsigned long long>(rsn_),
                 static_cast<unsigned long long>(head.seq));
      PostedRecv* pr = *pit;
      const StoredMsg msg = *it;
      unexpected_.erase(it);
      posted_.erase(pit);
      replay_.pop_front();
      ++stats_->replayed_receptions;
      if (replay_.empty()) {
        // Last forced reception matched: the recovery timeline's replay
        // phase ends here and execution is live again.
        hooks_.timeline.mark_replay_done(rank_, eng_.now());
        trace::emit(tlane_, eng_.now(), trace::Kind::kRecovery,
                    trace::kPhaseReplayDone, rank_, rsn_ + 1);
      }
      deliver_to(*pr, msg);
    }
    return;
  }
  // Match posted requests in post order; with irecv several may be
  // outstanding, and a later request may match even when an earlier one
  // has no candidate yet.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto pit = posted_.begin(); pit != posted_.end(); ++pit) {
      PostedRecv* pr = *pit;
      auto it = std::find_if(
          unexpected_.begin(), unexpected_.end(),
          [pr](const StoredMsg& s) { return matches(*pr, s); });
      if (it == unexpected_.end()) continue;
      const StoredMsg msg = *it;
      unexpected_.erase(it);
      posted_.erase(pit);
      deliver_to(*pr, msg);
      progress = true;
      break;  // restart: deliver_to may have changed both queues
    }
  }
}

void RankRuntime::deliver_to(PostedRecv& pr, const StoredMsg& m) {
  ++rsn_;
  ftapi::Determinant d;
  d.creator = static_cast<std::uint32_t>(rank_);
  d.seq = rsn_;
  d.src = static_cast<std::uint32_t>(m.src_rank);
  d.ssn = m.ssn;
  d.tag = m.tag;
  pr.deliver_cpu = proto_->on_deliver(d);
  trace::emit(tlane_, eng_.now(), trace::Kind::kRecvMatch, 0, m.src_rank, rsn_,
              m.ssn, m.payload.check);
  pr.result.src = to_virtual(m.src_rank);
  pr.result.tag = m.tag;
  pr.result.bytes = m.payload.bytes;
  pr.result.check = m.payload.check;
  pr.result.ssn = m.ssn;
  pr.done.set();
}

}  // namespace mpiv::mpi
