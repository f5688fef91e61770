#include "runtime/replica_shell.h"

#include <algorithm>

namespace sbft::runtime {

namespace {
/// Bootstrap roster handed to the runtime: the explicit one when given, else
/// the genesis mapping (ids 1..n at nodes 0..n-1).
RuntimeOptions make_runtime_options(const ShellOptions& opts, uint32_t roster_c) {
  RuntimeOptions ro;
  ro.checkpoint_interval = opts.config.checkpoint_interval();
  ro.ledger = opts.ledger;
  ro.wal = opts.wal;
  ro.state_transfer_chunk_size = opts.config.state_transfer_chunk_size;
  ro.state_transfer_max_chunks_per_request =
      opts.config.state_transfer_max_chunks_per_request;
  ro.state_transfer_delta_enabled = opts.config.state_transfer_delta_enabled;
  ro.state_transfer_donor_chunks_per_tick =
      opts.config.state_transfer_donor_chunks_per_tick;
  ro.state_transfer_delta_history = opts.config.state_transfer_delta_history;
  ro.self = opts.id;
  ro.tracer = opts.tracer;
  ro.marker_executor = opts.marker_executor;
  if (!opts.roster.empty()) {
    ro.membership_f = opts.roster_f > 0 ? opts.roster_f : opts.config.f;
    ro.membership_c = opts.roster_f > 0 ? roster_c : opts.config.c;
    ro.bootstrap_members = opts.roster;
  } else {
    ro.membership_f = opts.config.f;
    ro.membership_c = opts.config.c;
    for (ReplicaId r = 1; r <= opts.config.n(); ++r) {
      ro.bootstrap_members.push_back({r, r - 1});
    }
  }
  return ro;
}
}  // namespace

ReplicaShell::ReplicaShell(ShellOptions options, uint32_t roster_c, bool silent,
                           uint32_t demand_divisor,
                           std::unique_ptr<IService> service)
    : opts_(std::move(options)),
      runtime_(make_runtime_options(opts_, roster_c), std::move(service)),
      trace_(opts_.tracer ? *opts_.tracer : obs::Tracer::nop()),
      metrics_(opts_.metrics ? opts_.metrics
                             : std::make_shared<obs::MetricsRegistry>()),
      h_pp_to_commit_(&metrics_->histogram("stage.pp_to_commit_us")),
      h_commit_to_exec_(&metrics_->histogram("stage.commit_to_exec_us")),
      c_state_transfers_(runtime_.counters().counter("state_transfers")),
      cfg_(opts_.config),
      silent_(silent),
      demand_divisor_(demand_divisor),
      h_pending_wait_(&metrics_->histogram("stage.pending_wait_us")),
      c_proposed_requests_(runtime_.counters().counter("proposed_requests")),
      c_noop_fill_blocks_(runtime_.counters().counter("noop_fill_blocks")),
      c_view_changes_(runtime_.counters().counter("view_changes")) {
  // With an explicit roster the id may exceed the genesis n (a joiner added
  // by a later epoch); the genesis mapping requires id in 1..n.
  SBFT_CHECK(opts_.id >= 1 &&
             (!opts_.roster.empty() || opts_.id <= opts_.config.n()));
  bool restored = recover_from_storage();
  // Recovery may have reinstalled a later epoch; fold it into the derived
  // config and retirement state (no context: timers re-arm in on_start).
  // A non-member is a *joiner* only when nothing local says otherwise; a
  // restarted removed member — whose recovered WAL carries the epoch that
  // excluded it — re-retires instead of probing for an admission that will
  // never come. (A wiped removed member boots as a joiner and retires the
  // moment it adopts a checkpoint whose epoch excludes it.)
  cfg_ = epoch().derive_config(opts_.config);
  runtime_.take_epoch_change();
  retired_ = !runtime_.membership().is_member(opts_.id) &&
             (!opts_.recovering || restored);
}

ReplicaShell::~ReplicaShell() = default;

bool ReplicaShell::recover_from_storage() {
  auto recovered = runtime_.recover();
  if (!recovered) return false;  // fresh storage, or snapshot failed verification

  view_ = recovered->view;
  vc_target_ = view_;
  progress_marker_ = le();
  next_seq_ = recovered->install_votes(wal_votes_, le() + 1);
  recovered_replay_bytes_ = recovered->replayed_bytes;
  return true;
}

void ReplicaShell::on_start(sim::ActorContext& ctx) {
  // Boot-time replay cost: reading the ledger suffix back and re-executing it
  // is charged like the sequential I/O that produced it.
  if (recovered_replay_bytes_ > 0) {
    ctx.charge(ctx.costs().persist_us(recovered_replay_bytes_));
  }
  arm_batch_timer(ctx);
  if (opts_.marker_executor != nullptr &&
      opts_.marker_executor->tick_interval_us() > 0) {
    ctx.set_timer(opts_.marker_executor->tick_interval_us(),
                  timer_id(kShardTickTimer, 0));
  }
  // Recovery replay may have re-run shard decisions whose results the
  // outside world never saw (crash between execute and send): flush them.
  pump_marker_executor(ctx);
  // A restarted replica may have slept through checkpoints (or lost its disk
  // entirely): probe for a newer stable checkpoint right away instead of
  // waiting to notice the gap from protocol traffic.
  if (opts_.recovering) request_state_transfer(ctx);
}

NodeId ReplicaShell::node_of(ReplicaId r) const {
  // Resolve through the membership history (a state-transfer requester may be
  // a joiner known only from a staged delta; a donor may be a member of an
  // epoch this replica already left behind). Genesis fallback r-1 covers the
  // unconfigured unit-test paths.
  const MembershipManager& m = runtime_.membership();
  if (!m.configured()) return r - 1;
  for (auto it = m.history().rbegin(); it != m.history().rend(); ++it) {
    if (int rank = it->rank_of(r); rank >= 0) {
      return it->members[static_cast<size_t>(rank)].node;
    }
  }
  if (m.pending()) {
    for (const ReplicaInfo& add : m.pending()->delta.adds) {
      if (add.id == r) return add.node;
    }
  }
  return r - 1;
}

void ReplicaShell::send_to_replica(sim::ActorContext& ctx, ReplicaId r,
                                   MessagePtr msg) {
  if (silent()) return;
  ctx.send(node_of(r), std::move(msg));
}

void ReplicaShell::broadcast_replicas(sim::ActorContext& ctx, MessagePtr msg) {
  if (silent()) return;
  for (const ReplicaInfo& m : epoch().members) ctx.send(m.node, msg);
}

void ReplicaShell::arm_progress_timer(sim::ActorContext& ctx) {
  if (progress_timer_armed_) return;
  progress_timer_armed_ = true;
  int64_t backoff = opts_.config.view_change_timeout_us
                    << std::min<uint32_t>(vc_attempts_, 6);
  ctx.set_timer(backoff, timer_id(kProgressTimer, 0));
}

bool ReplicaShell::begin_view_change(ViewNum target, sim::ActorContext& ctx) {
  if (target <= view_ || retired_) return false;
  if (in_view_change_ && target <= vc_target_) return false;
  in_view_change_ = true;
  vc_target_ = target;
  ++vc_attempts_;
  ++c_view_changes_;
  // One session span per target view; escalating to a higher target closes
  // the superseded session and opens the next.
  if (vc_span_ != 0 && vc_span_ != target) {
    trace_.end(ctx.now(), obs::Category::kViewChange, obs::ev::kViewChange,
               vc_span_, 0, vc_span_, "superseded", 1);
  }
  if (vc_span_ != target) {
    vc_span_ = target;
    trace_.begin(ctx.now(), obs::Category::kViewChange, obs::ev::kViewChange,
                 target, 0, target);
  }
  arm_progress_timer(ctx);
  return true;
}

void ReplicaShell::enter_view(ViewNum v, ViewNum span_view, sim::ActorContext& ctx) {
  view_ = v;
  in_view_change_ = false;
  vc_target_ = v;
  vc_attempts_ = 0;
  new_view_sent_ = false;
  if (vc_span_ != 0) {
    trace_.end(ctx.now(), obs::Category::kViewChange, obs::ev::kViewChange,
               vc_span_, 0, span_view, "entered_view", v);
    vc_span_ = 0;
  } else {
    // Entered on the strength of a new-view alone (never locally timed out).
    trace_.instant(ctx.now(), obs::Category::kViewChange, obs::ev::kViewEntered,
                   0, 0, v);
  }
  runtime_.wal_record_view(v);
}

void ReplicaShell::resume_view(SeqNum next_seq, sim::ActorContext& ctx) {
  next_seq_ = next_seq;
  progress_marker_ = le();
  arm_batch_timer(ctx);
  try_propose(ctx);
  arm_progress_timer(ctx);
}

bool ReplicaShell::record_vote(SeqNum s, ViewNum v, Block block, SlotVote& vote,
                               sim::ActorContext& ctx) {
  // Only members of the slot's epoch vote (a joiner hears the enlarged
  // cluster's broadcasts before it has adopted the epoch that admits it —
  // and holds no signer for any earlier scheme).
  if (retired_ || !epoch_for_seq(s).contains(opts_.id)) return false;
  Digest digest = block.digest();
  // A block carrying a reconfiguration marker raises the pre-execution shadow
  // of the activation boundary: later slots are refused until the marker
  // executes (when the runtime's staged boundary takes over) or the slot is
  // superseded. Without this, pre-boundary keys could sign post-boundary
  // slots in the window between ordering and executing the marker.
  for (const Request& req : block.requests()) {
    if (decode_reconfig_request(req)) {
      uint64_t interval = opts_.config.checkpoint_interval();
      SeqNum boundary = (s + interval - 1) / interval * interval;
      shadow_gate_ = std::max(shadow_gate_, boundary);
    }
  }
  // Anti-equivocation across restarts: a previous incarnation's persisted
  // vote at this (or a later) view binds this one to the same digest.
  if (auto wv = wal_votes_.find(s);
      wv != wal_votes_.end() && wv->second.first >= v &&
      !(wv->second.second == digest)) {
    return false;
  }
  // Write-ahead contract: the vote is durable before it is sent.
  runtime_.wal_record_vote(s, v, digest);
  vote.has_pp = true;
  vote.pp_view = v;
  vote.block_digest = digest;
  vote.block = std::move(block);
  vote.h = slot_hash(s, v, digest);
  // Slot span: accepted pre-prepare -> executed. The span id folds the view
  // in so a slot re-accepted after a view change opens a fresh span (the
  // superseded one stays dangling, which Perfetto renders as unfinished).
  trace_.begin(ctx.now(), obs::Category::kSlot, obs::ev::kSlot, (v << 32) | s,
               s, v);
  ctx.charge(ctx.costs().hash_us(64));
  return true;
}

void ReplicaShell::reply_to_clients(SeqNum s, const ExecutionRecord& rec,
                                    sim::ActorContext& ctx) {
  if (silent()) return;
  for (size_t l = 0; l < rec.block.requests().size(); ++l) {
    const Request& req = rec.block.requests()[l];
    ctx.send(req.client, make_message(ClientReplyMsg{opts_.id, req.client,
                                                     req.timestamp, s,
                                                     rec.values[l]}));
  }
}

SeqNum ReplicaShell::reconfig_gate() const {
  if (SeqNum staged = runtime_.membership().pending_activation(); staged > 0) {
    return staged;
  }
  return shadow_gate_ > le() ? shadow_gate_ : 0;
}

void ReplicaShell::maybe_refresh_epoch(sim::ActorContext& ctx) {
  if (!runtime_.take_epoch_change()) return;
  cfg_ = epoch().derive_config(opts_.config);
  shadow_gate_ = 0;
  if (!runtime_.membership().is_member(opts_.id)) {
    // Removed: drain. Keep serving state transfer and cached replies; never
    // vote, propose, or start view changes again.
    retired_ = true;
    trace_.instant(ctx.now(), obs::Category::kReconfig, obs::ev::kEpochRetired,
                   0, 0, 0, "epoch", epoch().epoch);
    in_view_change_ = false;
    pending_.clear();
    pending_keys_.clear();
    return;
  }
  // A replica that just joined needs nothing special — the slots above its
  // adopted checkpoint arrive through the normal protocol paths.
  retired_ = false;
  arm_batch_timer(ctx);
  try_propose(ctx);
}

std::optional<Digest> ReplicaShell::committed_digest_of(SeqNum s) const {
  if (std::optional<Digest> d = slot_committed_digest(s)) return d;
  if (const ExecutionRecord* rec = runtime_.record(s)) {
    return rec->block.digest();
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Dispatch

void ReplicaShell::on_message(NodeId from, const Message& msg,
                              sim::ActorContext& ctx) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ClientRequestMsg>) {
          handle_client_request(from, m, ctx);
        } else if constexpr (std::is_same_v<T, StateTransferRequestMsg>) {
          handle_state_transfer_request(from, m, ctx);
        } else if constexpr (std::is_same_v<T, StateManifestMsg>) {
          handle_state_manifest(from, m, ctx);
        } else if constexpr (std::is_same_v<T, StateChunkRequestMsg>) {
          handle_state_chunk_request(from, m, ctx);
        } else if constexpr (std::is_same_v<T, StateChunkMsg>) {
          handle_state_chunk(from, m, ctx);
        } else if constexpr (std::is_same_v<T, ReconfigBlockMsg>) {
          handle_reconfig_block(m, ctx);
        } else if constexpr (std::is_same_v<T, TxVoteMsg> ||
                             std::is_same_v<T, TxDecisionMsg>) {
          // Cross-shard 2PC traffic belongs to the marker executor; the pump
          // below relays its responses and stages decision markers.
          if (opts_.marker_executor != nullptr) {
            opts_.marker_executor->on_network(from, msg, ctx.now());
          }
        } else {
          on_protocol_message(from, msg, ctx);
        }
      },
      msg);
  pump_marker_executor(ctx);
}

void ReplicaShell::on_timer(uint64_t id, sim::ActorContext& ctx) {
  switch (timer_kind(id)) {
    case kBatchTimer: {
      // Flush partial batches so low load never waits forever (§V-C "or
      // reaching a timeout").
      try_propose(ctx, /*flush_partial=*/true);
      arm_batch_timer(ctx);
      break;
    }
    case kProgressTimer: {
      progress_timer_armed_ = false;
      bool outstanding = !pending_.empty() || forwarded_waiting_ ||
                         highest_slot() > le() || in_view_change_;
      if (le() > progress_marker_) {
        // Progress was made; assume forwarded requests were served (if not,
        // the client's retry re-raises the flag).
        progress_marker_ = le();
        forwarded_waiting_ = false;
        if (outstanding) arm_progress_timer(ctx);
      } else if (outstanding) {
        // If f+1 checkpoint votes prove the cluster executed past us, the
        // stall is not the primary's fault — we missed (or are dropping, if a
        // view change is pending) the traffic for slots a quorum already
        // garbage-collected. Fetch the checkpoint; escalating the view change
        // alone cannot recover the gap (schedule fuzzer, seed 91).
        if (checkpoint_evidence_frontier() > le()) request_state_transfer(ctx);
        start_view_change(std::max(view_, vc_target_) + 1, ctx);
      }
      break;
    }
    case kStateTransferTimer: {
      // Single retry loop; the stop/probe decisions live in the manager.
      StateTransferManager& st = runtime_.state_transfer();
      auto tick = st.on_retry_tick(le(), state_transfer_behind());
      if (tick.stop) {
        st_retry_armed_ = false;
        if (st_span_open_ && !state_transfer_behind()) {
          st_span_open_ = false;
          trace_.end(ctx.now(), obs::Category::kStateTransfer,
                     obs::ev::kStateTransfer, st_session_, le());
        }
        // The fetch that just ended may have become moot for its *target*
        // while the replica fell behind a newer checkpoint (the cluster
        // moved on mid-fetch): start over.
        if (state_transfer_behind()) request_state_transfer(ctx);
        break;
      }
      if (tick.probe) {
        broadcast_state_probe(ctx);
      } else {
        trace_.instant(ctx.now(), obs::Category::kStateTransfer,
                       obs::ev::kStResume, st_session_, le());
      }
      send_chunk_requests(ctx);
      ctx.set_timer(opts_.config.state_transfer_retry_us,
                    timer_id(kStateTransferTimer, 0));
      break;
    }
    case kDonorTickTimer: {
      donor_tick_armed_ = false;
      StateTransferManager& st = runtime_.state_transfer();
      for (auto& [node, chunk] : st.on_donor_tick(
               runtime_.checkpoints(), opts_.id)) {
        ctx.charge(ctx.costs().hash_us(chunk.data.size()));
        if (opts_.corrupt_state_chunks && !chunk.data.empty()) {
          chunk.data[0] ^= 0xff;
        }
        if (!silent()) ctx.send(node, make_message(std::move(chunk)));
      }
      arm_donor_tick(ctx);
      break;
    }
    case kShardTickTimer: {
      if (opts_.marker_executor != nullptr) {
        opts_.marker_executor->on_tick(ctx.now());
        ctx.set_timer(opts_.marker_executor->tick_interval_us(),
                      timer_id(kShardTickTimer, 0));
      }
      break;
    }
    default:
      on_protocol_timer(id, ctx);
      break;
  }
  pump_marker_executor(ctx);
}

// ---------------------------------------------------------------------------
// Client requests and the primary's queue

void ReplicaShell::handle_client_request(NodeId from, const ClientRequestMsg& m,
                                         sim::ActorContext& ctx) {
  const Request& req = m.request;
  // The reconfiguration marker id is reserved for blocks the primary builds
  // from ReconfigBlockMsg; a "client" claiming it is forging. Same for the
  // shard 2PC decision marker id (decisions enter via the marker executor).
  if (req.client == kReconfigClient || req.client == kShardTxClient) return;
  // Client request signature ([31]): verified on a worker lane when the node
  // has one; admission continues in the completion.
  ctx.offload(ctx.costs().rsa_verify_us,
              [this, from, req](sim::ActorContext& c) {
                admit_client_request(from, req, c);
              });
}

void ReplicaShell::admit_client_request(NodeId from, const Request& req,
                                        sim::ActorContext& ctx) {
  if (const CachedReply* cached = runtime_.cached_reply(req.client, req.timestamp)) {
    // Already executed: serve the cached reply (client retry path, §V-A).
    if (!silent()) {
      ctx.send(req.client, make_message(ClientReplyMsg{
                               opts_.id, req.client, cached->timestamp,
                               cached->seq, cached->value}));
    }
    trace_.instant(ctx.now(), obs::Category::kSlot, obs::ev::kReplyCached, 0,
                   cached->seq, view_, "client", req.client);
    return;
  }

  if (retired_) return;  // drained: serves caches only, never orders
  if (censors(req)) return;
  if (is_primary() && !in_view_change_) {
    auto key = std::make_pair(req.client, req.timestamp);
    if (pending_keys_.insert(key).second) {
      pending_.emplace_back(req, ctx.now());
      trace_.instant(ctx.now(), obs::Category::kSlot, obs::ev::kRequestAdmitted,
                     0, 0, view_, "client", req.client);
    }
    try_propose(ctx);
  } else if (from == req.client) {
    // Forward to the current primary; remember that we owe progress — if the
    // primary never commits this request the timer forces a view change.
    send_to_replica(ctx, epoch().primary_of(view_),
                    make_message(ClientRequestMsg{req}));
    forwarded_waiting_ = true;
    arm_progress_timer(ctx);
  }
}

void ReplicaShell::try_propose(sim::ActorContext& ctx, bool flush_partial) {
  if (!is_primary() || in_view_change_ || retired_) return;
  // Demand sample: queued requests plus requests in unexecuted blocks, counted
  // from the slots so it self-corrects across view changes and state transfer.
  avg_pending_ = 0.8 * avg_pending_ +
                 0.2 * static_cast<double>(pending_.size() + in_flight_requests());
  const uint64_t window = std::max<uint64_t>(1, proposal_window());
  auto has_room = [&] {
    return next_seq_ - 1 - le() < window && next_seq_ <= ls() + opts_.config.win;
  };
  // §VIII adaptive batching: the minimum operations per block follows the
  // demand EWMA spread across demand_divisor_ concurrent blocks — small blocks
  // when idle, full ones under load. Partial blocks leave on the batch timer.
  uint32_t want = opts_.config.max_batch;
  if (opts_.config.adaptive_batching) {
    uint64_t size = static_cast<uint64_t>(avg_pending_ / demand_divisor_) + 1;
    want = static_cast<uint32_t>(
        std::clamp<uint64_t>(size, 1, opts_.config.max_batch));
  }
  while (!pending_.empty()) {
    // Drop requests already executed (e.g. committed via an earlier view).
    const Request& head = pending_.front().first;
    if (runtime_.replies().is_duplicate(head.client, head.timestamp)) {
      pending_keys_.erase({head.client, head.timestamp});
      pending_.pop_front();
      continue;
    }
    if (!has_room()) return;
    // Reconfiguration wedge: no slot beyond a pending activation boundary may
    // be ordered under the old epoch's keys/quorums — proposals resume from
    // the boundary once the checkpoint is stable and the epoch active.
    if (SeqNum gate = reconfig_gate(); gate > 0 && next_seq_ > gate) return;
    if (pending_.size() < want && !flush_partial) return;
    std::vector<Request> requests;
    while (!pending_.empty() && requests.size() < want) {
      auto [r, arrived] = std::move(pending_.front());
      pending_.pop_front();
      pending_keys_.erase({r.client, r.timestamp});
      h_pending_wait_->record(ctx.now() - arrived);
      ++c_proposed_requests_;
      requests.push_back(std::move(r));
    }
    propose(next_seq_++, Block(std::move(requests)), ctx);
  }

  // Primary-driven no-op fill (docs/reconfiguration.md): a staged
  // reconfiguration only activates when the checkpoint at its boundary
  // becomes stable, and checkpoints only form when slots commit. With no
  // client traffic the cluster would idle forever short of the boundary —
  // so on batch-timer ticks the primary fills the gap with empty blocks.
  if (flush_partial && pending_.empty()) {
    SeqNum gate = reconfig_gate();
    while (gate > 0 && next_seq_ <= gate && has_room()) {
      ++c_noop_fill_blocks_;
      propose(next_seq_++, Block{}, ctx);
    }
  }
}

void ReplicaShell::handle_reconfig_block(const ReconfigBlockMsg& m,
                                         sim::ActorContext& ctx) {
  // Administrative channel (docs/reconfiguration.md): the operator submits
  // the delta to every replica; the primary orders it as a marker request.
  // Validation is repeated deterministically at execution, so a stale or
  // inconsistent delta becomes an ordered no-op.
  if (retired_ || silent() || !is_primary() || in_view_change_) return;
  auto key = std::make_pair(kReconfigClient, m.nonce);
  if (pending_keys_.insert(key).second) {
    pending_.emplace_back(make_reconfig_request(m.delta, m.nonce), ctx.now());
  }
  try_propose(ctx, /*flush_partial=*/true);
}

void ReplicaShell::pump_marker_executor(sim::ActorContext& ctx) {
  IMarkerExecutor* ex = opts_.marker_executor;
  if (ex == nullptr) return;
  // Relay whatever the executor queued while handling ordered markers or
  // cross-group messages (votes, decision broadcasts, client results).
  for (auto& [node, msg] : ex->take_outbound()) {
    if (!silent()) ctx.send(node, std::move(msg));
  }
  // Decision markers the executor wants ordered go through the primary's
  // pending queue like reconfiguration blocks; on a backup they are dropped
  // here and re-staged by the executor's tick (possibly under a new primary).
  if (retired_ || silent() || !is_primary() || in_view_change_) {
    ex->take_marker_requests();
    return;
  }
  bool queued = false;
  for (Request& req : ex->take_marker_requests()) {
    auto key = std::make_pair(req.client, req.timestamp);
    if (pending_keys_.insert(key).second) {
      pending_.emplace_back(std::move(req), ctx.now());
      queued = true;
    }
  }
  if (queued) try_propose(ctx, /*flush_partial=*/true);
}

// ---------------------------------------------------------------------------
// State transfer (§VIII; chunked protocol spec in docs/state_transfer.md)

bool ReplicaShell::state_transfer_behind() const {
  // A wiped/restarted boot that has recovered nothing yet must keep probing
  // (its first probe may race ahead of any checkpoint existing). A joiner —
  // bootstrapped with a roster that does not contain it — keeps probing
  // until the epoch admitting it arrives via a fetched checkpoint
  // (docs/reconfiguration.md).
  return slots_behind() || (opts_.recovering && le() == 0 && ls() == 0) ||
         (!retired_ && !runtime_.membership().is_member(opts_.id));
}

void ReplicaShell::request_state_transfer(sim::ActorContext& ctx) {
  // A retired (removed) replica drains: it serves its retained checkpoint
  // but never fetches newer state — adopting one would advance its
  // execution past the drain point.
  if (silent() || retired_) return;
  StateTransferManager& st = runtime_.state_transfer();
  if (st.active()) return;  // a fetch round is already running
  ++c_state_transfers_;
  if (!st_span_open_) {
    st_span_open_ = true;
    trace_.begin(ctx.now(), obs::Category::kStateTransfer,
                 obs::ev::kStateTransfer, ++st_session_, le());
  }
  broadcast_state_probe(ctx);
  if (!st_retry_armed_) {
    st_retry_armed_ = true;
    ctx.set_timer(opts_.config.state_transfer_retry_us,
                  timer_id(kStateTransferTimer, 0));
  }
}

void ReplicaShell::broadcast_state_probe(sim::ActorContext& ctx) {
  StateTransferManager& st = runtime_.state_transfer();
  const CheckpointManager& cp = runtime_.checkpoints();
  // The probe advertises this replica's retained checkpoint as the delta
  // base; computing its transfer root chunk-hashes the local snapshot when
  // the donor cache is cold (mirrors the manifest-side cold charge).
  bool cold =
      cp.has_shippable() && st.donor_cached_seq() != cp.snapshot_cert().seq;
  StateTransferRequestMsg probe = st.make_probe(cp, opts_.id, le());
  if (cold && probe.base_seq > 0) {
    ctx.charge(ctx.costs().hash_us(cp.snapshot().size()));
  }
  trace_.instant(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStProbe,
                 st_session_, le());
  broadcast_replicas(ctx, make_message(std::move(probe)));
}

void ReplicaShell::handle_state_transfer_request(NodeId from,
                                                 const StateTransferRequestMsg& m,
                                                 sim::ActorContext& ctx) {
  if (silent()) return;
  // Ship the consistent (certificate, snapshot) pair captured when the
  // checkpoint executed — never the bare stable checkpoint, whose snapshot
  // may not have been captured. Replies go to the requesting *node*: a
  // joining replica is not in any epoch the donor holds yet, so its id
  // resolves through no roster.
  const CheckpointManager& cp = runtime_.checkpoints();
  if (!cp.has_shippable() || cp.snapshot_cert().seq <= m.have_seq) return;
  StateTransferManager& st = runtime_.state_transfer();
  // Building the chunk tree hashes the whole envelope — charged only when
  // the cache is cold for this checkpoint, not on every repeated probe
  // (note_checkpoint keeps it warm in steady state).
  bool cold = st.donor_cached_seq() != cp.snapshot_cert().seq;
  auto manifest = st.make_manifest(cp, m, opts_.id);
  if (!manifest) return;
  attach_donor_proof(*manifest);
  if (cold) ctx.charge(ctx.costs().hash_us(cp.snapshot().size()));
  ctx.send(from, make_message(std::move(*manifest)));
}

void ReplicaShell::handle_state_manifest(NodeId from, const StateManifestMsg& m,
                                         sim::ActorContext& ctx) {
  StateTransferManager& st = runtime_.state_transfer();
  if (silent() || !st.active() || m.seq <= le()) return;
  // The donor field must match the authenticated channel's sender: donor
  // identity drives registration and (on an invalid chunk) exclusion, so a
  // Byzantine replica must not be able to impersonate honest donors. All
  // cheap structural checks run before the certificate is verified — an
  // excluded donor spamming manifests must not cost a verification each.
  if (!from_replica(from, m.donor)) return;
  if (m.cert.seq != m.seq || st.donor_excluded(m.donor)) return;
  // The certificate must verify before the manifest can target the fetch;
  // the chunk root itself is bound end-to-end by the final state-root check
  // in adopt_checkpoint (a lying manifest sender is excluded there).
  if (!verify_checkpoint(m, ctx)) return;
  if (st.on_manifest(m, le(), runtime_.checkpoints())) {
    trace_.instant(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStManifest,
                   st_session_, m.seq, 0, "donor", m.donor);
    // A delta manifest may have seeded every chunk from the local base — the
    // fetch can be complete without a single wire chunk.
    if (st.fetch_complete()) {
      complete_chunked_transfer(ctx);
    } else {
      send_chunk_requests(ctx);
    }
  }
}

void ReplicaShell::handle_state_chunk_request(NodeId from,
                                              const StateChunkRequestMsg& m,
                                              sim::ActorContext& ctx) {
  if (silent()) return;
  std::vector<StateChunkMsg> chunks = runtime_.state_transfer().make_chunks(
      runtime_.checkpoints(), m, opts_.id, from);
  for (StateChunkMsg& c : chunks) {
    ctx.charge(ctx.costs().hash_us(c.data.size()));
    if (opts_.corrupt_state_chunks && !c.data.empty()) c.data[0] ^= 0xff;
    ctx.send(from, make_message(std::move(c)));  // joiners resolve by node only
  }
  arm_donor_tick(ctx);
}

void ReplicaShell::arm_donor_tick(sim::ActorContext& ctx) {
  if (donor_tick_armed_ || !runtime_.state_transfer().donor_tick_needed()) return;
  donor_tick_armed_ = true;
  ctx.set_timer(opts_.config.state_transfer_donor_tick_us,
                timer_id(kDonorTickTimer, 0));
}

void ReplicaShell::handle_state_chunk(NodeId from, const StateChunkMsg& m,
                                      sim::ActorContext& ctx) {
  if (silent()) return;
  // Spoofed donor ids could exclude honest donors (see handle_state_manifest).
  if (!from_replica(from, m.donor)) return;
  StateTransferManager& st = runtime_.state_transfer();
  ctx.charge(ctx.costs().hash_us(m.data.size()));  // leaf hash + proof path
  using Verdict = StateTransferManager::ChunkVerdict;
  switch (Verdict verdict = st.on_chunk(m); verdict) {
    case Verdict::kCompleted:
      trace_.instant(ctx.now(), obs::Category::kStateTransfer,
                     obs::ev::kStChunkStored, st_session_, m.seq, 0, "index",
                     m.index);
      complete_chunked_transfer(ctx);
      break;
    case Verdict::kStored:
    case Verdict::kInvalid:
      trace_.instant(ctx.now(), obs::Category::kStateTransfer,
                     verdict == Verdict::kStored ? obs::ev::kStChunkStored
                                                 : obs::ev::kStChunkInvalid,
                     st_session_, m.seq, 0,
                     verdict == Verdict::kStored ? "index" : "donor",
                     verdict == Verdict::kStored ? m.index : m.donor);
      // Keep the pipeline full; an invalid chunk also re-plans the indices
      // that were outstanding at the now-excluded donor.
      send_chunk_requests(ctx);
      break;
    case Verdict::kDuplicate:
    case Verdict::kRejected:
      break;
  }
}

void ReplicaShell::send_chunk_requests(sim::ActorContext& ctx) {
  for (auto& [donor, req] : runtime_.state_transfer().plan_requests(opts_.id)) {
    send_to_replica(ctx, donor, make_message(std::move(req)));
  }
}

void ReplicaShell::complete_chunked_transfer(sim::ActorContext& ctx) {
  StateTransferManager& st = runtime_.state_transfer();
  ExecCertificate cert = st.target_cert();
  Bytes envelope = st.take_envelope();
  bool adopted = runtime_.adopt_checkpoint(cert, as_span(envelope), ctx);
  // The stale-target vs lying-manifest distinction lives in the manager.
  if (st.on_adopt_result(adopted, le())) broadcast_state_probe(ctx);
  if (!adopted) {
    // Session stays open: the retry tick re-probes or stops it.
    trace_.instant(ctx.now(), obs::Category::kStateTransfer,
                   obs::ev::kStAdoptFailed, st_session_, cert.seq);
    return;
  }
  trace_.instant(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStAdopt,
                 st_session_, cert.seq, 0, "digest",
                 obs::digest_prefix(cert.exec_digest().data()));
  if (st_span_open_) {
    st_span_open_ = false;
    trace_.end(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStateTransfer,
               st_session_, cert.seq);
  }
  on_checkpoint_adopted(cert.seq);
  runtime_.evidence().gc_through(cert.seq);
  maybe_refresh_epoch(ctx);  // the adopted envelope may carry a newer epoch
  try_execute(ctx);
}

}  // namespace sbft::runtime
