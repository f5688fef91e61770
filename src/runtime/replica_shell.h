// Replica shell shared by both ordering engines.
//
// SBFT (src/core/replica.h) and the PBFT baseline (src/pbft/pbft_replica.h)
// differ in how they decide which block commits at each sequence number.
// Everything around that decision is the same for both and lives here,
// written once: boot and crash recovery, the membership-epoch refresh,
// client-request admission and the primary's request queue, the cross-shard
// marker pump, checkpoint-based state transfer in both the fetcher and the
// donor role (docs/state_transfer.md), and the timer and message dispatch for
// all of it. The shell owns the ReplicaRuntime (execution, checkpoints, WAL),
// the tracer and metrics bindings, and the replica's non-protocol state.
//
// So are the primary's proposer, the progress timer, the view-change session
// bookkeeping and the vote record of an accepted pre-prepare.
//
// An engine derives from ReplicaShell, handles its own protocol messages and
// timers, and implements the hooks in the protected section: sending a
// proposal, executing blocks, starting a view change, verifying a checkpoint
// certificate, and cleaning up its slots when a checkpoint is adopted.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "kv/service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/config.h"
#include "proto/message.h"
#include "recovery/wal.h"
#include "runtime/replica_runtime.h"
#include "sim/network.h"
#include "storage/ledger_storage.h"

namespace sbft::runtime {

/// Options both engines take; core::ReplicaOptions and pbft::PbftOptions
/// derive from this and add their engine's own.
struct ShellOptions {
  ProtocolConfig config;
  ReplicaId id = 1;  // 1..n; the replica must be node id-1 in the network
  std::shared_ptr<storage::ILedgerStorage> ledger;  // optional persistence
  // Optional write-ahead log for consensus metadata (view, checkpoints,
  // in-flight votes). When ledger and/or wal hold state at construction, the
  // replica rebuilds itself from them (crash recovery, §VIII).
  std::shared_ptr<recovery::IReplicaWal> wal;
  // Set when the replica is restarted into an already-running cluster: it
  // probes state transfer on boot in case its local log fell behind the
  // cluster's stable checkpoint (or the disk was lost entirely).
  bool recovering = false;
  // Fault injection: as a state-transfer donor, flip a byte in every chunk
  // payload served (the proof still matches the honest chunk, so fetchers
  // must detect the corruption by Merkle verification and move on).
  bool corrupt_state_chunks = false;
  // Group reconfiguration (docs/reconfiguration.md): the bootstrap roster the
  // replica starts from. Empty derives the genesis roster from the config
  // (ids 1..n at nodes 0..n-1). A joining replica is handed the current
  // epoch's roster — which does not contain it — and learns the epoch that
  // admits it from state transfer.
  std::vector<ReplicaInfo> roster;
  uint32_t roster_f = 0;  // fault parameter of the bootstrap roster (0: config)
  // Observability (docs/observability.md). A null tracer binds to the shared
  // disabled instance; a null registry gets an engine-private one, so both
  // are optional for direct-construction unit tests.
  std::shared_ptr<obs::Tracer> tracer;
  std::shared_ptr<obs::MetricsRegistry> metrics;
  // Cross-shard marker executor (docs/sharding.md). Not owned — the harness
  // keeps it alive across replica incarnations, like the ledger. Null for
  // single-group deployments.
  IMarkerExecutor* marker_executor = nullptr;
};

/// The accepted pre-prepare of a slot; each engine's Slot derives from it.
struct SlotVote {
  bool has_pp = false;
  ViewNum pp_view = 0;
  Digest block_digest{};
  std::optional<Block> block;
  Digest h{};  // slot_hash(seq, pp_view, block_digest)
};

class ReplicaShell : public sim::IActor {
 public:
  ~ReplicaShell() override;
  // Offloaded work and the network hold `this`: a replica never moves.
  ReplicaShell(const ReplicaShell&) = delete;
  ReplicaShell& operator=(const ReplicaShell&) = delete;

  void on_start(sim::ActorContext& ctx) final;
  void on_message(NodeId from, const Message& msg, sim::ActorContext& ctx) override;
  void on_timer(uint64_t id, sim::ActorContext& ctx) final;

  // Introspection (harness, tests, metrics).
  ReplicaId id() const { return opts_.id; }
  ViewNum view() const { return view_; }
  SeqNum last_executed() const { return runtime_.last_executed(); }
  SeqNum last_stable() const { return runtime_.last_stable(); }
  const IService& service() const { return runtime_.service(); }
  const ReplicaRuntime& runtime() const { return runtime_; }
  /// Digest of the decision block committed at s (nullopt if not committed).
  std::optional<Digest> committed_digest_of(SeqNum s) const;

 protected:
  /// `roster_c` is the bootstrap roster's collector parameter (PBFT: 0);
  /// `silent` models a replica that receives but never sends;
  /// `demand_divisor` is how many concurrent blocks the adaptive batch
  /// controller spreads the primary's outstanding demand across.
  ReplicaShell(ShellOptions options, uint32_t roster_c, bool silent,
               uint32_t demand_divisor, std::unique_ptr<IService> service);

  // Timer identifiers: kind in the top 16 bits, sequence/payload below.
  // Engines number their own kinds from kFirstEngineTimer.
  enum TimerKind : uint64_t {
    kBatchTimer = 1,
    kProgressTimer = 2,
    kStateTransferTimer = 3,
    kDonorTickTimer = 4,  // drain chunk serves the donor rate limiter deferred
    kShardTickTimer = 5,  // marker executor retry cadence (docs/sharding.md)
    kFirstEngineTimer = 16,
  };
  static uint64_t timer_id(uint64_t kind, uint64_t payload) {
    return (kind << 48) | (payload & 0xffffffffffffull);
  }
  static uint64_t timer_kind(uint64_t id) { return id >> 48; }
  static uint64_t timer_payload(uint64_t id) { return id & 0xffffffffffffull; }

  // --- engine hooks ----------------------------------------------------------
  /// Messages and timers the shell does not handle itself.
  virtual void on_protocol_message(NodeId from, const Message& msg,
                                   sim::ActorContext& ctx) = 0;
  virtual void on_protocol_timer(uint64_t /*id*/, sim::ActorContext& /*ctx*/) {}
  /// Primary: most proposals in flight (unexecuted) at once; at least 1.
  virtual uint64_t proposal_window() const { return opts_.config.win / 4; }
  /// Primary: requests in the blocks of the slots in (le(), next_seq_).
  virtual uint64_t in_flight_requests() const = 0;
  /// Primary: charges the proposal and sends the pre-prepare for slot s.
  virtual void propose(SeqNum s, Block block, sim::ActorContext& ctx) = 0;
  /// Highest sequence holding a slot (0: none).
  virtual SeqNum highest_slot() const = 0;
  /// Highest sequence f+1 checkpoint votes prove the cluster executed (0:
  /// none); a stalled replica behind it fetches state before escalating.
  virtual SeqNum checkpoint_evidence_frontier() const { return 0; }
  /// Sends the engine's view-change message (after begin_view_change).
  virtual void start_view_change(ViewNum target, sim::ActorContext& ctx) = 0;
  /// Executes committed blocks in sequence order while possible.
  virtual void try_execute(sim::ActorContext& ctx) = 0;
  /// Committed digest of an in-flight slot (nullopt when not committed).
  virtual std::optional<Digest> slot_committed_digest(SeqNum s) const = 0;
  /// The engine's half of state_transfer_behind(): its slots show blocks
  /// this replica will never see again.
  virtual bool slots_behind() const = 0;
  /// Verifies the checkpoint certificate a manifest targets, charging its
  /// cost; false drops the manifest.
  virtual bool verify_checkpoint(const StateManifestMsg& m,
                                 sim::ActorContext& ctx) = 0;
  /// Donor: attaches the proof fetchers need to an outgoing manifest.
  virtual void attach_donor_proof(StateManifestMsg& /*m*/) const {}
  /// A checkpoint at `seq` was adopted via state transfer: drop the slots it
  /// covers.
  virtual void on_checkpoint_adopted(SeqNum seq) = 0;
  /// Byzantine admission filter: true drops a new request unordered.
  virtual bool censors(const Request& /*req*/) const { return false; }

  // --- helpers for engines ---------------------------------------------------
  const MembershipEpoch& epoch() const { return runtime_.membership().active(); }
  const MembershipEpoch& epoch_for_seq(SeqNum s) const {
    return runtime_.membership().epoch_for_seq(s);
  }
  SeqNum le() const { return runtime_.last_executed(); }
  SeqNum ls() const { return runtime_.last_stable(); }
  bool is_primary() const { return epoch().primary_of(view_) == opts_.id; }
  bool silent() const { return silent_; }
  NodeId node_of(ReplicaId r) const;
  bool from_replica(NodeId node, ReplicaId r) const { return node == node_of(r); }
  void send_to_replica(sim::ActorContext& ctx, ReplicaId r, MessagePtr msg);
  void broadcast_replicas(sim::ActorContext& ctx, MessagePtr msg);
  void arm_progress_timer(sim::ActorContext& ctx);
  /// Primary: arms the timer that flushes partial batches (no-op on a backup).
  void arm_batch_timer(sim::ActorContext& ctx) {
    if (!is_primary()) return;
    ctx.set_timer(opts_.config.batch_timeout_us, timer_id(kBatchTimer, 0));
  }
  /// Primary: turns queued requests into proposals (partial blocks only when
  /// flush_partial).
  void try_propose(sim::ActorContext& ctx, bool flush_partial = false);
  /// The body of both engines' in_flight_requests.
  template <typename Slots>
  uint64_t requests_in_flight(const Slots& slots) const {
    uint64_t n = 0;
    for (auto it = slots.upper_bound(le()); it != slots.end() && it->first < next_seq_;
         ++it) {
      if (it->second.block) n += it->second.block->requests().size();
    }
    return n;
  }
  /// Accepts a pre-prepare for slot s in view v into `vote`: persists the
  /// vote, opens the slot span and charges the slot hash. False (nothing
  /// recorded) when retired, when not a member of the slot's epoch, or when
  /// a previous incarnation's WAL vote binds the slot to another digest.
  bool record_vote(SeqNum s, ViewNum v, Block block, SlotVote& vote,
                   sim::ActorContext& ctx);
  /// Replies to every client of the block executed at s directly (the
  /// f+1-matching-replies path).
  void reply_to_clients(SeqNum s, const ExecutionRecord& rec,
                        sim::ActorContext& ctx);
  /// Opens or escalates the view-change session toward `target` (one trace
  /// span per target view) and arms the progress timer to back off to the
  /// next target. False when the target is stale or this replica retired.
  bool begin_view_change(ViewNum target, sim::ActorContext& ctx);
  /// Enters view v: view fields, the session span's end (trace argument
  /// `view` = span_view) or a kViewEntered instant, and the WAL view record.
  void enter_view(ViewNum v, ViewNum span_view, sim::ActorContext& ctx);
  /// Resumes ordering in the entered view: proposals continue at next_seq,
  /// progress is measured from le(), and the primary restarts batching.
  void resume_view(SeqNum next_seq, sim::ActorContext& ctx);
  /// First sequence proposals/pre-prepares must not cross while a
  /// reconfiguration awaits activation (0: no gate). Pre-boundary keys must
  /// never sign post-boundary slots.
  SeqNum reconfig_gate() const;
  /// Folds a pending epoch change into the engine: derived config, primary
  /// timers, retirement. Call after any runtime operation that can activate.
  void maybe_refresh_epoch(sim::ActorContext& ctx);
  /// Starts a state-transfer fetch unless one is running.
  void request_state_transfer(sim::ActorContext& ctx);
  /// True while this replica demonstrably needs a newer checkpoint (the
  /// engine's slots say so, or a wiped/restarted boot or a joiner has
  /// nothing yet).
  bool state_transfer_behind() const;
  /// Drains the marker executor after every message/timer: relays its queued
  /// sends and (primary only) enqueues staged 2PC decision markers for
  /// ordering (docs/sharding.md). No-op without an executor.
  void pump_marker_executor(sim::ActorContext& ctx);

  ShellOptions opts_;
  ReplicaRuntime runtime_;

  // Observability: the tracer reference binds to opts_.tracer or the shared
  // disabled instance; per-stage latency histograms live in the registry and
  // survive restarts with it (the harness shares one registry per handle).
  // Counters are handles into the runtime's per-incarnation registry.
  obs::Tracer& trace_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Histogram* h_pp_to_commit_;
  obs::Histogram* h_commit_to_exec_;
  uint64_t& c_state_transfers_;  // fetches this replica started
  // The current state-transfer trace session, and whether its span is open.
  uint64_t st_session_ = 0;
  bool st_span_open_ = false;

  // Derived from the active epoch (f/c patched into the protocol config so
  // quorum formulas see the epoch sizing).
  ProtocolConfig cfg_;
  // Set when an activated epoch no longer contains this replica: it drains —
  // serves state transfer and cached replies, but never votes or proposes.
  bool retired_ = false;
  // Pre-execution shadow of the activation boundary: set when a pre-prepare
  // carrying a reconfiguration marker is accepted at seq s (boundary =
  // ceil(s / interval) * interval), authoritative once the marker executes
  // and the runtime stages the pending reconfiguration.
  SeqNum shadow_gate_ = 0;

  ViewNum view_ = 0;
  bool in_view_change_ = false;
  ViewNum vc_target_ = 0;
  uint32_t vc_attempts_ = 0;
  ViewNum vc_span_ = 0;  // open view-change session span (0 = none)
  bool new_view_sent_ = false;
  SeqNum next_seq_ = 1;  // primary: next sequence to propose

  // Progress tracking for the view-change timer.
  SeqNum progress_marker_ = 0;

  // Votes persisted by a previous incarnation for slots still in flight:
  // seq -> (highest voted view, block digest). A recovered replica refuses to
  // vote for a conflicting digest at or below that view (anti-equivocation).
  std::map<SeqNum, std::pair<ViewNum, Digest>> wal_votes_;

 private:
  void handle_client_request(NodeId from, const ClientRequestMsg& m,
                             sim::ActorContext& ctx);
  /// Continuation of handle_client_request once the request signature has
  /// been verified (possibly on a worker lane).
  void admit_client_request(NodeId from, const Request& req,
                            sim::ActorContext& ctx);
  void handle_reconfig_block(const ReconfigBlockMsg& m, sim::ActorContext& ctx);

  // --- crash recovery (§VIII) -------------------------------------------------
  /// Rebuilds state from WAL + ledger at construction time (no-op when the
  /// attached storage is fresh or absent). True when state was restored.
  bool recover_from_storage();

  // --- state transfer (docs/state_transfer.md) --------------------------------
  void handle_state_transfer_request(NodeId from, const StateTransferRequestMsg& m,
                                     sim::ActorContext& ctx);
  void handle_state_manifest(NodeId from, const StateManifestMsg& m,
                             sim::ActorContext& ctx);
  void handle_state_chunk_request(NodeId from, const StateChunkRequestMsg& m,
                                  sim::ActorContext& ctx);
  void handle_state_chunk(NodeId from, const StateChunkMsg& m,
                          sim::ActorContext& ctx);
  /// Sends the manager's next chunk-request plan to its chosen donors.
  void send_chunk_requests(sim::ActorContext& ctx);
  /// Broadcasts the state-transfer probe (delta base advertised; the cold
  /// chunk-hashing of the local snapshot is charged here).
  void broadcast_state_probe(sim::ActorContext& ctx);
  /// Arms the donor tick while the rate limiter has budget in use or deferred
  /// requests queued (re-served there instead of being dropped).
  void arm_donor_tick(sim::ActorContext& ctx);
  /// All chunks received: assemble, adopt, and clean up (or restart the fetch
  /// when the assembled envelope fails the certified state-root check).
  void complete_chunked_transfer(sim::ActorContext& ctx);

  const bool silent_;
  const double demand_divisor_;

  // Primary request queue: requests with their admission time.
  std::deque<std::pair<Request, sim::SimTime>> pending_;
  std::set<std::pair<ClientId, uint64_t>> pending_keys_;
  double avg_pending_ = 0;  // EWMA demand estimate for adaptive batching
  obs::Histogram* h_pending_wait_;
  uint64_t& c_proposed_requests_;  // requests batched into blocks
  // Empty blocks proposed to drive an idle cluster across a pending
  // reconfiguration's activation checkpoint boundary.
  uint64_t& c_noop_fill_blocks_;
  uint64_t& c_view_changes_;

  bool progress_timer_armed_ = false;
  bool forwarded_waiting_ = false;  // forwarded a client request to the primary
  bool st_retry_armed_ = false;  // state-transfer retry timer pending
  bool donor_tick_armed_ = false;
  uint64_t recovered_replay_bytes_ = 0;  // charged as boot-time replay CPU
};

}  // namespace sbft::runtime
