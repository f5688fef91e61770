// SBFT ordering engine (§V): fast path, Linear-PBFT fallback, execution
// acknowledgement with E-collectors, and the dual-mode view change.
// Everything protocol-independent — request admission, state transfer,
// recovery (runtime::ReplicaShell) and the execution pipeline, reply cache,
// checkpointing and WAL (runtime::ReplicaRuntime) — is shared with the PBFT
// baseline; this class decides *which* block commits at each sequence number.
//
// The replica is a simulator actor: all sends/timers go through the
// ActorContext, and every cryptographic or service operation charges its
// calibrated cost so the discrete-event clock reflects a real deployment.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "core/crypto_context.h"
#include "core/view_change.h"
#include "runtime/replica_shell.h"

namespace sbft::core {

/// Fault behaviours injected for testing. Everything except kHonest models a
/// Byzantine or crashed replica; honest replicas must stay safe regardless.
enum class ReplicaBehavior {
  kHonest,
  kSilent,         // receives but never sends (crash-like, still counts CPU)
  kEquivocate,     // as primary, proposes different blocks to different halves
  kCorruptShares,  // flips a byte in every threshold share it emits
  kCensor,         // as primary, silently drops requests from odd-id clients
                   // (liveness must recover via the backup progress timers
                   // forcing a view change past the censoring primary)
};

/// SBFT options on top of the options both engines share (id, config,
/// storage, roster, observability; runtime::ShellOptions).
struct ReplicaOptions : runtime::ShellOptions {
  ReplicaCrypto crypto;
  ReplicaBehavior behavior = ReplicaBehavior::kHonest;
  // Collector staggering (§V: "in most executions just one collector is
  // active and the others just monitor in idle").
  int64_t collector_stagger_us = 25'000;
  uint32_t roster_c = 0;  // collector parameter of the bootstrap roster
  // Per-epoch threshold key material (trusted-dealer re-keying); epoch 0
  // always uses `crypto`. Required before any epoch > 0 activates.
  std::shared_ptr<const EpochKeyTable> epoch_keys;
};

class SbftReplica final : public runtime::ReplicaShell {
 public:
  SbftReplica(ReplicaOptions options, std::unique_ptr<IService> service);
  ~SbftReplica() override;  // defined where Slot is complete

  /// Chained execution digest d_s for an executed sequence (nullopt if
  /// unknown / garbage collected without record).
  std::optional<Digest> exec_digest_of(SeqNum s) const {
    return runtime_.exec_digest_of(s);
  }

 private:
  struct Slot;

  enum EngineTimer : uint64_t {
    kFastPathTimer = kFirstEngineTimer,
    kStaggerFast,
    kStaggerPrepare,
    kStaggerSlow,
    kStaggerExec,
    kShareFallback,  // re-send sign-share to the primary (stalled slot)
    kStateFallback,  // re-send sign-state to the primary (stalled cert)
  };

  // --- shell hooks ------------------------------------------------------------
  void on_protocol_message(NodeId from, const Message& msg,
                           sim::ActorContext& ctx) override;
  void on_protocol_timer(uint64_t id, sim::ActorContext& ctx) override;
  std::optional<Digest> slot_committed_digest(SeqNum s) const override;
  /// A committed-but-unfetchable slot, or delivered traffic far past le().
  bool slots_behind() const override;
  /// Charges the combined-signature check, then verifies the certificate's
  /// pi signature (seq-aware, see verify_cert_pi).
  bool verify_checkpoint(const StateManifestMsg& m, sim::ActorContext& ctx) override;
  void on_checkpoint_adopted(SeqNum seq) override;
  /// kCensor: as primary, requests from odd-id clients vanish at admission.
  bool censors(const Request& req) const override;
  /// §VIII: at most (n-1)/collectors slots in flight, so each collector
  /// serves one slot at a time.
  uint64_t proposal_window() const override;
  uint64_t in_flight_requests() const override;
  /// Charges the block hash; kEquivocate sends conflicting blocks.
  void propose(SeqNum s, Block block, sim::ActorContext& ctx) override;
  SeqNum highest_slot() const override;
  void start_view_change(ViewNum target, sim::ActorContext& ctx) override;

  // --- message handlers -----------------------------------------------------
  void handle_pre_prepare(NodeId from, const PrePrepareMsg& m, sim::ActorContext& ctx);
  void handle_sign_share(const SignShareMsg& m, sim::ActorContext& ctx);
  void handle_full_commit_proof(const FullCommitProofMsg& m, sim::ActorContext& ctx);
  void handle_prepare(const PrepareMsg& m, sim::ActorContext& ctx);
  void handle_commit_share(const CommitShareMsg& m, sim::ActorContext& ctx);
  void handle_full_commit_proof_slow(const FullCommitProofSlowMsg& m,
                                     sim::ActorContext& ctx);
  void handle_sign_state(const SignStateMsg& m, sim::ActorContext& ctx);
  void handle_full_execute_proof(const FullExecuteProofMsg& m, sim::ActorContext& ctx);
  void handle_view_change(const ViewChangeMsg& m, sim::ActorContext& ctx);
  void handle_new_view(const NewViewMsg& m, sim::ActorContext& ctx);
  void handle_get_block_request(const GetBlockRequestMsg& m, sim::ActorContext& ctx);
  void handle_get_block_reply(const GetBlockReplyMsg& m, sim::ActorContext& ctx);

  // --- membership epochs (docs/reconfiguration.md) ----------------------------
  /// Threshold key material of an epoch: epoch 0 is the dealt cluster keys;
  /// later epochs resolve from the provisioned EpochKeyTable (memoized).
  const ReplicaCrypto& crypto_for_epoch(const runtime::MembershipEpoch& e) const;
  const ReplicaCrypto& crypto_for_seq(SeqNum s) const {
    return crypto_for_epoch(epoch_for_seq(s));
  }
  /// Signer index of `r` in slot s's epoch schemes (rank + 1); 0 = non-member.
  uint32_t signer_of(ReplicaId r, SeqNum s) const {
    int rank = epoch_for_seq(s).rank_of(r);
    return rank < 0 ? 0 : static_cast<uint32_t>(rank) + 1;
  }
  /// Checkpoint certificates outlive their epoch (and a joiner may fetch one
  /// certified under an epoch it has not installed yet): verify against the
  /// seq's epoch first, then every provisioned epoch.
  bool verify_cert_pi(const ExecCertificate& cert) const;
  /// Active epoch's verifier bundle for the pure view-change functions.
  ViewChangeVerifiers view_change_verifiers() const;

  // --- commit paths ----------------------------------------------------------
  void accept_pre_prepare(SeqNum s, ViewNum v, Block block, sim::ActorContext& ctx);
  void collector_try_fast(SeqNum s, sim::ActorContext& ctx, bool from_stagger);
  void collector_try_prepare(SeqNum s, sim::ActorContext& ctx);
  void collector_try_slow_proof(SeqNum s, sim::ActorContext& ctx);
  void commit(SeqNum s, const Digest& block_digest, bool fast, sim::ActorContext& ctx);

  // --- execution (§V-D) -------------------------------------------------------
  void try_execute(sim::ActorContext& ctx) override;
  void execute_block(SeqNum s, sim::ActorContext& ctx);
  void ecollector_try_proof(SeqNum s, sim::ActorContext& ctx, bool from_stagger);
  void send_execute_acks(SeqNum s, sim::ActorContext& ctx);
  void advance_checkpoint(SeqNum s, sim::ActorContext& ctx);

  /// Fast-forwards to view `v` on the strength of a verified combined
  /// threshold signature produced in `v` (a quorum operated there). Lets a
  /// recovered or lagging replica rejoin across view changes it slept
  /// through. No-op while a view change is in progress.
  void adopt_verified_view(ViewNum v, sim::ActorContext& ctx);

  // --- view change (§V-G) -----------------------------------------------------
  ViewChangeMsg build_view_change(ViewNum target) const;
  void maybe_send_new_view(ViewNum target, sim::ActorContext& ctx);
  void enter_new_view(const NewViewMsg& m, sim::ActorContext& ctx);

  // --- helpers -----------------------------------------------------------------
  Slot& slot(SeqNum s);
  Slot* find_slot(SeqNum s);
  Bytes sign_share_maybe_corrupt(const crypto::IThresholdSigner& signer,
                                 const Digest& d) const;

  const ReplicaCrypto crypto_;
  const ReplicaBehavior behavior_;
  const int64_t collector_stagger_us_;
  const std::shared_ptr<const EpochKeyTable> epoch_keys_;

  // SBFT-only stage histogram (the shell binds the ones both engines fill).
  obs::Histogram* h_exec_to_ack_;

  // Memoized per-epoch ReplicaCrypto resolved from the EpochKeyTable.
  mutable std::map<uint64_t, ReplicaCrypto> epoch_crypto_;

  std::map<SeqNum, Slot> slots_;

  // View-change messages collected per target view.
  std::map<ViewNum, std::map<ReplicaId, ViewChangeMsg>> vc_msgs_;

  // SBFT protocol counters (handles into the runtime's registry). Phase
  // timing lives in the "stage.*" histograms instead.
  uint64_t& c_fast_commits_;
  uint64_t& c_slow_commits_;
  uint64_t& c_invalid_shares_seen_;
  uint64_t& c_timed_slots_;   // slots with a pp->commit measurement
  uint64_t& c_acked_blocks_;  // E-collector: blocks acked to clients
  uint64_t& c_buffered_pi_shares_;
};

}  // namespace sbft::core
