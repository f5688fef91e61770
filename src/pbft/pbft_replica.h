// Scale-optimized PBFT baseline (§IX).
//
// Classic three-phase PBFT with all-to-all prepare/commit rounds and signed
// messages (following [31]: public-key signatures rather than MAC vectors,
// which is what the paper's "scale optimized PBFT" uses at f=64). Clients
// wait for f+1 matching replies. Checkpoints are the quadratic PBFT protocol.
// The view change carries prepared certificates and refills gaps with no-ops;
// certificate signatures ride on the simulator's authenticated channels (the
// baseline is evaluated for performance and crash faults, see DESIGN.md).
//
// The ordering engine sits on the same runtime::ReplicaShell as SBFT, so the
// baseline gets the identical request admission, execution pipeline, reply
// cache, checkpointing, WAL durability, crash recovery, and checkpoint-based
// state transfer — every crash/restart/disk-wipe harness scenario runs on
// both protocols through the same Cluster API. State-transfer certificates
// carry no pi threshold signature here (PBFT has no threshold keys); a weak
// checkpoint certificate (f+1 signed checkpoint votes) vouches for them
// instead, and the snapshot is verified against the certificate's state root.
//
// n = 3f + 1 (set c = 0 in the ProtocolConfig).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "runtime/replica_shell.h"

namespace sbft::pbft {

/// Per-replica checkpoint signing (CheckpointSigShare). The scheme is an
/// HMAC over a per-replica key derived from a cluster secret — the simulation
/// stand-in for per-replica public-key signatures, enforced (like the
/// simulated-BLS threshold scheme) by capability discipline: honest code only
/// ever signs with its own id, and the fault-injected donor fabricates a
/// checkpoint precisely because it *cannot* forge the other 2f signatures.
class CheckpointAuth {
 public:
  explicit CheckpointAuth(Bytes cluster_secret)
      : secret_(std::move(cluster_secret)) {}

  Bytes sign(ReplicaId replica, SeqNum seq, const Digest& state_root) const;
  bool verify(ReplicaId replica, SeqNum seq, const Digest& state_root,
              ByteSpan sig) const;

 private:
  Bytes secret_;
};

/// PBFT options on top of the options both engines share (id, config,
/// storage, roster, observability; runtime::ShellOptions). config.c must be
/// 0; the bootstrap roster's collector parameter is always 0.
struct PbftOptions : runtime::ShellOptions {
  // Fault injection: as a state-transfer donor, answer probes with a
  // fabricated-but-root-consistent checkpoint ahead of the cluster. The
  // manifest lacks the f+1 valid CheckpointSigShares of a weak certificate,
  // so fetchers reject it.
  bool fabricate_checkpoint = false;
  // Checkpoint signing/verification authority (shared per cluster). Null
  // disables checkpoint certificates entirely (unit setups).
  std::shared_ptr<const CheckpointAuth> checkpoint_auth;
};

class PbftReplica final : public runtime::ReplicaShell {
 public:
  PbftReplica(PbftOptions options, std::unique_ptr<IService> service);

  /// The fabricated-checkpoint donor fault intercepts state-transfer
  /// requests before the shell serves them honestly.
  void on_message(NodeId from, const Message& msg, sim::ActorContext& ctx) override;

 private:
  struct Slot : runtime::SlotVote {
    std::set<ReplicaId> prepares;  // matching h
    std::set<ReplicaId> commits;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool prepared = false;
    bool committed = false;
    sim::SimTime pp_time = 0;      // when the pre-prepare was accepted
    sim::SimTime commit_time = 0;  // when the commit quorum formed
  };

  // --- shell hooks ------------------------------------------------------------
  void on_protocol_message(NodeId from, const Message& msg,
                           sim::ActorContext& ctx) override;
  uint64_t in_flight_requests() const override { return requests_in_flight(slots_); }
  /// Charges the block hash and the primary's signature.
  void propose(SeqNum s, Block block, sim::ActorContext& ctx) override;
  SeqNum highest_slot() const override {
    return slots_.empty() ? 0 : slots_.rbegin()->first;
  }
  /// f+1 distinct checkpoint votes on one digest prove an honest replica
  /// executed that far.
  SeqNum checkpoint_evidence_frontier() const override;
  void start_view_change(ViewNum target, sim::ActorContext& ctx) override;
  std::optional<Digest> slot_committed_digest(SeqNum s) const override;
  bool slots_behind() const override;
  /// Requires the weak checkpoint certificate (verify_checkpoint_proof).
  bool verify_checkpoint(const StateManifestMsg& m, sim::ActorContext& ctx) override;
  /// Ships up to 2f+1 checkpoint signatures (checkpoint_proof_for).
  void attach_donor_proof(StateManifestMsg& m) const override;
  void on_checkpoint_adopted(SeqNum seq) override;

  void handle_pre_prepare(NodeId from, const PrePrepareMsg& m, sim::ActorContext& ctx);
  /// Prepare and commit votes (PbftPrepareMsg / PbftCommitMsg).
  template <typename Vote>
  void handle_vote(const Vote& m, sim::ActorContext& ctx);
  void handle_checkpoint(const PbftCheckpointMsg& m, sim::ActorContext& ctx);
  /// Continuation of handle_checkpoint once the vote signature cost has been
  /// paid (possibly on a worker lane).
  void handle_checkpoint_verified(const PbftCheckpointMsg& m,
                                  sim::ActorContext& ctx);
  void handle_view_change(const PbftViewChangeMsg& m, sim::ActorContext& ctx);
  void handle_new_view(NodeId from, const PbftNewViewMsg& m, sim::ActorContext& ctx);

  // --- checkpoint certificates (CheckpointSigShare lists) --------------------
  /// Proof for the current shippable checkpoint: up to 2f+1 shares, served
  /// from f+1 up (the weak-certificate floor — a frontier executed by only
  /// an f+1-sized fragment never accrues 2f+1 matching votes); empty below
  /// that.
  std::vector<CheckpointSigShare> checkpoint_proof_for(
      const ExecCertificate& cert) const;
  /// Weak certificate: f+1 distinct members of the checkpoint's epoch, all
  /// verifying over (cert.seq, cert.state_root) — at least one honest
  /// voucher. Counts a rejection on failure.
  bool verify_checkpoint_proof(const ExecCertificate& cert,
                               const std::vector<CheckpointSigShare>& proof,
                               sim::ActorContext& ctx);
  /// Fabricated-donor fault: answers state-transfer probes and chunk
  /// requests for the invented checkpoint. True when `msg` was consumed.
  bool serve_fabricated(NodeId from, const Message& msg, sim::ActorContext& ctx);
  /// Manifest for a bogus checkpoint ahead of the cluster (built lazily,
  /// served from fake_* below).
  std::optional<StateManifestMsg> fabricate_manifest(
      const StateTransferRequestMsg& probe, sim::ActorContext& ctx);

  void accept_pre_prepare(SeqNum s, ViewNum v, Block block, sim::ActorContext& ctx);
  void check_prepared(SeqNum s, sim::ActorContext& ctx);
  void check_committed(SeqNum s, sim::ActorContext& ctx);
  void try_execute(sim::ActorContext& ctx) override;
  void enter_new_view(const PbftNewViewMsg& m, sim::ActorContext& ctx);

  const bool fabricate_checkpoint_;
  const std::shared_ptr<const CheckpointAuth> checkpoint_auth_;

  std::map<SeqNum, Slot> slots_;

  // Checkpoint votes: seq -> digest -> voter -> signature (CheckpointSigShare
  // material; sigs verified on arrival when checkpoint_auth is set). The
  // entry for the stable checkpoint is retained so the donor can ship a
  // certificate with its manifests.
  std::map<SeqNum, std::map<Digest, std::map<ReplicaId, Bytes>>> checkpoint_votes_;

  // The quorum certificate that vouched for the checkpoint this replica
  // adopted via state transfer: a fresh adopter has no checkpoint votes of
  // its own, so it re-serves this proof to later fetchers instead of being
  // an unusable donor until the next checkpoint forms. (In-memory only, like
  // the vote set — a restarted donor re-accumulates at the next checkpoint.)
  SeqNum adopted_proof_seq_ = 0;
  Digest adopted_proof_root_{};
  std::vector<CheckpointSigShare> adopted_proof_;

  // Fabricated-donor fault state (fabricate_checkpoint).
  Bytes fake_envelope_;
  std::unique_ptr<runtime::ChunkedSnapshot> fake_chunks_;
  ExecCertificate fake_cert_;

  std::map<ViewNum, std::map<ReplicaId, PbftViewChangeMsg>> vc_msgs_;

  // State-transfer manifests/replies rejected for missing or invalid quorum
  // checkpoint certificates (the malicious-donor defense).
  uint64_t& c_checkpoint_certs_rejected_;
};

}  // namespace sbft::pbft
