// Protocol-agnostic replica handle.
//
// The cluster builds one handle per replica slot regardless of which ordering
// engine backs it (SBFT variants or the PBFT baseline). The handle owns the
// replica object *and* its durable storage (ledger + WAL, which stand in for
// the disk that survives the process), exposes the uniform introspection the
// harness/tests/benches need — view, executed/stable sequences, counters,
// committed digests — and is the single place where replica ids map
// to network node ids. Crash/restart/disk-wipe scenarios therefore run
// identically on every protocol.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/check.h"
#include "core/replica.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pbft/pbft_replica.h"
#include "recovery/wal.h"
#include "runtime/replica_runtime.h"
#include "runtime/replica_shell.h"
#include "storage/ledger_storage.h"

namespace sbft::harness {

class ReplicaHandle {
 public:
  ReplicaHandle() = default;

  ReplicaId id() const { return id_; }
  /// Network node this replica occupies — the only id↔node translation the
  /// harness uses (never hand-compute r - 1).
  NodeId node() const { return node_; }

  /// The engine behind this slot, as its shared shell; sbft()/pbft() give the
  /// typed engine (null when the slot runs the other protocol).
  runtime::ReplicaShell* actor() const { return replica_.get(); }
  core::SbftReplica* sbft() const {
    return dynamic_cast<core::SbftReplica*>(replica_.get());
  }
  pbft::PbftReplica* pbft() const {
    return dynamic_cast<pbft::PbftReplica*>(replica_.get());
  }

  // --- uniform introspection -------------------------------------------------
  ViewNum view() const { return replica_->view(); }
  SeqNum last_executed() const { return replica_->last_executed(); }
  SeqNum last_stable() const { return replica_->last_stable(); }
  const IService& service() const { return replica_->service(); }
  const runtime::ReplicaRuntime& runtime() const { return replica_->runtime(); }
  std::optional<Digest> committed_digest_of(SeqNum s) const {
    return replica_->committed_digest_of(s);
  }

  /// The current incarnation's counters (a restart starts them from zero).
  const obs::MetricsRegistry& counters() const { return runtime().counters(); }
  /// Counter `name` of the current incarnation. Aborts when no component
  /// registered `name`, so a misspelt name cannot silently read 0.
  uint64_t counter(std::string_view name) const {
    const uint64_t* value = counters().find_counter(name);
    SBFT_CHECK(value != nullptr);
    return *value;
  }
  /// Visits every counter of the current incarnation as (name, value).
  template <typename Fn>
  void for_each_stat(Fn&& fn) const {
    counters().for_each_counter(
        [&](const std::string& name, uint64_t value) { fn(name.c_str(), value); });
  }

  // --- durable storage (outlives replica incarnations) -----------------------
  std::shared_ptr<storage::ILedgerStorage> ledger() const { return ledger_; }
  std::shared_ptr<recovery::IReplicaWal> wal() const { return wal_; }

  // --- observability (outlives replica incarnations, like the disk) ----------
  /// Null unless the cluster was built with tracing enabled.
  std::shared_ptr<obs::Tracer> tracer() const { return tracer_; }
  std::shared_ptr<obs::MetricsRegistry> metrics() const { return metrics_; }

  /// Cross-shard marker executor (docs/sharding.md); null without a shard
  /// layer. Outlives replica incarnations — recovery restores its state.
  std::shared_ptr<runtime::IMarkerExecutor> marker_executor() const {
    return marker_executor_;
  }

 private:
  friend class Cluster;

  ReplicaId id_ = 0;
  NodeId node_ = 0;
  std::unique_ptr<runtime::ReplicaShell> replica_;
  std::shared_ptr<storage::ILedgerStorage> ledger_;
  std::shared_ptr<recovery::IReplicaWal> wal_;
  std::shared_ptr<obs::Tracer> tracer_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::shared_ptr<runtime::IMarkerExecutor> marker_executor_;
};

}  // namespace sbft::harness
