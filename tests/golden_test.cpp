// Cross-build golden values: digests of whole-cluster runs pinned as
// constants, so a refactor that claims to leave behaviour unchanged is
// checked against the previous build's outputs, not just against a second
// run of itself (tests/determinism_test.cpp covers run-to-run determinism).
//
// Each digest is the first 16 hex digits of a SHA-256 over the run's
// observable outputs. A mismatch means the simulated execution changed:
// message counts, bytes, timing, state, counters or trace events. These
// constants must only change together with a deliberate behaviour change,
// and the commit that changes them says why.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/serde.h"
#include "crypto/sha256.h"
#include "harness/cluster.h"
#include "harness/workload.h"
#include "kv/kv_service.h"

namespace sbft::harness {
namespace {

std::string short_digest(const Bytes& data) {
  Digest d = crypto::sha256(as_span(data));
  return to_hex(as_span(d)).substr(0, 16);
}

/// The Determinism.* run signature (events, messages, bytes, max executed,
/// replica 1's state root, every client latency) of a one-second run.
std::string run_signature(uint64_t seed, ProtocolKind kind) {
  ClusterOptions opts;
  opts.kind = kind;
  opts.f = 1;
  opts.c = 1;
  opts.num_clients = 3;
  opts.requests_per_client = 0;
  opts.topology = sim::continent_topology();
  opts.seed = seed;
  Cluster cluster(std::move(opts));
  cluster.run_for(1'000'000);

  Writer w;
  w.u64(cluster.simulator().events_processed());
  auto totals = cluster.network().total_stats();
  w.u64(totals.count);
  w.u64(totals.bytes);
  w.u64(cluster.max_executed());
  w.digest(cluster.replica(1).service().state_digest());
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    for (const auto& rec : cluster.client(i).records()) w.i64(rec.latency_us);
  }
  return short_digest(w.data());
}

/// The runtime counters the stats digest covers, in the order it hashes them.
constexpr const char* kRuntimeCounters[] = {
    "blocks_executed",
    "requests_executed",
    "reply_cache_hits",
    "state_transfers",
    "recoveries",
    "blocks_replayed",
    "wal_bytes_written",
    "state_transfer_chunks_served",
    "state_transfer_chunks_fetched",
    "state_transfer_invalid_chunks",
    "state_transfer_resumes",
    "state_transfer_bytes_transferred",
    "delta_chunks_skipped",
    "delta_bytes_saved",
    "donor_chunks_throttled",
    "epochs_activated",
    "joins_completed",
};

struct RecoveryGolden {
  std::string stats;  // the fetcher's runtime counters + cluster progress
  std::string trace;  // SHA-256 of cluster.trace_json()
  std::map<std::string, uint64_t> fetcher;
};

/// Replica 4 crashes and restarts with a wiped disk. It fetches the stable
/// checkpoint in full; by then the cluster has sealed a newer one, which it
/// fetches as a delta against the checkpoint it just adopted. Chunked state
/// transfer at 1 KiB chunks over a KV state.
RecoveryGolden recovery_run(ProtocolKind kind) {
  ClusterOptions opts;
  opts.kind = kind;
  opts.f = 1;
  opts.c = 0;
  opts.num_clients = 2;
  opts.requests_per_client = 0;
  opts.topology = sim::lan_topology();
  opts.seed = 71;
  opts.tracing = true;
  opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
  opts.op_factory = hot_range_kv_op_factory(/*key_space=*/512, /*hot=*/16,
                                            /*value_size=*/128,
                                            /*ops_per_request=*/8);
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 32;
    config.state_transfer_chunk_size = 1024;
    config.state_transfer_retry_us = 200'000;
  };
  Cluster cluster(std::move(opts));
  cluster.run_for(800'000);
  cluster.crash_replica(4);
  cluster.run_for(200'000);
  cluster.restart_replica(4, /*wipe_storage=*/true);
  cluster.run_for(800'000);

  RecoveryGolden out;
  Writer w;
  for (const char* name : kRuntimeCounters) {
    out.fetcher[name] = cluster.replica(4).counter(name);
    w.str(name);
    w.u64(out.fetcher[name]);
  }
  for (ReplicaId r = 1; r <= cluster.n(); ++r) {
    w.u64(cluster.replica(r).last_executed());
    w.u64(cluster.replica(r).last_stable());
  }
  w.u64(cluster.simulator().events_processed());
  out.stats = short_digest(w.data());
  out.trace = short_digest(to_bytes(cluster.trace_json()));
  return out;
}

void expect_chunked_then_delta(const std::map<std::string, uint64_t>& st) {
  EXPECT_GE(st.at("state_transfers"), 2u);
  EXPECT_GT(st.at("state_transfer_chunks_fetched"), 0u);
  EXPECT_GT(st.at("delta_chunks_skipped"), 0u) << "delta transfer never engaged";
}

TEST(Golden, SbftRunSignature) {
  EXPECT_EQ(run_signature(42, ProtocolKind::kSbft), "26c1d53f6450c395");
}

TEST(Golden, PbftRunSignature) {
  EXPECT_EQ(run_signature(43, ProtocolKind::kPbft), "f43daa8a4e43bf19");
}

TEST(Golden, SbftWipedRejoinWithDelta) {
  RecoveryGolden g = recovery_run(ProtocolKind::kSbft);
  expect_chunked_then_delta(g.fetcher);
  EXPECT_EQ(g.stats, "309929aa576d4ee5");
  EXPECT_EQ(g.trace, "633cc00c6f8f73a1");
}

TEST(Golden, PbftWipedRejoinWithDelta) {
  RecoveryGolden g = recovery_run(ProtocolKind::kPbft);
  expect_chunked_then_delta(g.fetcher);
  EXPECT_EQ(g.stats, "557c74c848e897f5");
  EXPECT_EQ(g.trace, "9b7591a835d08da7");
}

}  // namespace
}  // namespace sbft::harness
