// End-to-end SBFT protocol tests on the simulated network (failure-free
// paths; fault scenarios live in fault_test.cpp).
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "harness/metrics.h"
#include "kv/kv_service.h"

namespace sbft::harness {
namespace {

ClusterOptions small_cluster(ProtocolKind kind, uint32_t f = 1, uint32_t c = 0) {
  ClusterOptions opts;
  opts.kind = kind;
  opts.f = f;
  opts.c = c;
  opts.num_clients = 3;
  opts.requests_per_client = 20;
  opts.topology = sim::lan_topology();
  opts.seed = 99;
  return opts;
}

TEST(SbftProtocol, FastPathCommitsAndAcksClients) {
  Cluster cluster(small_cluster(ProtocolKind::kSbft));
  ASSERT_TRUE(cluster.run_until_done(60'000'000));
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_EQ(cluster.client(i).completed(), 20u);
    EXPECT_EQ(cluster.client(i).retries(), 0u);
    EXPECT_EQ(cluster.client(i).rejected_acks(), 0u);
    // Ingredient 3: every request acknowledged by a single execute-ack.
    for (const auto& rec : cluster.client(i).records()) {
      EXPECT_TRUE(rec.via_fast_ack);
    }
  }
  EXPECT_GT(cluster.total_counter("fast_commits"), 0u);
  EXPECT_EQ(cluster.total_counter("slow_commits"), 0u);
  EXPECT_EQ(cluster.total_counter("view_changes"), 0u);
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SbftProtocol, AllReplicasConverge) {
  Cluster cluster(small_cluster(ProtocolKind::kSbft));
  ASSERT_TRUE(cluster.run_until_done(60'000'000));
  cluster.run_for(5'000'000);  // settle
  SeqNum lo = cluster.min_executed();
  SeqNum hi = cluster.max_executed();
  EXPECT_GT(lo, 0u);
  EXPECT_EQ(lo, hi);
  // Identical state digests everywhere.
  Digest expect = cluster.sbft_replica(1)->service().state_digest();
  for (ReplicaId r = 2; r <= cluster.n(); ++r) {
    EXPECT_EQ(cluster.sbft_replica(r)->service().state_digest(), expect);
  }
}

TEST(SbftProtocol, LinearPbftVariantUsesSlowPathAndReplies) {
  Cluster cluster(small_cluster(ProtocolKind::kLinearPbft));
  ASSERT_TRUE(cluster.run_until_done(120'000'000));
  EXPECT_EQ(cluster.total_counter("fast_commits"), 0u);
  EXPECT_GT(cluster.total_counter("slow_commits"), 0u);
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_EQ(cluster.client(i).completed(), 20u);
    // No execution collector: acceptance is via f+1 matching replies.
    for (const auto& rec : cluster.client(i).records()) {
      EXPECT_FALSE(rec.via_fast_ack);
    }
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SbftProtocol, FastPathVariantWithoutExecCollector) {
  Cluster cluster(small_cluster(ProtocolKind::kLinearPbftFast));
  ASSERT_TRUE(cluster.run_until_done(120'000'000));
  EXPECT_GT(cluster.total_counter("fast_commits"), 0u);
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_EQ(cluster.client(i).completed(), 20u);
    for (const auto& rec : cluster.client(i).records()) {
      EXPECT_FALSE(rec.via_fast_ack);
    }
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SbftProtocol, RedundantCollectorsC1) {
  Cluster cluster(small_cluster(ProtocolKind::kSbft, /*f=*/1, /*c=*/1));
  EXPECT_EQ(cluster.n(), 6u);  // 3f + 2c + 1
  ASSERT_TRUE(cluster.run_until_done(60'000'000));
  EXPECT_GT(cluster.total_counter("fast_commits"), 0u);
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SbftProtocol, LargerClusterF2) {
  auto opts = small_cluster(ProtocolKind::kSbft, /*f=*/2);
  opts.requests_per_client = 10;
  Cluster cluster(std::move(opts));
  EXPECT_EQ(cluster.n(), 7u);
  ASSERT_TRUE(cluster.run_until_done(60'000'000));
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SbftProtocol, RealAuthenticatedKvService) {
  auto opts = small_cluster(ProtocolKind::kSbft);
  opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(60'000'000));
  cluster.run_for(5'000'000);
  Digest expect = cluster.sbft_replica(1)->service().state_digest();
  for (ReplicaId r = 2; r <= cluster.n(); ++r) {
    EXPECT_EQ(cluster.sbft_replica(r)->service().state_digest(), expect);
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SbftProtocol, BatchedRequestsExecuteAllOps) {
  auto opts = small_cluster(ProtocolKind::kSbft);
  KvWorkloadOptions workload;
  workload.ops_per_request = 64;
  opts.op_factory = kv_op_factory(workload);
  opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
  opts.requests_per_client = 5;
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(60'000'000));
  cluster.run_for(5'000'000);
  // 3 clients x 5 requests x 64 ops; random keys may collide, so the store
  // holds at most 960 keys but far more than 5.
  auto* replica = cluster.sbft_replica(1);
  const auto& svc = dynamic_cast<const kv::KvService&>(replica->service());
  EXPECT_GT(svc.size(), 100u);
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SbftProtocol, CheckpointingAdvancesStableSeq) {
  auto opts = small_cluster(ProtocolKind::kSbft);
  opts.num_clients = 4;
  opts.requests_per_client = 200;
  // Small window so checkpoints trigger during the test.
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 16;
    config.max_batch = 2;
  };
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(240'000'000));
  cluster.run_for(5'000'000);
  for (ReplicaId r = 1; r <= cluster.n(); ++r) {
    EXPECT_GT(cluster.sbft_replica(r)->last_stable(), 0u)
        << "replica " << r << " never checkpointed";
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SbftProtocol, ThroughputMetricsSane) {
  auto opts = small_cluster(ProtocolKind::kSbft);
  opts.requests_per_client = 0;  // run for the window
  Cluster cluster(std::move(opts));
  cluster.run_for(1'000'000);
  sim::SimTime from = cluster.simulator().now();
  cluster.run_for(4'000'000);
  RunMetrics m = collect_metrics(cluster, from, cluster.simulator().now(), 1);
  EXPECT_GT(m.requests_completed, 0u);
  EXPECT_GT(m.ops_per_second, 0.0);
  EXPECT_GT(m.latency.median_ms, 0.0);
  EXPECT_GT(m.counter("messages_sent"), 0u);
  EXPECT_NEAR(m.fast_ack_fraction, 1.0, 0.01);
}

TEST(SbftProtocol, RealShoupThresholdCrypto) {
  // End-to-end run where sigma/tau/pi are genuine Shoup threshold-RSA
  // schemes: shares, combination and verification are real modular
  // arithmetic, so any protocol-level misuse of the threshold interface
  // (wrong digest, wrong quorum, share misattribution) fails loudly.
  auto opts = small_cluster(ProtocolKind::kSbft);
  opts.use_real_threshold_crypto = true;
  opts.num_clients = 2;
  opts.requests_per_client = 5;
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(120'000'000));
  EXPECT_GT(cluster.total_counter("fast_commits"), 0u);
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_EQ(cluster.client(i).completed(), 5u);
    EXPECT_EQ(cluster.client(i).rejected_acks(), 0u);
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(SbftProtocol, ExactlyOnceUnderClientRetry) {
  // Force client retries by making the retry timeout shorter than commit
  // latency: duplicates must not execute twice.
  auto opts = small_cluster(ProtocolKind::kSbft);
  opts.requests_per_client = 5;
  opts.num_clients = 1;
  opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
  uint32_t counter = 0;
  opts.op_factory = [&counter](uint64_t, Rng&) {
    // Append-style op: key is a running counter, so re-execution would
    // change the count of keys.
    Bytes key = to_bytes("op-" + std::to_string(counter++));
    return kv::encode_put(as_span(key), as_span("x"));
  };
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(120'000'000));
  cluster.run_for(5'000'000);
  const auto& svc =
      dynamic_cast<const kv::KvService&>(cluster.sbft_replica(1)->service());
  EXPECT_EQ(svc.size(), 5u);
  EXPECT_TRUE(cluster.check_agreement());
}

}  // namespace
}  // namespace sbft::harness
