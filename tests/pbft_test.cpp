// Tests for the scale-optimized PBFT baseline (§IX).
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace sbft::harness {
namespace {

ClusterOptions pbft_cluster(uint32_t f = 1) {
  ClusterOptions opts;
  opts.kind = ProtocolKind::kPbft;
  opts.f = f;
  opts.num_clients = 3;
  opts.requests_per_client = 20;
  opts.topology = sim::lan_topology();
  opts.seed = 31;
  return opts;
}

TEST(Pbft, CommitsAndRepliesWithFPlusOne) {
  Cluster cluster(pbft_cluster());
  EXPECT_EQ(cluster.n(), 4u);  // 3f + 1
  ASSERT_TRUE(cluster.run_until_done(120'000'000));
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_EQ(cluster.client(i).completed(), 20u);
    for (const auto& rec : cluster.client(i).records()) {
      EXPECT_FALSE(rec.via_fast_ack);  // PBFT has no execute-ack path
    }
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(Pbft, AllReplicasConverge) {
  Cluster cluster(pbft_cluster());
  ASSERT_TRUE(cluster.run_until_done(120'000'000));
  cluster.run_for(5'000'000);
  SeqNum hi = cluster.max_executed();
  EXPECT_GT(hi, 0u);
  Digest expect = cluster.pbft_replica(1)->service().state_digest();
  for (ReplicaId r = 2; r <= cluster.n(); ++r) {
    EXPECT_EQ(cluster.pbft_replica(r)->service().state_digest(), expect);
  }
}

TEST(Pbft, ToleratesFCrashedBackups) {
  auto opts = pbft_cluster(2);  // n = 7
  opts.crash_replicas = 2;
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(240'000'000));
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(Pbft, PrimaryCrashTriggersViewChange) {
  auto opts = pbft_cluster();
  opts.requests_per_client = 100;
  Cluster cluster(std::move(opts));
  cluster.run_for(100'000);
  cluster.network().crash(0);  // primary of view 0
  ASSERT_TRUE(cluster.run_until_done(600'000'000));
  EXPECT_GT(cluster.total_counter("view_changes"), 0u);
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(Pbft, QuadraticMessageComplexity) {
  // PBFT's all-to-all rounds vs SBFT's collectors at the same sizing: PBFT
  // must send substantially more messages for the same committed work.
  auto run_messages = [](ProtocolKind kind) {
    ClusterOptions opts;
    opts.kind = kind;
    opts.f = 2;  // n = 7
    opts.num_clients = 2;
    opts.requests_per_client = 10;
    opts.topology = sim::lan_topology();
    opts.seed = 5;
    Cluster cluster(std::move(opts));
    EXPECT_TRUE(cluster.run_until_done(240'000'000));
    EXPECT_TRUE(cluster.check_agreement());
    return cluster.network().total_stats().count;
  };
  uint64_t pbft_msgs = run_messages(ProtocolKind::kPbft);
  uint64_t sbft_msgs = run_messages(ProtocolKind::kSbft);
  EXPECT_GT(pbft_msgs, sbft_msgs);
}

TEST(Pbft, CheckpointsAdvanceStableState) {
  auto opts = pbft_cluster();
  opts.num_clients = 4;
  opts.requests_per_client = 150;
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 16;
    config.max_batch = 2;
  };
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(600'000'000));
  cluster.run_for(5'000'000);
  EXPECT_GT(cluster.pbft_replica(1)->last_executed(), 16u);
  EXPECT_TRUE(cluster.check_agreement());
}

}  // namespace
}  // namespace sbft::harness
