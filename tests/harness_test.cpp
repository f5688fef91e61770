// Harness-level tests: metrics aggregation, replica counters, the experiment
// runner, and the Ethereum-like smart-contract workload end to end on a
// replicated cluster.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "evm/evm_service.h"
#include "evm/u256.h"
#include "harness/eth_workload.h"
#include "harness/experiment.h"
#include "harness/metrics.h"

namespace sbft::harness {
namespace {

TEST(Metrics, LatencySummaryPercentiles) {
  std::vector<int64_t> latencies;
  for (int i = 1; i <= 100; ++i) latencies.push_back(i * 1000);  // 1..100 ms
  LatencySummary s = summarize_latencies(latencies);
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean_ms, 50.5, 0.01);
  EXPECT_NEAR(s.median_ms, 51.0, 1.0);
  EXPECT_NEAR(s.p95_ms, 96.0, 1.0);
  EXPECT_EQ(s.min_ms, 1.0);
  EXPECT_EQ(s.max_ms, 100.0);
}

TEST(Metrics, EmptySummaryIsZero) {
  LatencySummary s = summarize_latencies({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean_ms, 0.0);
}

TEST(Metrics, FormatRowPads) {
  std::string row = format_row({"a", "bb"}, {4, 4});
  EXPECT_EQ(row, "a    bb   ");
}

TEST(Experiment, RunPointProducesMetrics) {
  ExperimentPoint point;
  point.kind = ProtocolKind::kSbft;
  point.f = 1;
  point.c = 0;
  point.num_clients = 4;
  point.warmup_us = 500'000;
  point.measure_us = 2'000'000;
  point.topology = sim::lan_topology();
  ExperimentResult result = run_point(point);
  EXPECT_TRUE(result.agreement_ok);
  EXPECT_GT(result.metrics.requests_completed, 0u);
  EXPECT_GT(result.metrics.ops_per_second, 0.0);
  EXPECT_GT(result.sim_events, 0u);
}

TEST(Experiment, ProtocolNames) {
  EXPECT_STREQ(protocol_name(ProtocolKind::kPbft), "PBFT");
  EXPECT_STREQ(protocol_name(ProtocolKind::kSbft), "SBFT");
}

// ---------------------------------------------------------------------------
// Counters: registry handles, one registry per replica incarnation.

ClusterOptions small_cluster(ProtocolKind kind) {
  ClusterOptions opts;
  opts.kind = kind;
  opts.f = 1;
  opts.c = kind == ProtocolKind::kSbft ? 1 : 0;
  opts.num_clients = 2;
  opts.requests_per_client = 0;
  opts.topology = sim::lan_topology();
  opts.seed = 5;
  return opts;
}

std::set<std::string> counter_names(const obs::MetricsRegistry& registry) {
  std::set<std::string> names;
  registry.for_each_counter(
      [&](const std::string& name, uint64_t) { names.insert(name); });
  return names;
}

// Counters both engines export: runtime, state transfer, shell, and the
// network/CPU totals collect_metrics adds.
const std::set<std::string> kSharedCounters = {
    "blocks_executed", "blocks_replayed", "bytes_sent", "cpu_lane0_used_us",
    "cpu_offloads_run", "cpu_used_us", "delta_bytes_saved",
    "delta_chunks_skipped", "donor_chunks_throttled", "epochs_activated",
    "joins_completed", "messages_sent", "noop_fill_blocks", "recoveries",
    "reply_cache_hits", "requests_executed",
    "state_transfer_bytes_transferred", "state_transfer_chunks_fetched",
    "state_transfer_chunks_served", "state_transfer_invalid_chunks",
    "state_transfer_resumes", "state_transfers", "view_changes",
    "wal_bytes_written"};

TEST(Counters, ExportedNamesIncludeZeroValuedCounters) {
  std::set<std::string> sbft = kSharedCounters;
  sbft.insert({"acked_blocks", "buffered_pi_shares", "fast_commits",
               "invalid_shares_seen", "proposed_requests", "slow_commits",
               "timed_slots"});
  std::set<std::string> pbft = kSharedCounters;
  pbft.insert("checkpoint_certs_rejected");
  for (ProtocolKind kind : {ProtocolKind::kSbft, ProtocolKind::kPbft}) {
    SCOPED_TRACE(protocol_name(kind));
    Cluster cluster(small_cluster(kind));
    cluster.run_for(300'000);
    RunMetrics m = collect_metrics(cluster, 0, cluster.simulator().now(), 1);
    std::set<std::string> expected = kind == ProtocolKind::kSbft ? sbft : pbft;
    EXPECT_EQ(counter_names(m.registry), expected);
    EXPECT_GT(m.counter("blocks_executed"), 0u);
    EXPECT_EQ(m.counter("view_changes"), 0u);  // exported although zero
    // Every replica-level counter lives in the incarnation's registry; the
    // per-handle registry holds histograms only.
    for (const char* run_level : {"bytes_sent", "cpu_lane0_used_us",
                                  "cpu_offloads_run", "cpu_used_us",
                                  "messages_sent"}) {
      expected.erase(run_level);
    }
    EXPECT_EQ(counter_names(cluster.replica(1).counters()), expected);
    EXPECT_TRUE(counter_names(*cluster.replica(1).metrics()).empty());
  }
}

TEST(Counters, RestartCountsFromZeroAndKeepsHistograms) {
  for (ProtocolKind kind : {ProtocolKind::kSbft, ProtocolKind::kPbft}) {
    SCOPED_TRACE(protocol_name(kind));
    Cluster cluster(small_cluster(kind));
    cluster.run_for(300'000);
    const ReplicaHandle& replica = cluster.replica(3);
    const std::set<std::string> names = counter_names(replica.counters());
    ASSERT_GT(replica.counter("blocks_executed"), 0u);
    const obs::Histogram* commits =
        replica.metrics()->find_histogram("stage.pp_to_commit_us");
    ASSERT_NE(commits, nullptr);
    const uint64_t samples = commits->count();
    ASSERT_GT(samples, 0u);

    cluster.crash_replica(3);
    cluster.run_for(100'000);
    cluster.restart_replica(3, /*wipe_storage=*/true);
    // The new incarnation declares the same counters, all at zero; the
    // per-handle histogram still holds the old incarnation's samples.
    EXPECT_EQ(counter_names(replica.counters()), names);
    replica.for_each_stat([](const char* name, uint64_t value) {
      EXPECT_EQ(value, 0u) << name;
    });
    EXPECT_EQ(replica.metrics()->find_histogram("stage.pp_to_commit_us"),
              commits);
    EXPECT_EQ(commits->count(), samples);
  }
}

TEST(CountersDeathTest, UnregisteredNameAborts) {
  Cluster cluster(small_cluster(ProtocolKind::kSbft));
  EXPECT_DEATH(cluster.replica(1).counter("no_such_counter"), "SBFT_CHECK failed");
}

TEST(EthWorkload, AddressesAreDeterministic) {
  EXPECT_EQ(eth_account_of(5), eth_account_of(5));
  EXPECT_NE(eth_account_of(5), eth_account_of(6));
  EXPECT_EQ(eth_token_of(5), eth_token_of(5));
}

TEST(EthWorkload, BootstrapThenTransfersExecuteOnLedger) {
  evm::EvmLedgerService ledger;
  EthWorkloadOptions wopts;
  wopts.txs_per_request = 10;
  wopts.create_fraction = 0.0;
  auto factory = eth_op_factory(42, wopts);
  Rng rng(1);
  // Bootstrap request deploys + mints.
  ledger.execute(as_span(factory(0, rng)));
  EXPECT_EQ(ledger.contracts_created(), 1u);
  ASSERT_TRUE(ledger.code_of(eth_token_of(42)).has_value());
  // Transfer batches run against the deployed token.
  ledger.execute(as_span(factory(1, rng)));
  sim::CostModel costs;
  EXPECT_GT(ledger.last_execute_cost_us(costs), 10 * costs.evm_us(21000) / 2);
}

TEST(EthWorkload, CreateFractionDeploysContracts) {
  evm::EvmLedgerService ledger;
  EthWorkloadOptions wopts;
  wopts.txs_per_request = 20;
  wopts.create_fraction = 0.5;
  auto factory = eth_op_factory(7, wopts);
  Rng rng(2);
  ledger.execute(as_span(factory(0, rng)));
  ledger.execute(as_span(factory(1, rng)));
  EXPECT_GT(ledger.contracts_created(), 2u);
}

TEST(EthWorkload, RequestSizeNear12KB) {
  EthWorkloadOptions wopts;  // defaults: 50 txs, padded
  auto factory = eth_op_factory(3, wopts);
  Rng rng(3);
  Bytes request = factory(1, rng);
  EXPECT_GT(request.size(), 8'000u);
  EXPECT_LT(request.size(), 16'000u);
}

TEST(EthWorkload, ReplicatedSmartContractsEndToEnd) {
  // The paper's smart-contract benchmark in miniature: an SBFT cluster
  // executing the EVM ledger with per-client token contracts.
  ClusterOptions opts;
  opts.kind = ProtocolKind::kSbft;
  opts.f = 1;
  opts.c = 0;
  opts.num_clients = 2;
  opts.requests_per_client = 4;
  opts.topology = sim::lan_topology();
  opts.seed = 3;
  opts.service_factory = [] { return std::make_unique<evm::EvmLedgerService>(); };
  EthWorkloadOptions wopts;
  wopts.txs_per_request = 5;
  wopts.tx_padding_bytes = 16;
  opts.per_client_op_factory = [wopts](ClientId id) {
    return eth_op_factory(id, wopts);
  };
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(240'000'000));
  cluster.run_for(5'000'000);
  const auto& ledger = dynamic_cast<const evm::EvmLedgerService&>(
      cluster.sbft_replica(1)->service());
  EXPECT_GE(ledger.contracts_created(), 2u);  // one token per client
  // Every replica holds the identical ledger.
  Digest expect = cluster.sbft_replica(1)->service().state_digest();
  for (ReplicaId r = 2; r <= cluster.n(); ++r) {
    EXPECT_EQ(cluster.sbft_replica(r)->service().state_digest(), expect);
  }
  EXPECT_TRUE(cluster.check_agreement());
}

}  // namespace
}  // namespace sbft::harness
