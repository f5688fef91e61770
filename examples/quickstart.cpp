// Quickstart: a 4-replica SBFT cluster (f=1, c=0) with an authenticated
// key-value store, three clients issuing puts, and single-message execution
// acknowledgements — the whole public API in one page.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "harness/cluster.h"
#include "harness/metrics.h"
#include "kv/kv_service.h"

using namespace sbft;

int main() {
  harness::ClusterOptions opts;
  opts.kind = harness::ProtocolKind::kSbft;
  opts.f = 1;                       // tolerate 1 Byzantine replica: n = 4
  opts.c = 0;
  opts.num_clients = 3;
  opts.requests_per_client = 100;   // closed loop
  opts.topology = sim::lan_topology();
  opts.service_factory = [] { return std::make_unique<kv::KvService>(); };

  harness::Cluster cluster(std::move(opts));
  std::printf("SBFT quickstart: n=%u replicas, f=%u, c=%u, %zu clients\n",
              cluster.n(), cluster.config().f, cluster.config().c,
              cluster.num_clients());

  bool done = cluster.run_until_done(/*deadline_us=*/60'000'000);
  std::printf("clients finished: %s (simulated %.2f s, %llu events)\n",
              done ? "yes" : "NO",
              static_cast<double>(cluster.simulator().now()) / 1e6,
              static_cast<unsigned long long>(cluster.simulator().events_processed()));

  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    auto& client = cluster.client(i);
    std::vector<int64_t> latencies;
    for (const auto& rec : client.records()) latencies.push_back(rec.latency_us);
    auto summary = harness::summarize_latencies(latencies);
    std::printf("  client %zu: %llu ops, median latency %.2f ms, all via "
                "single execute-ack: %s\n",
                i, static_cast<unsigned long long>(client.completed()),
                summary.median_ms,
                client.retries() == 0 ? "yes" : "no (had retries)");
  }

  std::printf("fast-path commits: %llu, slow-path commits: %llu\n",
              static_cast<unsigned long long>(cluster.total_counter("fast_commits")),
              static_cast<unsigned long long>(cluster.total_counter("slow_commits")));

  // Every replica converged to the same authenticated state.
  cluster.run_for(5'000'000);
  Digest root = cluster.sbft_replica(1)->service().state_digest();
  bool agree = cluster.check_agreement();
  std::printf("state root: %s...\n", to_hex(ByteSpan{root.data(), 8}).c_str());
  std::printf("agreement audit (Theorem VI.1): %s\n", agree ? "OK" : "VIOLATED");
  return agree && done ? 0 : 1;
}
