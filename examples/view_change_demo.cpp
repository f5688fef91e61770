// View-change demo (§V-G): commit traffic in view 0, crash the primary, and
// watch the cluster elect view 1 via the dual-mode view change and resume —
// including re-committing any value that might have been decided.
//
//   $ ./examples/view_change_demo
#include <cstdio>

#include "harness/cluster.h"

using namespace sbft;

int main() {
  harness::ClusterOptions opts;
  opts.kind = harness::ProtocolKind::kSbft;
  opts.f = 1;
  opts.c = 0;
  opts.num_clients = 2;
  opts.requests_per_client = 150;
  opts.topology = sim::lan_topology();

  harness::Cluster cluster(std::move(opts));
  std::printf("n=%u cluster; primary of view 0 is replica 1\n", cluster.n());

  cluster.run_for(300'000);
  std::printf("t=%.1fs: view-0 progress: replica 2 executed %llu blocks "
              "(%llu fast commits so far)\n",
              cluster.simulator().now() / 1e6,
              static_cast<unsigned long long>(
                  cluster.sbft_replica(2)->last_executed()),
              static_cast<unsigned long long>(cluster.total_counter("fast_commits")));

  std::printf("t=%.1fs: crashing the primary (replica 1)\n",
              cluster.simulator().now() / 1e6);
  cluster.network().crash(0);

  bool done = cluster.run_until_done(600'000'000);
  ViewNum view = 0;
  for (ReplicaId r = 2; r <= cluster.n(); ++r) {
    view = std::max(view, cluster.sbft_replica(r)->view());
  }
  std::printf("t=%.1fs: cluster now in view %llu (new primary: replica %u), "
              "view changes observed: %llu\n",
              cluster.simulator().now() / 1e6,
              static_cast<unsigned long long>(view),
              cluster.config().primary_of(view),
              static_cast<unsigned long long>(cluster.total_counter("view_changes")));

  uint64_t completed = 0;
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    completed += cluster.client(i).completed();
  }
  std::printf("clients completed %llu/300 requests across the view change: %s\n",
              static_cast<unsigned long long>(completed),
              done ? "all done" : "INCOMPLETE");

  bool agree = cluster.check_agreement();
  std::printf("agreement audit across views (Theorem VI.1): %s\n",
              agree ? "OK" : "VIOLATED");
  return agree && done ? 0 : 1;
}
