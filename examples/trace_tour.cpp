// Observability tour (docs/observability.md): one SBFT cluster with tracing
// enabled walks through the full fault repertoire — fast-path commits, a
// primary crash with the dual-mode view change, slow-path commits while the
// cluster is a replica short, and a wiped-disk rejoin via chunked state
// transfer — then dumps the structured trace as Chrome-trace-event JSON
// (load it at https://ui.perfetto.dev) and audits it with the cross-replica
// invariant checker.
//
//   $ ./examples/example_trace_tour [trace.json]
#include <cstdio>

#include "harness/cluster.h"

using namespace sbft;
using namespace sbft::harness;

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "trace.json";

  ClusterOptions opts;
  opts.kind = ProtocolKind::kSbft;
  opts.f = 1;
  opts.c = 0;
  opts.num_clients = 4;
  opts.requests_per_client = 0;  // free-running
  opts.topology = sim::lan_topology();
  opts.seed = 7;
  opts.tracing = true;
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 32;
    config.state_transfer_chunk_size = 1024;
    config.state_transfer_retry_us = 200'000;
    // Impatient timers so the whole tour fits in a few simulated seconds:
    // clients re-push quickly after the primary dies and the survivors elect
    // view 1 without the production-scale grace period.
    config.client_retry_timeout_us = 1'000'000;
    config.view_change_timeout_us = 500'000;
  };
  Cluster cluster(std::move(opts));
  std::printf("n=%u SBFT cluster, tracing on (ring capacity %zu events per "
              "replica)\n",
              cluster.n(), cluster.options().trace_capacity);

  // Act 1: healthy — every commit takes the fast path (all 3f+c+1 sign).
  cluster.run_for(1'500'000);
  std::printf("t=%.1fs: healthy run — %llu fast commits, %llu slow\n",
              cluster.simulator().now() / 1e6,
              static_cast<unsigned long long>(cluster.total_counter("fast_commits")),
              static_cast<unsigned long long>(cluster.total_counter("slow_commits")));

  // Act 2: crash the view-0 primary. The survivors elect view 1, and with
  // only 2f+1 replicas left the fast quorum can't form: commits fall back to
  // the linear slow path (sign-share pairs in the trace).
  std::printf("t=%.1fs: crashing the primary (replica 1)\n",
              cluster.simulator().now() / 1e6);
  cluster.crash_replica(1);
  cluster.run_for(4'000'000);
  std::printf("t=%.1fs: view %llu after %llu view change(s) — %llu slow "
              "commits while a replica short\n",
              cluster.simulator().now() / 1e6,
              static_cast<unsigned long long>(cluster.replica(2).view()),
              static_cast<unsigned long long>(cluster.total_counter("view_changes")),
              static_cast<unsigned long long>(cluster.total_counter("slow_commits")));

  // Act 3: bring replica 1 back with its disk wiped — it must rebuild from a
  // peer's checkpoint through the chunked state-transfer session
  // (probe -> manifest -> chunks -> adopt, one span in the trace).
  std::printf("t=%.1fs: restarting replica 1 with a wiped disk\n",
              cluster.simulator().now() / 1e6);
  cluster.restart_replica(1, /*wipe_storage=*/true);
  cluster.run_for(6'000'000);
  const ReplicaHandle& rejoined = cluster.replica(1);
  const uint64_t state_transfers = rejoined.counter("state_transfers");
  std::printf("t=%.1fs: replica 1 rejoined — %llu state transfer(s), %llu "
              "chunks / %llu bytes fetched, last_executed=%llu\n",
              cluster.simulator().now() / 1e6,
              static_cast<unsigned long long>(state_transfers),
              static_cast<unsigned long long>(
                  rejoined.counter("state_transfer_chunks_fetched")),
              static_cast<unsigned long long>(
                  rejoined.counter("state_transfer_bytes_transferred")),
              static_cast<unsigned long long>(cluster.replica(1).last_executed()));

  bool agree = cluster.check_agreement();
  std::printf("agreement audit: %s\n", agree ? "OK" : "VIOLATED");

  obs::CheckReport report = cluster.check_trace();
  std::printf("trace audit: %s\n", report.summary().c_str());

  if (!cluster.dump_trace(path)) {
    std::printf("FAIL: could not write %s\n", path);
    return 1;
  }
  std::printf("trace written to %s — open it at https://ui.perfetto.dev\n", path);

  bool acts_played = cluster.total_counter("fast_commits") > 0 &&
                     cluster.total_counter("slow_commits") > 0 &&
                     cluster.total_counter("view_changes") > 0 && state_transfers > 0;
  if (!acts_played) {
    std::printf("FAIL: scenario did not exercise all acts (fast=%llu slow=%llu "
                "vc=%llu st=%llu)\n",
                static_cast<unsigned long long>(cluster.total_counter("fast_commits")),
                static_cast<unsigned long long>(cluster.total_counter("slow_commits")),
                static_cast<unsigned long long>(cluster.total_counter("view_changes")),
                static_cast<unsigned long long>(state_transfers));
    return 1;
  }
  return agree && report.ok() ? 0 : 1;
}
