// View-change cost at scale (§V-G, §VII): crash the primary under load and
// measure how long the cluster takes to elect the next view and resume
// executing, across cluster sizes.
#include <cstdio>
#include <vector>

#include "harness/cluster.h"
#include "harness/experiment.h"

using namespace sbft;
using namespace sbft::harness;

namespace {

struct VcResult {
  double recovery_ms;  // crash -> first post-crash execution progress
  uint64_t view_changes;
  bool recovered;
  bool agreement;
};

VcResult measure(uint32_t f, uint32_t c) {
  ClusterOptions opts;
  opts.kind = ProtocolKind::kSbft;
  opts.f = f;
  opts.c = c;
  opts.num_clients = 8;
  opts.requests_per_client = 0;
  opts.topology = sim::continent_topology();
  opts.seed = 23;
  opts.tweak_config = [](ProtocolConfig& config) {
    config.view_change_timeout_us = 500'000;  // brisk demo timer
  };
  Cluster cluster(std::move(opts));
  cluster.run_for(2'000'000);
  SeqNum before = cluster.max_executed();
  sim::SimTime crash_at = cluster.simulator().now();
  cluster.network().crash(0);  // primary of view 0

  VcResult out{0, 0, false, true};
  while (cluster.simulator().now() < crash_at + 60'000'000) {
    cluster.run_for(100'000);
    // Recovered when a non-crashed replica executed past the pre-crash mark.
    SeqNum now_hi = 0;
    for (ReplicaId r = 2; r <= cluster.n(); ++r) {
      now_hi = std::max(now_hi, cluster.sbft_replica(r)->last_executed());
    }
    if (now_hi > before + 2) {
      out.recovered = true;
      break;
    }
  }
  out.recovery_ms =
      static_cast<double>(cluster.simulator().now() - crash_at) / 1000.0;
  out.view_changes = cluster.total_counter("view_changes");
  out.agreement = cluster.check_agreement();
  return out;
}

}  // namespace

int main() {
  std::printf("=== View change under primary crash (§V-G): recovery time vs "
              "cluster size ===\n\n");
  std::printf("%6s %6s %6s %16s %14s %10s\n", "f", "c", "n", "recovery ms",
              "view changes", "safe");
  std::vector<std::pair<uint32_t, uint32_t>> sizes = {{1, 0}, {2, 0}, {4, 1},
                                                      {8, 1}};
  if (bench_full_mode()) sizes.push_back({16, 2});
  for (auto [f, c] : sizes) {
    VcResult r = measure(f, c);
    std::printf("%6u %6u %6u %16.0f %14llu %10s%s\n", f, c, 3 * f + 2 * c + 1,
                r.recovery_ms, static_cast<unsigned long long>(r.view_changes),
                r.agreement ? "yes" : "NO",
                r.recovered ? "" : "  !!DID NOT RECOVER!!");
    std::fflush(stdout);
  }
  std::printf("\nExpected: recovery dominated by the failure-detection timer "
              "plus one view-change round; grows mildly with n (linear "
              "message complexity), never quadratically.\n");
  return 0;
}
