// Self-tests of the benchmark itself (not of the library):
//   * one seed gives identical simulated-plane metrics, traced or not;
//   * another seed gives another arrival schedule;
//   * the open-loop client completes a fixed request count on a 4-replica
//     LAN cluster with zero failures, on both ordering engines.
// Build and run with `python3 perfbench/run.py --self-test`.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

perfbench::Workload lan_workload(sbft::harness::ProtocolKind kind) {
  perfbench::Workload w;
  w.name = kind == sbft::harness::ProtocolKind::kPbft ? "lan-pbft" : "lan-sbft";
  w.kind = kind;
  w.f = 1;
  w.lan = true;
  w.rate_per_s = 400;
  w.warmup_us = 100'000;
  w.window_requests = 1000;
  return w;
}

perfbench::RunResult run(const perfbench::Workload& w, uint64_t seed, bool traced) {
  return perfbench::run_workload(w, seed, traced, /*setup_only=*/false,
                                 std::chrono::steady_clock::now());
}

}  // namespace

int main() {
  for (auto kind : {sbft::harness::ProtocolKind::kSbft, sbft::harness::ProtocolKind::kPbft}) {
    const perfbench::Workload w = lan_workload(kind);
    const perfbench::RunResult a = run(w, 11, /*traced=*/false);
    for (const std::string& e : a.errors) std::printf("     %s: %s\n", w.name.c_str(), e.c_str());
    expect(a.correct, w.name + ": correctness gate passes");
    const uint64_t total = perfbench::make_arrivals(w, 11).size();
    expect(a.attempted == w.window_requests && a.failed == 0,
           w.name + ": every request due in the window completes (" +
               std::to_string(a.attempted - a.failed) + "/" + std::to_string(a.attempted) +
               ", " + std::to_string(total) + " offered in all)");
    expect(a.sim.at("on_time_ratio") == 1.0, w.name + ": no request misses the limit");

    const perfbench::RunResult b = run(w, 11, /*traced=*/false);
    expect(a.sim == b.sim && a.sim_digest == b.sim_digest,
           w.name + ": same seed, identical simulated plane");
    const perfbench::RunResult t = run(w, 11, /*traced=*/true);
    for (const std::string& e : t.errors) std::printf("     %s traced: %s\n", w.name.c_str(), e.c_str());
    expect(t.correct && a.sim == t.sim && a.sim_digest == t.sim_digest,
           w.name + ": tracing leaves the simulated plane bit-identical");
    expect(!t.layer.empty() && b.layer.empty(), w.name + ": only the traced run attributes layers");
  }

  for (const perfbench::Workload& w : perfbench::workloads()) {
    const auto a = perfbench::make_arrivals(w, 1);
    const auto a2 = perfbench::make_arrivals(w, 1);
    const auto b = perfbench::make_arrivals(w, 2);
    bool same_seed_equal = a.size() == a2.size();
    for (size_t i = 0; same_seed_equal && i < a.size(); ++i) {
      same_seed_equal = a[i].due_us == a2[i].due_us && a[i].op == a2[i].op;
    }
    bool differs = a.size() != b.size();
    for (size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].due_us != b[i].due_us;
    expect(same_seed_equal, w.name + ": same seed, same arrival schedule");
    expect(differs, w.name + ": another seed, another arrival schedule");
    uint64_t in_window = 0;
    for (const perfbench::Arrival& x : a) {
      in_window += x.due_us >= w.warmup_us && x.due_us < w.warmup_us + w.window_us();
    }
    expect(in_window == w.window_requests, w.name + ": the window offers its fixed count");
  }

  std::printf("%s\n", failures ? "self-test FAILED" : "self-test passed");
  return failures ? 1 : 0;
}
