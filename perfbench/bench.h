// Open-loop benchmark of the SBFT reproduction.
//
// A workload is a cluster configuration plus an offered load. The load is a
// Poisson arrival schedule made from the benchmark seed before the cluster
// exists; the cluster only ever sees the generated requests. A pool of
// benchmark-owned client identities sends them, each identity with at most
// one request outstanding, and every request is timed from its due time, so
// a stall shows as latency on the requests queued behind it.
//
// One run reports two planes. The simulated plane (throughput and latency in
// simulated time) is a pure function of the workload and the seed. The host
// plane (setup wall time, CPU seconds for the measured span, peak RSS) is
// what this code costs to produce it. A traced run additionally attributes
// both planes to the library's modules, from outside: it times calls into
// their public functions and reads the counters they already expose.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "harness/cluster.h"

namespace perfbench {

/// Client identities in every workload's pool: enough that an identity is
/// free for each arrival outside an outage.
constexpr uint32_t kClientIdentities = 256;
/// The latency limit behind on_time_ratio, in simulated time.
constexpr sbft::sim::SimTime kLatencyLimitUs = 1'000'000;

struct Workload {
  std::string name;
  sbft::harness::ProtocolKind kind = sbft::harness::ProtocolKind::kSbft;
  uint32_t f = 1;
  uint32_t c = 0;
  bool lan = false;  // false: the continent-scale WAN of §IX
  // Requests: `ops_per_request` puts of `value_size`-byte values to keys drawn
  // uniformly from [0, key_space).
  uint32_t ops_per_request = 1;
  uint32_t value_size = 32;
  uint32_t key_space = 100'000;
  // true: the SMT-backed kv::KvService, whose genesis state already holds
  // every key of the key space; false: the O(1)-digest FastKvService.
  bool smt_service = false;
  double rate_per_s = 100;           // offered load (Poisson)
  sbft::sim::SimTime warmup_us = 0;  // arrivals before the window
  uint32_t window_requests = 1000;   // requests due inside the window
  // Faults, as offsets from the window start (0 = not injected): a backup is
  // disk-wiped and restarted, later the replica that is primary then crashes.
  sbft::sim::SimTime wipe_at_us = 0;
  sbft::sim::SimTime primary_crash_at_us = 0;
  // No arrivals for this long before the primary crash. The crash then meets
  // an idle cluster, so the view change is always triggered the same way (by
  // client retries reaching the backups). Under load a crash may or may not
  // leave a slot uncommitted, which fires the backups' progress timers at a
  // history-dependent phase: the outage would be bimodal across seeds.
  sbft::sim::SimTime quiet_before_crash_us = 0;

  /// Window length: the time the window's requests need at `rate_per_s`,
  /// plus the quiet span.
  sbft::sim::SimTime window_us() const {
    return static_cast<sbft::sim::SimTime>(window_requests / rate_per_s * 1e6) +
           quiet_before_crash_us;
  }
};

/// The benchmark's workloads. BENCHMARK.json gates the first two;
/// sbft-f16-faults is runnable but not steady across seeds (README.md).
const std::vector<Workload>& workloads();
/// Workload by name; nullptr if unknown.
const Workload* find_workload(std::string_view name);

struct Arrival {
  sbft::sim::SimTime due_us = 0;
  sbft::Bytes op;
};

/// Poisson arrivals at `rate_per_s`: the warm-up span and the window each get
/// their expected count, placed as sorted uniform draws (a Poisson process
/// conditioned on its count), so every seed offers the window the same number
/// of requests. Deterministic in (workload, seed).
std::vector<Arrival> make_arrivals(const Workload& w, uint64_t seed);

struct RunResult {
  bool correct = false;
  std::vector<std::string> errors;  // why the correctness gate failed
  uint64_t attempted = 0;  // requests due in the window
  uint64_t failed = 0;     // of those, never acknowledged by the end of the run
  // Simulated plane: identical for equal (workload, seed), traced or not.
  std::map<std::string, double> sim;
  // Digest over every request's due/send/completion time and the run's
  // simulator and network totals: the bit-identity witness for `sim`.
  std::string sim_digest;
  std::map<std::string, double> host;   // setup_s, host_cpu_s, peak_rss_mb
  std::map<std::string, double> layer;  // traced runs only
};

/// Builds the cluster, offers the workload's load, measures the window,
/// drains, settles and audits. `process_start` anchors setup_s. With
/// `setup_only` the run stops where the window would start and reports
/// setup_s alone.
RunResult run_workload(const Workload& w, uint64_t seed, bool traced, bool setup_only,
                       std::chrono::steady_clock::time_point process_start);

}  // namespace perfbench
