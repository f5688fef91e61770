// Latency/throughput aggregation over client completion records, plus the
// shared table/JSON emission helpers the benches use (docs/observability.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/cluster.h"
#include "obs/metrics.h"

namespace sbft::harness {

struct LatencySummary {
  uint64_t count = 0;
  double mean_ms = 0;
  double median_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
};

LatencySummary summarize_latencies(const std::vector<int64_t>& latencies_us);

/// One measurement window's worth of results. Every protocol/runtime counter
/// lives in the registry under its counter name ("fast_commits",
/// "state_transfer_resumes", ...) plus the network totals ("messages_sent",
/// "bytes_sent") — adding a counter at an increment site needs no change
/// here. Per-stage latency histograms from every replica are merged in too.
struct RunMetrics {
  uint64_t requests_completed = 0;
  double requests_per_second = 0;
  double ops_per_second = 0;  // requests * ops_per_request
  LatencySummary latency;
  double fast_ack_fraction = 0;  // accepted via a single execute-ack
  obs::MetricsRegistry registry;

  /// Counter by name; 0 if never registered.
  uint64_t counter(std::string_view name) const { return registry.value(name); }
};

/// Gathers metrics for completions inside [from_us, to_us) of simulated time.
RunMetrics collect_metrics(Cluster& cluster, sim::SimTime from_us, sim::SimTime to_us,
                           uint32_t ops_per_request);

/// Formats a fixed-width table row; the benches share this printer.
std::string format_row(const std::vector<std::string>& cells,
                       const std::vector<int>& widths);

/// Minimal one-object JSON line builder — the shared emission path for bench
/// JSON output (no external JSON dependency).
class JsonWriter {
 public:
  JsonWriter& field(std::string_view name, uint64_t value);
  JsonWriter& field(std::string_view name, int64_t value);
  JsonWriter& field(std::string_view name, double value);
  JsonWriter& field(std::string_view name, std::string_view value);  // quoted
  /// Embeds pre-rendered JSON (an object or array) verbatim.
  JsonWriter& field_raw(std::string_view name, std::string_view raw_json);

  /// The finished object, e.g. {"a":1,"b":"x"}.
  std::string str() const { return body_ + "}"; }

 private:
  void key(std::string_view name);
  std::string body_ = "{";
};

/// Canonical JSON rendering of a RunMetrics: throughput/latency fields plus
/// the full registry (counters + histogram summaries) under "registry".
std::string metrics_json(const RunMetrics& m);

}  // namespace sbft::harness
