#include "harness/metrics.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>

namespace sbft::harness {

LatencySummary summarize_latencies(const std::vector<int64_t>& latencies_us) {
  LatencySummary out;
  if (latencies_us.empty()) return out;
  std::vector<int64_t> sorted = latencies_us;
  std::sort(sorted.begin(), sorted.end());
  out.count = sorted.size();
  out.mean_ms = std::accumulate(sorted.begin(), sorted.end(), 0.0) /
                static_cast<double>(sorted.size()) / 1000.0;
  out.median_ms = static_cast<double>(sorted[sorted.size() / 2]) / 1000.0;
  out.p95_ms = static_cast<double>(sorted[sorted.size() * 95 / 100]) / 1000.0;
  out.p99_ms = static_cast<double>(sorted[sorted.size() * 99 / 100]) / 1000.0;
  out.p999_ms = static_cast<double>(sorted[sorted.size() * 999 / 1000]) / 1000.0;
  out.min_ms = static_cast<double>(sorted.front()) / 1000.0;
  out.max_ms = static_cast<double>(sorted.back()) / 1000.0;
  return out;
}

RunMetrics collect_metrics(Cluster& cluster, sim::SimTime from_us, sim::SimTime to_us,
                           uint32_t ops_per_request) {
  RunMetrics m;
  std::vector<int64_t> latencies;
  uint64_t fast_acks = 0;
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    for (const core::ClientRecord& rec : cluster.client(i).records()) {
      if (rec.completed_at < from_us || rec.completed_at >= to_us) continue;
      ++m.requests_completed;
      latencies.push_back(rec.latency_us);
      if (rec.via_fast_ack) ++fast_acks;
    }
  }
  double window_s = static_cast<double>(to_us - from_us) / 1e6;
  if (window_s > 0) {
    m.requests_per_second = static_cast<double>(m.requests_completed) / window_s;
    m.ops_per_second = m.requests_per_second * ops_per_request;
  }
  m.latency = summarize_latencies(latencies);
  if (m.requests_completed > 0) {
    m.fast_ack_fraction =
        static_cast<double>(fast_acks) / static_cast<double>(m.requests_completed);
  }
  // Every replica's counters (current incarnation) and histograms (per
  // handle) fold into the registry by name.
  for (ReplicaId r = 1; r <= cluster.num_replicas(); ++r) {
    const ReplicaHandle& h = cluster.replica(r);
    m.registry.merge(h.counters());
    if (h.metrics()) m.registry.merge(*h.metrics());
  }
  // Per-lane CPU utilization (docs/performance.md). Lane 0 is the serial
  // handler lane; lanes >= 1 absorb offloaded signature verification. The
  // network tracks these per node across incarnations, so they come from
  // the network rather than the replica counters.
  sim::Network& net = cluster.network();
  for (ReplicaId r = 1; r <= cluster.num_replicas(); ++r) {
    NodeId node = cluster.replica(r).node();
    const std::vector<int64_t>& lanes = net.lane_used_us(node);
    for (size_t lane = 0; lane < lanes.size(); ++lane) {
      uint64_t used = static_cast<uint64_t>(lanes[lane]);
      m.registry.counter("cpu_used_us") += used;
      m.registry.counter(lane == 0 ? "cpu_lane0_used_us"
                                   : "cpu_worker_used_us") += used;
      m.registry.histogram("cpu.lane_used_us").record(lanes[lane]);
    }
    m.registry.counter("cpu_offloads_run") += net.offloads_run(node);
  }
  // WAL bytes come from the durable handles, not the replica counters: the
  // handle's counter spans every incarnation of a restarted replica.
  m.registry.counter("wal_bytes_written") = cluster.total_wal_bytes_written();
  auto totals = cluster.network().total_stats();
  m.registry.counter("messages_sent") = totals.count;
  m.registry.counter("bytes_sent") = totals.bytes;
  return m;
}

std::string format_row(const std::vector<std::string>& cells,
                       const std::vector<int>& widths) {
  std::ostringstream out;
  for (size_t i = 0; i < cells.size(); ++i) {
    int width = i < widths.size() ? widths[i] : 12;
    std::string cell = cells[i];
    if (static_cast<int>(cell.size()) < width) {
      cell.append(static_cast<size_t>(width - static_cast<int>(cell.size())), ' ');
    }
    out << cell << ' ';
  }
  return out.str();
}

void JsonWriter::key(std::string_view name) {
  if (body_.size() > 1) body_ += ',';
  body_ += '"';
  body_ += name;
  body_ += "\":";
}

JsonWriter& JsonWriter::field(std::string_view name, uint64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, int64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  key(name);
  body_ += buf;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, std::string_view value) {
  key(name);
  body_ += '"';
  body_ += value;  // callers pass identifier-like strings; no escaping needed
  body_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field_raw(std::string_view name, std::string_view raw_json) {
  key(name);
  body_ += raw_json;
  return *this;
}

std::string metrics_json(const RunMetrics& m) {
  JsonWriter lat;
  lat.field("count", m.latency.count)
      .field("mean_ms", m.latency.mean_ms)
      .field("median_ms", m.latency.median_ms)
      .field("p95_ms", m.latency.p95_ms)
      .field("p99_ms", m.latency.p99_ms)
      .field("p999_ms", m.latency.p999_ms)
      .field("min_ms", m.latency.min_ms)
      .field("max_ms", m.latency.max_ms);
  JsonWriter w;
  w.field("requests_completed", m.requests_completed)
      .field("requests_per_second", m.requests_per_second)
      .field("ops_per_second", m.ops_per_second)
      .field("fast_ack_fraction", m.fast_ack_fraction)
      .field_raw("latency", lat.str())
      .field_raw("registry", m.registry.to_json());
  return w.str();
}

}  // namespace sbft::harness
