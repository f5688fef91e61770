// One measured run of one workload, printed as a single JSON line:
//   perfbench_workload --workload <name> --seed <n> [--trace 0|1]
//                      [--setup-only 1]
// and the closed-loop saturation measurement the offered rates derive from:
//   perfbench_workload --saturate <name> --seed <n> --clients <k>
// run.py drives this binary; see README.md.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "harness/experiment.h"
#include "kv/kv_service.h"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, v] : values) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (out.size() > 1) out += ",";
    out += json_string(name) + ":" + buf;
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload <name> --seed <n> [--trace 0|1]\n"
               "                          [--setup-only 1]\n"
               "       perfbench_workload --saturate <name> --seed <n> --clients <k>\n");
  return 2;
}

/// Closed-loop peak of a workload's configuration (fault-free), measured with
/// the library's own experiment runner and `clients` closed-loop clients.
int saturate(const perfbench::Workload& w, uint64_t seed, uint32_t clients) {
  sbft::harness::ExperimentPoint p;
  p.kind = w.kind;
  p.f = w.f;
  p.c = w.c;
  p.num_clients = clients;
  p.ops_per_request = w.ops_per_request;
  p.seed = seed;
  p.warmup_us = 500'000;
  p.measure_us = 2'000'000;
  p.topology = w.lan ? sbft::sim::lan_topology() : sbft::sim::continent_topology();
  if (w.smt_service || w.value_size != 32) {
    p.tweak = [w](sbft::harness::ClusterOptions& o) {
      sbft::harness::KvWorkloadOptions ops;
      ops.ops_per_request = w.ops_per_request;
      ops.key_space = w.key_space;
      ops.value_size = w.value_size;
      o.op_factory = sbft::harness::kv_op_factory(ops);
      if (w.smt_service) {
        o.service_factory = [] { return std::make_unique<sbft::kv::KvService>(); };
      }
    };
  }
  sbft::harness::ExperimentResult r = sbft::harness::run_point(p);
  std::printf("{\"workload\":%s,\"seed\":%llu,\"clients\":%u,\"req_per_s\":%.17g,"
              "\"p50_ms\":%.17g,\"p99_ms\":%.17g,\"agreement\":%s}\n",
              json_string(w.name).c_str(), static_cast<unsigned long long>(seed),
              clients, r.metrics.requests_per_second, r.metrics.latency.median_ms,
              r.metrics.latency.p99_ms, r.agreement_ok ? "true" : "false");
  return r.agreement_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  std::string workload;
  std::string saturate_name;
  uint64_t seed = 1;
  bool traced = false;
  bool setup_only = false;
  uint32_t clients = 256;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--saturate") {
      saturate_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      traced = std::strcmp(value, "1") == 0;
    } else if (flag == "--setup-only") {
      setup_only = std::strcmp(value, "1") == 0;
    } else if (flag == "--clients") {
      clients = static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
    } else {
      return usage();
    }
  }
  if (!saturate_name.empty()) {
    const perfbench::Workload* w = perfbench::find_workload(saturate_name);
    return w ? saturate(*w, seed, clients) : usage();
  }
  const perfbench::Workload* w = perfbench::find_workload(workload);
  if (!w) return usage();

  perfbench::RunResult r = perfbench::run_workload(*w, seed, traced, setup_only, process_start);
  std::string errors = "[";
  for (const std::string& e : r.errors) {
    if (errors.size() > 1) errors += ",";
    errors += json_string(e);
  }
  errors += "]";
  std::printf("{\"workload\":%s,\"seed\":%llu,\"traced\":%s,\"correct\":%s,"
              "\"errors\":%s,\"attempted\":%llu,\"failed\":%llu,\"sim_digest\":%s,"
              "\"sim\":%s,\"host\":%s,\"layer\":%s}\n",
              json_string(w->name).c_str(), static_cast<unsigned long long>(seed),
              traced ? "true" : "false", r.correct ? "true" : "false", errors.c_str(),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), json_string(r.sim_digest).c_str(),
              json_object(r.sim).c_str(), json_object(r.host).c_str(),
              json_object(r.layer).c_str());
  return r.correct ? 0 : 1;
}
