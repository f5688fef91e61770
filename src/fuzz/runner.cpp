#include "fuzz/runner.h"

#include <memory>
#include <set>
#include <sstream>

#include "harness/cluster.h"
#include "kv/kv_service.h"

namespace sbft::fuzz {

namespace {

/// Mutable per-run state shared by the scheduled fault lambdas.
struct RunState {
  harness::Cluster* cluster = nullptr;
  uint32_t genesis_f = 0;
  uint32_t genesis_n = 0;
  std::set<NodeId> delayed_nodes;  // nodes with an active kDelay window
  bool partition_active = false;
  bool reconfigured = false;

  uint32_t replicas_down() const {
    uint32_t down = 0;
    for (ReplicaId r = 1; r <= cluster->num_replicas(); ++r) {
      if (cluster->network().crashed(cluster->replica(r).node())) ++down;
    }
    return down;
  }

  /// Clears every link fault and node-delay window (kHeal and the horizon).
  void heal_links() {
    cluster->heal_partitions();
    for (NodeId node : delayed_nodes) {
      cluster->network().set_extra_latency(node, 0);
    }
    delayed_nodes.clear();
    partition_active = false;
  }
};

void apply_event(RunState& st, const FaultEvent& e) {
  harness::Cluster& c = *st.cluster;
  sim::Network& net = c.network();
  switch (e.kind) {
    case FaultKind::kCrash: {
      ReplicaId r = static_cast<ReplicaId>(e.a);
      if (r < 1 || r > c.num_replicas()) return;
      if (net.crashed(c.replica(r).node())) return;
      // Never exceed the f+1 crash budget the generator promises; a minimized
      // schedule may have lost the restart that kept the budget balanced.
      if (st.replicas_down() >= st.genesis_f + 1) return;
      c.crash_replica(r);
      break;
    }
    case FaultKind::kRestart: {
      ReplicaId r = static_cast<ReplicaId>(e.a);
      if (r < 1 || r > c.num_replicas()) return;
      if (!net.crashed(c.replica(r).node())) return;
      c.restart_replica(r, e.b != 0);
      break;
    }
    case FaultKind::kPartition: {
      std::vector<ReplicaId> side;
      for (ReplicaId r = 1; r <= c.num_replicas() && r <= 64; ++r) {
        if (e.a & (1ull << (r - 1))) side.push_back(r);
      }
      if (side.empty() || side.size() >= c.num_replicas()) return;
      c.partition(side);
      st.partition_active = true;
      break;
    }
    case FaultKind::kHeal:
      st.heal_links();
      break;
    case FaultKind::kDropWindow:
      net.set_drop_probability(static_cast<double>(e.a) / 1000.0);
      c.simulator().after(static_cast<int64_t>(e.b),
                         [&net] { net.set_drop_probability(0.0); });
      break;
    case FaultKind::kDelay: {
      ReplicaId r = static_cast<ReplicaId>(e.a);
      if (r < 1 || r > c.num_replicas()) return;
      NodeId node = c.replica(r).node();
      net.set_extra_latency(node, static_cast<int64_t>(e.b));
      st.delayed_nodes.insert(node);
      c.simulator().after(static_cast<int64_t>(e.c), [&st, node] {
        if (st.delayed_nodes.erase(node) > 0) {
          st.cluster->network().set_extra_latency(node, 0);
        }
      });
      break;
    }
    case FaultKind::kReorder:
      net.set_reorder(static_cast<double>(e.a) / 1000.0,
                      static_cast<int64_t>(e.b));
      c.simulator().after(static_cast<int64_t>(e.c),
                         [&net] { net.set_reorder(0.0, 0); });
      break;
    case FaultKind::kCensorLink: {
      ReplicaId r = static_cast<ReplicaId>(e.a);
      if (r < 1 || r > c.num_replicas()) return;
      if (e.b >= c.num_clients()) return;
      NodeId client = c.n() + static_cast<NodeId>(e.b);
      NodeId replica = c.replica(r).node();
      net.block_link(client, replica);
      c.simulator().after(static_cast<int64_t>(e.c), [&net, client, replica] {
        net.unblock_link(client, replica);
      });
      break;
    }
    case FaultKind::kReconfig: {
      // The ReconfigBlockMsg goes to the current members' live primary; a
      // degraded cluster could silently lose it and the joiners would wait
      // forever, so only reconfigure a healthy one (the generator places the
      // event before any chaos — this guard matters for minimized/hand-built
      // schedules).
      if (st.reconfigured || st.replicas_down() > 0 || st.partition_active) {
        return;
      }
      if (e.a == 0) {
        // Grow 4 -> 7 (f 1 -> 2).
        if (c.options().f != 1 || c.options().c != 0 || c.num_replicas() != 4) {
          return;
        }
        std::vector<ReplicaId> adds;
        for (int i = 0; i < 3; ++i) adds.push_back(c.add_replica());
        c.submit_reconfig(adds, {}, /*new_f=*/2);
      } else {
        // Shrink 7 -> 4 (f 2 -> 1).
        if (c.options().f != 2 || c.options().c != 0 || c.num_replicas() != 7) {
          return;
        }
        c.submit_reconfig({}, {5, 6, 7}, /*new_f=*/1);
      }
      st.reconfigured = true;
      break;
    }
  }
}

}  // namespace

std::string FuzzResult::summary() const {
  std::ostringstream out;
  out << (ok() ? "OK" : "FAIL") << " executed=" << max_executed
      << " view_changes=" << view_changes << " recoveries=" << recoveries
      << " completed=" << (completed ? "yes" : "no") << " sim_end="
      << sim_end_us / 1000 << "ms";
  for (const std::string& v : violations) out << "\n  " << v;
  return out.str();
}

FuzzResult run_schedule(const Schedule& schedule) {
  const ScheduleTopology& t = schedule.topology;
  harness::ClusterOptions opts;
  opts.kind = t.kind;
  opts.f = t.f;
  opts.c = t.c;
  opts.num_clients = t.clients;
  opts.requests_per_client = t.requests_per_client;
  opts.cores_per_replica = t.cores;
  opts.seed = t.cluster_seed;
  opts.byzantine_replicas = t.byzantine;
  opts.byzantine_behavior = t.byz_behavior;
  opts.tracing = true;
  opts.trace_capacity = 1 << 18;
  if (t.service == 1) {
    opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
  }
  // Short runs must still cross checkpoint boundaries (wiped replicas can
  // only rejoin via a stable checkpoint), so shrink the ordering window.
  opts.tweak_config = [](ProtocolConfig& config) { config.win = 32; };

  harness::Cluster cluster(opts);
  auto st = std::make_shared<RunState>();
  st->cluster = &cluster;
  st->genesis_f = t.f;
  st->genesis_n = cluster.n();

  for (const FaultEvent& e : schedule.events) {
    cluster.simulator().schedule(std::max<int64_t>(e.at_us, 0),
                                 [st, e] { apply_event(*st, e); });
  }
  // Heal-everything horizon: after this point no fault remains, so the
  // liveness bound and the convergence audit are legitimate.
  cluster.simulator().schedule(schedule.fault_horizon_us, [st] {
    st->heal_links();
    st->cluster->network().set_drop_probability(0.0);
    st->cluster->network().set_reorder(0.0, 0);
    for (ReplicaId r = 1; r <= st->cluster->num_replicas(); ++r) {
      if (st->cluster->network().crashed(st->cluster->replica(r).node())) {
        st->cluster->restart_replica(r, /*wipe_storage=*/false);
      }
    }
  });

  FuzzResult result;
  result.completed = cluster.run_until_done(schedule.liveness_deadline_us);
  cluster.run_for(schedule.settle_us);

  result.max_executed = cluster.max_executed();
  result.view_changes = cluster.total_counter("view_changes");
  result.recoveries = cluster.total_counter("recoveries");
  result.sim_end_us = cluster.simulator().now();

  if (!result.completed) {
    uint64_t unfinished = 0;
    for (size_t i = 0; i < cluster.num_clients(); ++i) {
      if (!cluster.client(i).done()) ++unfinished;
    }
    result.violations.push_back(
        "liveness: " + std::to_string(unfinished) + "/" +
        std::to_string(cluster.num_clients()) +
        " clients unfinished at deadline " +
        std::to_string(schedule.liveness_deadline_us) + "us");
  }
  SeqNum bad_seq = 0;
  if (!cluster.check_agreement(&bad_seq)) {
    result.violations.push_back(
        "agreement: replicas committed different blocks at seq " +
        std::to_string(bad_seq));
  }
  obs::CheckReport trace = cluster.check_trace();
  for (const std::string& v : trace.violations) {
    result.violations.push_back("trace: " + v);
  }
  // The cluster audits already prefix their messages ("convergence:",
  // "reply-cache:").
  for (std::string& v : cluster.audit_state_convergence()) {
    result.violations.push_back(std::move(v));
  }
  for (std::string& v : cluster.audit_reply_caches()) {
    result.violations.push_back(std::move(v));
  }
  return result;
}

}  // namespace sbft::fuzz
