#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "common/rng.h"
#include "common/serde.h"
#include "core/client.h"
#include "crypto/sha256.h"
#include "harness/workload.h"
#include "kv/kv_service.h"
#include "merkle/merkle_tree.h"
#include "proto/message.h"
#include "runtime/reply_cache.h"

namespace perfbench {
namespace {

using namespace sbft;
using harness::Cluster;
using harness::ProtocolKind;
using harness::ReplicaHandle;
using sim::SimTime;

// Simulated step between the benchmark's polls of replica progress; the
// resolution of sim_catchup_ms.
constexpr SimTime kPollUs = 1'000;
// Simulated time after the window for late requests to complete, and then
// for replicas to converge before the end-of-run audits.
constexpr SimTime kDrainLimitUs = 30'000'000;
constexpr SimTime kSettleUs = 1'000'000;
// A wiped backup stays down this long before it restarts empty.
constexpr SimTime kWipedDowntimeUs = 100'000;

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

/// Host speed reference. A shared host's speed drifts by tens of percent
/// within a minute (allocation- and cache-heavy code more than arithmetic),
/// far beyond a useful regression bound for raw times. The run therefore
/// interleaves a fixed kernel of the same kind of work (ordered-map updates,
/// small allocations, indirect calls), once per kSampleEveryS of CPU, and
/// scales its set-up and window times to the speed at which one kernel call
/// takes kNominalS. The kernel is the benchmark's own code, so a change to the
/// library moves the scaled figures as much as the raw ones.
class SpeedReference {
 public:
  static constexpr double kSampleEveryS = 0.1;
  static constexpr double kNominalS = 1e-3;

  void maybe_sample() {
    const double now = thread_cpu_s();
    if (now < next_) return;
    sink_ = sink_ + kernel();
    const double end = thread_cpu_s();
    total_s_ += end - now;
    ++calls_;
    next_ = end + kSampleEveryS;
  }
  double total_s() const { return total_s_; }
  uint64_t calls() const { return calls_; }
  /// `seconds` at the nominal speed, given the kernel's CPU over `calls`
  /// calls made during the same span.
  static double scale(double seconds, double kernel_s, uint64_t calls) {
    if (calls == 0 || kernel_s <= 0) return seconds;
    return seconds * kNominalS / (kernel_s / static_cast<double>(calls));
  }

 private:
  static uint64_t kernel() {
    std::map<uint64_t, Bytes> m;
    std::function<uint64_t(uint64_t)> mix = [](uint64_t v) {
      return v * 0x9e3779b97f4a7c15ull;
    };
    uint64_t x = 0x243f6a8885a308d3ull;
    uint64_t acc = 0;
    for (int i = 0; i < 3000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      m[x % 4096].assign(48 + (x & 63), static_cast<uint8_t>(x));
      auto it = m.lower_bound(mix(x) % 4096);
      if (it != m.end()) {
        acc += it->second.size();
        if (i % 3 == 0) m.erase(it);
      }
    }
    return acc + m.size();
  }

  double next_ = 0;
  double total_s_ = 0;
  uint64_t calls_ = 0;
  volatile uint64_t sink_ = 0;  // keeps the kernel from being optimized away
};

/// Adds the thread CPU time of its scope to `*total`; a no-op when null
/// (untraced runs pay nothing).
class CpuSpan {
 public:
  explicit CpuSpan(double* total)
      : total_(total), start_(total ? thread_cpu_s() : 0) {}
  ~CpuSpan() {
    if (total_) *total_ += thread_cpu_s() - start_;
  }
  CpuSpan(const CpuSpan&) = delete;
  CpuSpan& operator=(const CpuSpan&) = delete;

 private:
  double* total_;
  double start_;
};

// ---------------------------------------------------------------------------
// kv layer: timing decorator installed through ClusterOptions::service_factory

struct ServiceTimes {
  double execute_s = 0;
  double snapshot_s = 0;  // snapshot + restore + state_digest
};

class TimedService final : public IService {
 public:
  TimedService(std::unique_ptr<IService> inner, std::shared_ptr<ServiceTimes> t)
      : inner_(std::move(inner)), t_(std::move(t)) {}

  Bytes execute(ByteSpan op) override {
    CpuSpan span(&t_->execute_s);
    return inner_->execute(op);
  }
  Bytes query(ByteSpan q) const override { return inner_->query(q); }
  Digest state_digest() const override {
    CpuSpan span(&t_->snapshot_s);
    return inner_->state_digest();
  }
  Bytes snapshot() const override {
    CpuSpan span(&t_->snapshot_s);
    return inner_->snapshot();
  }
  bool restore(ByteSpan snapshot) override {
    CpuSpan span(&t_->snapshot_s);
    return inner_->restore(snapshot);
  }
  void set_snapshot_chunk_hint(uint32_t page) override {
    inner_->set_snapshot_chunk_hint(page);
  }
  std::unique_ptr<IService> clone_empty() const override {
    return std::make_unique<TimedService>(inner_->clone_empty(), t_);
  }
  int64_t last_execute_cost_us(const sim::CostModel& costs) const override {
    return inner_->last_execute_cost_us(costs);
  }

 private:
  std::unique_ptr<IService> inner_;
  std::shared_ptr<ServiceTimes> t_;
};

Bytes key_bytes(uint32_t k) {
  // The key encoding of harness::kv_op_factory (16 bytes, index little-endian).
  Bytes key(16, 0);
  for (size_t i = 0; i < 4; ++i) key[i] = static_cast<uint8_t>(k >> (8 * i));
  return key;
}

/// Genesis state of the SMT-backed service: every key of the key space holds
/// a value, so the snapshot (and a wiped replica's state transfer) has its
/// full size from the first request on.
std::shared_ptr<const kv::KvService> make_genesis(const Workload& w, uint64_t seed) {
  auto svc = std::make_shared<kv::KvService>();
  Rng rng(seed ^ 0x6e6e5e5ull);
  for (uint32_t k = 0; k < w.key_space; ++k) {
    svc->put(as_span(key_bytes(k)), as_span(rng.bytes(w.value_size)));
  }
  return svc;
}

// ---------------------------------------------------------------------------
// Open-loop load generator

struct RequestRecord {
  SimTime due = 0;
  SimTime sent = -1;       // first send
  SimTime completed = -1;  // verified reply accepted
  bool fast_ack = false;
  uint32_t retries = 0;
};

class LoadGenerator;

/// One client identity (ClientId == NodeId). Mirrors core::SbftClient's
/// protocol and simulated costs — RSA sign per request, one combined-signature
/// check per execute-ack, one RSA verify per f+1 fallback reply, broadcast
/// retry after client_retry_timeout_us — but sends only what the generator
/// hands it instead of looping on its own.
class OpenLoopClient final : public sim::IActor {
 public:
  OpenLoopClient(LoadGenerator& gen, NodeId id) : gen_(gen), id_(id) {}

  void on_message(NodeId from, const Message& msg, sim::ActorContext& ctx) override;
  void on_timer(uint64_t id, sim::ActorContext& ctx) override;
  void send(size_t arrival, sim::ActorContext& ctx);
  NodeId id() const { return id_; }

 private:
  void complete(const Bytes& value, bool fast_ack, sim::ActorContext& ctx);
  void send_request(bool broadcast, sim::ActorContext& ctx);

  LoadGenerator& gen_;
  NodeId id_;
  size_t primary_hint_ = 0;
  uint64_t timestamp_ = 0;
  size_t current_ = 0;
  bool outstanding_ = false;
  uint64_t timer_gen_ = 0;
  std::map<ReplicaId, Digest> reply_tally_;
};

class LoadGenerator {
 public:
  LoadGenerator(Cluster& cluster, std::vector<Arrival> arrivals, uint32_t clients,
                bool timed)
      : cluster_(cluster),
        crypto_(cluster.verifier_crypto()),
        arrivals_(std::move(arrivals)),
        records_(arrivals_.size()),
        timed_(timed) {
    for (size_t i = 0; i < arrivals_.size(); ++i) records_[i].due = arrivals_[i].due_us;
    sim::Network& net = cluster.network();
    for (ReplicaId r = 1; r <= cluster.n(); ++r) {
      replica_nodes_.push_back(cluster.replica(r).node());
    }
    for (uint32_t i = 0; i < clients; ++i) {
      auto client = std::make_unique<OpenLoopClient>(*this, net.num_nodes());
      SBFT_CHECK(net.add_node(client.get()) == client->id());
      idle_.push_back(client.get());
      clients_.push_back(std::move(client));
    }
    schedule_next_arrival();
  }

  const std::vector<RequestRecord>& records() const { return records_; }
  uint64_t rejected_acks() const { return rejected_acks_; }
  uint64_t wrong_values() const { return wrong_values_; }
  double client_host_s() const { return client_host_s_; }
  bool all_done() const { return done_ == records_.size(); }

 private:
  friend class OpenLoopClient;

  void schedule_next_arrival() {
    if (next_ >= arrivals_.size()) return;
    cluster_.simulator().schedule(arrivals_[next_].due_us, [this] {
      waiting_.push_back(next_++);
      dispatch();
      schedule_next_arrival();
    });
  }

  /// Pairs waiting arrivals with idle identities. Runs outside any handler,
  /// so the send enters the client's CPU lane as a fresh handler.
  void dispatch() {
    while (!idle_.empty() && !waiting_.empty()) {
      OpenLoopClient* client = idle_.front();
      idle_.pop_front();
      size_t arrival = waiting_.front();
      waiting_.pop_front();
      cluster_.network().offload(client->id(), 0,
                                 [this, client, arrival](sim::ActorContext& ctx) {
                                   CpuSpan span(timed_ ? &client_host_s_ : nullptr);
                                   client->send(arrival, ctx);
                                 });
    }
  }

  /// Called by a client that finished its request: the next waiting arrival,
  /// or nullopt after which the client is idle.
  std::optional<size_t> take_waiting(OpenLoopClient* client) {
    ++done_;
    if (waiting_.empty()) {
      idle_.push_back(client);
      return std::nullopt;
    }
    size_t arrival = waiting_.front();
    waiting_.pop_front();
    return arrival;
  }

  Cluster& cluster_;
  core::ReplicaCrypto crypto_;
  std::vector<NodeId> replica_nodes_;
  std::vector<Arrival> arrivals_;
  std::vector<RequestRecord> records_;
  std::vector<std::unique_ptr<OpenLoopClient>> clients_;
  std::deque<OpenLoopClient*> idle_;
  std::deque<size_t> waiting_;
  size_t next_ = 0;
  size_t done_ = 0;
  uint64_t rejected_acks_ = 0;
  uint64_t wrong_values_ = 0;
  bool timed_;
  double client_host_s_ = 0;
};

void OpenLoopClient::send(size_t arrival, sim::ActorContext& ctx) {
  current_ = arrival;
  gen_.records_[arrival].sent = ctx.now();
  ++timestamp_;
  outstanding_ = true;
  reply_tally_.clear();
  ctx.charge(ctx.costs().rsa_sign_us);
  send_request(/*broadcast=*/false, ctx);
}

void OpenLoopClient::send_request(bool broadcast, sim::ActorContext& ctx) {
  Request req;
  req.client = id_;
  req.timestamp = timestamp_;
  req.op = gen_.arrivals_[current_].op;
  req.client_sig = Bytes(256, 0xab);  // size-modeled RSA-2048 signature
  auto msg = make_message(ClientRequestMsg{std::move(req)});
  if (broadcast) {
    for (NodeId node : gen_.replica_nodes_) ctx.send(node, msg);
  } else {
    ctx.send(gen_.replica_nodes_[primary_hint_], msg);
  }
  ctx.set_timer(gen_.cluster_.config().client_retry_timeout_us, ++timer_gen_);
}

void OpenLoopClient::on_message(NodeId /*from*/, const Message& msg,
                                sim::ActorContext& ctx) {
  CpuSpan span(gen_.timed_ ? &gen_.client_host_s_ : nullptr);
  if (!outstanding_) return;
  if (const auto* ack = std::get_if<ExecuteAckMsg>(&msg)) {
    if (ack->client != id_ || ack->timestamp != timestamp_) return;
    ctx.charge(ctx.costs().hash_us(512));
    ctx.charge(ctx.costs().bls_verify_combined_us);
    if (!core::verify_execute_ack(gen_.crypto_, id_, *ack)) {
      ++gen_.rejected_acks_;
      return;
    }
    complete(ack->value, /*fast_ack=*/true, ctx);
    return;
  }
  if (const auto* reply = std::get_if<ClientReplyMsg>(&msg)) {
    if (reply->client != id_ || reply->timestamp != timestamp_) return;
    if (reply->replica == 0 || reply->replica > gen_.cluster_.n()) return;
    ctx.charge(ctx.costs().rsa_verify_us);
    const Digest value_digest = crypto::sha256(as_span(reply->value));
    reply_tally_[reply->replica] = value_digest;
    uint32_t matching = 0;
    for (const auto& [replica, digest] : reply_tally_) {
      if (digest == value_digest) ++matching;
    }
    if (matching >= gen_.cluster_.config().f + 1) {
      complete(reply->value, /*fast_ack=*/false, ctx);
    }
  }
}

void OpenLoopClient::on_timer(uint64_t id, sim::ActorContext& ctx) {
  CpuSpan span(gen_.timed_ ? &gen_.client_host_s_ : nullptr);
  if (!outstanding_ || id != timer_gen_) return;
  ++gen_.records_[current_].retries;
  primary_hint_ = (primary_hint_ + 1) % gen_.replica_nodes_.size();
  send_request(/*broadcast=*/true, ctx);
}

void OpenLoopClient::complete(const Bytes& value, bool fast_ack,
                              sim::ActorContext& ctx) {
  outstanding_ = false;
  RequestRecord& rec = gen_.records_[current_];
  rec.completed = ctx.now();
  rec.fast_ack = fast_ack;
  // Every operation of this benchmark is a put (or a batch of puts), whose
  // output on both services is "OK".
  if (value != to_bytes("OK")) ++gen_.wrong_values_;
  if (std::optional<size_t> next = gen_.take_waiting(this)) send(*next, ctx);
}

// ---------------------------------------------------------------------------
// Measurement helpers

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// Unavailability over [from, to): the no-service interval around a
/// uniformly random instant, at the 80th percentile. An outage covering more
/// than 20% of the span is exactly the longest interval; on steady load it is
/// a stable tail of the gaps where the longest single one would be an extreme
/// value. Service needs a flow: a completion counts only with at least
/// kServiceFlow completions in the second up to it, so a lone retried request
/// answered from the reply caches does not end an outage.
SimTime unavailable_us(const std::vector<RequestRecord>& recs, SimTime from, SimTime to) {
  constexpr size_t kServiceFlow = 5;
  std::vector<SimTime> done;
  for (const RequestRecord& r : recs) {
    if (r.completed >= 0) done.push_back(r.completed);
  }
  std::sort(done.begin(), done.end());
  std::vector<SimTime> gaps;
  SimTime prev = from;
  for (size_t i = 0; i < done.size(); ++i) {
    const SimTime t = done[i];
    if (t <= from || t >= to) continue;
    if (i + 1 < kServiceFlow || t - done[i + 1 - kServiceFlow] >= 1'000'000) continue;
    gaps.push_back(t - prev);
    prev = t;
  }
  gaps.push_back(to - prev);
  std::sort(gaps.rbegin(), gaps.rend());
  SimTime unavailable = 0;
  SimTime covered = 0;
  for (SimTime g : gaps) {
    unavailable = g;
    covered += g;
    if (covered * 5 >= to - from) break;
  }
  return unavailable;
}

using Counters = std::map<std::string, uint64_t>;

struct ReplicaSnapshot {
  uint64_t incarnation = 0;
  Counters counters;
  const recovery::IReplicaWal* wal = nullptr;
  uint64_t wal_bytes = 0;
  int64_t lane0_us = 0;
};

ReplicaSnapshot snapshot_replica(Cluster& cluster, const ReplicaHandle& h) {
  ReplicaSnapshot s;
  s.incarnation = cluster.network().incarnation(h.node());
  h.for_each_stat([&](const char* name, uint64_t v) { s.counters[name] = v; });
  s.wal = h.wal().get();
  s.wal_bytes = h.wal() ? h.wal()->bytes_written() : 0;
  s.lane0_us = cluster.network().lane_used_us(h.node())[0];
  return s;
}

/// Counter growth of one replica over the window, WAL bytes included as
/// "wal_bytes". A replica restarted inside the window counts its new
/// incarnation (and a wiped replica its new WAL) from zero.
Counters replica_delta(const ReplicaSnapshot& from, const ReplicaSnapshot& to) {
  Counters d;
  const bool same = from.incarnation == to.incarnation;
  for (const auto& [name, v] : to.counters) {
    auto it = from.counters.find(name);
    const uint64_t base = same && it != from.counters.end() ? it->second : 0;
    d[name] = v - std::min(v, base);
  }
  const uint64_t wal_base = to.wal == from.wal ? from.wal_bytes : 0;
  d["wal_bytes"] = to.wal_bytes - std::min(to.wal_bytes, wal_base);
  return d;
}

constexpr const char* kStages[] = {"stage.pending_wait_us", "stage.pp_to_commit_us",
                                   "stage.commit_to_exec_us", "stage.exec_to_ack_us"};

/// Runs `fn` repeatedly for about `budget_s` of thread CPU; seconds per call.
template <typename Fn>
double time_per_call(Fn&& fn, double budget_s = 0.05) {
  uint64_t calls = 0;
  double start = thread_cpu_s();
  double now = start;
  do {
    for (int i = 0; i < 16; ++i) fn();
    calls += 16;
    now = thread_cpu_s();
  } while (now - start < budget_s);
  return (now - start) / static_cast<double>(calls);
}

/// Microbenchmarks of single layers, sized from the run: the client-identity
/// count, the key count (capped at 4096), the mean requests per block, and the
/// last block a live replica persisted.
void probe_layers(const Workload& w, uint64_t seed, Cluster& cluster,
                  double reqs_per_block, std::map<std::string, double>& L,
                  std::vector<std::string>& errors) {
  const uint32_t n = cluster.n();
  {
    sim::Simulator probe;
    uint64_t sink = 0;
    L["sim.schedule_step_ns"] = 1e9 * time_per_call([&] {
      probe.schedule(probe.now(), [&sink] { ++sink; });
      probe.step();
    });
  }
  {
    runtime::ReplyCache cache;
    for (uint32_t i = 0; i < kClientIdentities; ++i) {
      cache.store(n + i, 1, 1, 0, to_bytes("OK"));
    }
    Rng rng(seed);
    uint64_t hits = 0;
    L["runtime.reply_cache_find_ns"] = 1e9 * time_per_call([&] {
      hits += cache.find(static_cast<ClientId>(n + rng.below(kClientIdentities))) != nullptr;
    });
  }
  {
    const uint32_t keys = std::min<uint32_t>(w.key_space, 4096);
    merkle::SparseMerkleTree tree;
    for (uint32_t k = 0; k < keys; ++k) {
      tree.update(as_span(key_bytes(k)), crypto::sha256(as_span(key_bytes(k))));
    }
    Rng rng(seed);
    Digest leaf = crypto::sha256("perfbench");
    L["merkle.smt_update_us"] = 1e6 * time_per_call([&] {
      leaf[0]++;
      tree.update(as_span(key_bytes(static_cast<uint32_t>(rng.below(keys)))), leaf);
    });
  }
  {
    const size_t leaves = std::max<size_t>(1, static_cast<size_t>(std::lround(reqs_per_block)));
    std::vector<Digest> leaf_digests;
    for (size_t i = 0; i < leaves; ++i) leaf_digests.push_back(crypto::sha256(std::to_string(i)));
    uint8_t sink = 0;
    L["merkle.block_tree_build_us"] = 1e6 * time_per_call([&] {
      sink ^= merkle::BlockMerkleTree(leaf_digests).root()[0];
    });
  }
  // The encoded PrePrepare every replica persists: the last block in a live
  // replica's ledger.
  std::optional<Bytes> block;
  for (ReplicaId r = 1; r <= n && !block; ++r) {
    const ReplicaHandle& h = cluster.replica(r);
    if (!cluster.network().crashed(h.node()) && h.ledger() && h.ledger()->last_seq() > 0) {
      block = h.ledger()->read_block(h.ledger()->last_seq());
    }
  }
  std::optional<Message> msg = block ? decode_message(as_span(*block)) : std::nullopt;
  if (!msg) {
    errors.push_back("no decodable ledger block for the crypto and proto probes");
    return;
  }
  const Bytes small(64, 0x5a);
  const double block_bytes = static_cast<double>(block->size());
  uint8_t sink = 0;
  L["crypto.sha256_ns_per_byte.64B"] =
      1e9 * time_per_call([&] { sink ^= crypto::sha256(as_span(small))[0]; }) / 64.0;
  L["crypto.sha256_ns_per_byte.block"] =
      1e9 * time_per_call([&] { sink ^= crypto::sha256(as_span(*block))[0]; }) / block_bytes;
  size_t bytes = 0;
  L["proto.encode_ns_per_byte"] =
      1e9 * time_per_call([&] { bytes += encode_message(*msg).size(); }) / block_bytes;
  L["proto.decode_ns_per_byte"] =
      1e9 * time_per_call([&] { bytes += decode_message(as_span(*block)).has_value(); }) /
      block_bytes;
}

std::string hex(const Digest& d) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < 16; ++i) {
    out += digits[d[i] >> 4];
    out += digits[d[i] & 15];
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;
    // The paper's headline deployment: SBFT, n = 209, 64-op requests.
    Workload sbft64;
    sbft64.name = "sbft-f64-batched";
    sbft64.kind = ProtocolKind::kSbft;
    sbft64.f = 64;
    sbft64.c = 8;
    sbft64.ops_per_request = 64;
    sbft64.rate_per_s = 570;
    sbft64.warmup_us = 200'000;
    sbft64.window_requests = 1000;
    v.push_back(sbft64);
    // The all-to-all baseline: PBFT, n = 49, 1-op requests.
    Workload pbft16;
    pbft16.name = "pbft-f16-unbatched";
    pbft16.kind = ProtocolKind::kPbft;
    pbft16.f = 16;
    pbft16.rate_per_s = 250;
    pbft16.warmup_us = 500'000;
    pbft16.window_requests = 2000;
    v.push_back(pbft16);
    // Recovery under load: SMT state, a wiped backup, then a primary crash.
    // Not gated: a view-change cascade in a quarter of the seeds (README.md).
    Workload faults;
    faults.name = "sbft-f16-faults";
    faults.kind = ProtocolKind::kSbft;
    faults.f = 16;
    faults.smt_service = true;
    faults.value_size = 1024;
    faults.key_space = 1536;
    faults.rate_per_s = 35;
    faults.warmup_us = 1'000'000;
    faults.window_requests = 1000;
    faults.wipe_at_us = 200'000;
    faults.primary_crash_at_us = 7'000'000;
    faults.quiet_before_crash_us = 2'500'000;
    v.push_back(faults);
    return v;
  }();
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<Arrival> make_arrivals(const Workload& w, uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xa771);
  std::vector<SimTime> due;
  // `count` arrivals over [begin, end), skipping the quiet span [gap_at,
  // gap_at + gap) by drawing over the active time and shifting past it.
  auto phase = [&](SimTime begin, SimTime end, uint64_t count, SimTime gap_at,
                   SimTime gap) {
    const SimTime active = end - begin - gap;
    if (active <= 0) return;
    size_t first = due.size();
    for (uint64_t i = 0; i < count; ++i) {
      SimTime t = begin + static_cast<SimTime>(rng.below(static_cast<uint64_t>(active)));
      due.push_back(t >= gap_at ? t + gap : t);
    }
    std::sort(due.begin() + static_cast<std::ptrdiff_t>(first), due.end());
  };
  phase(0, w.warmup_us,
        static_cast<uint64_t>(std::llround(w.rate_per_s * 1e-6 *
                                           static_cast<double>(w.warmup_us))),
        w.warmup_us, 0);
  const SimTime quiet = w.primary_crash_at_us > 0 ? w.quiet_before_crash_us : 0;
  phase(w.warmup_us, w.warmup_us + w.window_us(), w.window_requests,
        w.warmup_us + w.primary_crash_at_us - quiet, quiet);

  harness::KvWorkloadOptions ops;
  ops.ops_per_request = w.ops_per_request;
  ops.key_space = w.key_space;
  ops.value_size = w.value_size;
  auto op_factory = harness::kv_op_factory(ops);
  std::vector<Arrival> out;
  out.reserve(due.size());
  for (size_t i = 0; i < due.size(); ++i) out.push_back({due[i], op_factory(i, rng)});
  return out;
}

RunResult run_workload(const Workload& w, uint64_t seed, bool traced,
                       bool setup_only,
                       std::chrono::steady_clock::time_point process_start) {
  RunResult result;
  auto fail = [&](std::string why) { result.errors.push_back(std::move(why)); };

  std::vector<Arrival> arrivals = make_arrivals(w, seed);
  auto service_times = std::make_shared<ServiceTimes>();

  harness::ClusterOptions o;
  o.kind = w.kind;
  o.f = w.f;
  o.c = w.c;
  o.num_clients = 0;
  o.topology = w.lan ? sim::lan_topology() : sim::continent_topology();
  o.seed = seed;
  if (w.smt_service) {
    std::shared_ptr<const kv::KvService> genesis = make_genesis(w, seed);
    o.service_factory = [genesis] { return std::make_unique<kv::KvService>(*genesis); };
  } else {
    o.service_factory = [] { return std::make_unique<harness::FastKvService>(); };
  }
  if (traced) {
    o.service_factory = [inner = o.service_factory, service_times] {
      return std::make_unique<TimedService>(inner(), service_times);
    };
    o.tracing = true;
    // Bounded trace memory: about 2M events (128 MiB) across the cluster.
    o.trace_capacity = (size_t{1} << 21) / o.make_config().n();
  }
  Cluster cluster(std::move(o));
  sim::Simulator& sim = cluster.simulator();
  sim::Network& net = cluster.network();
  const uint32_t n = cluster.n();
  LoadGenerator gen(cluster, std::move(arrivals), kClientIdentities, traced);

  const SimTime ws = w.warmup_us;
  const SimTime we = ws + w.window_us();

  // --- faults -----------------------------------------------------------------
  ReplicaId wiped = 0;
  SimTime wiped_restart_at = -1;
  SeqNum rejoin_frontier = 0;
  SimTime rejoined_at = -1;
  SimTime primary_crash_at = -1;
  auto live = [&](const ReplicaHandle& h) { return !net.crashed(h.node()); };
  if (w.wipe_at_us > 0) {
    // Never the view-0 or view-1 primary: the wiped replica rejoins as a
    // backup while the view change elects replica 2.
    Rng fault_rng(seed ^ 0xfa17ull);
    wiped = static_cast<ReplicaId>(3 + fault_rng.below(n - 2));
    sim.schedule(ws + w.wipe_at_us, [&cluster, wiped] { cluster.crash_replica(wiped); });
    sim.schedule(ws + w.wipe_at_us + kWipedDowntimeUs, [&, wiped] {
      for (ReplicaId r = 1; r <= n; ++r) {
        if (r != wiped && live(cluster.replica(r))) {
          rejoin_frontier = std::max(rejoin_frontier, cluster.replica(r).last_executed());
        }
      }
      wiped_restart_at = sim.now();
      cluster.restart_replica(wiped, /*wipe_storage=*/true);
    });
  }
  if (w.primary_crash_at_us > 0) {
    sim.schedule(ws + w.primary_crash_at_us, [&] {
      ViewNum view = 0;
      for (ReplicaId r = 1; r <= n; ++r) {
        if (live(cluster.replica(r))) view = std::max(view, cluster.replica(r).view());
      }
      primary_crash_at = sim.now();
      cluster.crash_replica(cluster.config().primary_of(view));
    });
  }

  // --- progress polling ---------------------------------------------------------
  // first_exec[s] / all_exec[s]: poll time at which some / every live replica
  // had executed sequence s (steady workloads' catch-up lag).
  std::vector<SimTime> first_exec{0};
  std::vector<SimTime> all_exec{0};
  auto poll = [&] {
    SeqNum hi = 0;
    SeqNum lo = UINT64_MAX;
    for (ReplicaId r = 1; r <= n; ++r) {
      const ReplicaHandle& h = cluster.replica(r);
      if (!live(h)) continue;
      hi = std::max(hi, h.last_executed());
      lo = std::min(lo, h.last_executed());
    }
    while (first_exec.size() <= hi) first_exec.push_back(sim.now());
    while (all_exec.size() <= lo && lo != UINT64_MAX) all_exec.push_back(sim.now());
    if (wiped_restart_at >= 0 && rejoined_at < 0 &&
        cluster.replica(wiped).last_executed() >= rejoin_frontier) {
      rejoined_at = sim.now();
    }
  };
  SpeedReference speed;
  double stepping_cpu_s = 0;
  auto advance_to = [&](SimTime t) {
    CpuSpan span(traced ? &stepping_cpu_s : nullptr);
    while (sim.now() < t) {
      cluster.run_for(std::min(kPollUs, t - sim.now()));
      poll();
      speed.maybe_sample();
    }
  };

  // --- warm-up, then the measured window -----------------------------------------
  advance_to(ws);
  std::vector<ReplicaSnapshot> at_start;
  for (ReplicaId r = 1; r <= n; ++r) {
    at_start.push_back(snapshot_replica(cluster, cluster.replica(r)));
    if (traced) {
      for (const char* stage : kStages) {
        cluster.replica(r).metrics()->histogram(stage) = obs::Histogram{};
      }
    }
  }
  const uint64_t events0 = sim.events_processed();
  const sim::MessageStats net0 = net.total_stats();
  const ServiceTimes svc0 = *service_times;
  const double client0 = gen.client_host_s();
  const double stepping0 = stepping_cpu_s;
  const auto window_wall_start = std::chrono::steady_clock::now();
  const double ref0_s = speed.total_s();
  const uint64_t ref0_calls = speed.calls();
  const double cpu0 = process_cpu_s();
  // Set-up wall time without the reference kernel, raw and scaled by the
  // kernel's speed during set-up.
  const double setup_s =
      std::chrono::duration<double>(window_wall_start - process_start).count() - ref0_s;
  result.host["setup_raw_s"] = setup_s;
  result.host["setup_s"] = speed.scale(setup_s, ref0_s, ref0_calls);
  if (setup_only) {
    result.correct = true;
    return result;
  }

  advance_to(we);

  // CPU of the window without the reference kernel, raw and scaled.
  const double ref_s = speed.total_s() - ref0_s;
  const uint64_t ref_calls = speed.calls() - ref0_calls;
  const double host_cpu_s = process_cpu_s() - cpu0 - ref_s;
  result.host["host_cpu_raw_s"] = host_cpu_s;
  result.host["host_cpu_s"] = speed.scale(host_cpu_s, ref_s, ref_calls);
  const uint64_t events = sim.events_processed() - events0;
  const sim::MessageStats net1 = net.total_stats();
  const ServiceTimes svc1 = *service_times;
  const double client_s = gen.client_host_s() - client0;
  const double stepping_s = stepping_cpu_s - stepping0 - ref_s;
  std::vector<ReplicaSnapshot> at_end;
  for (ReplicaId r = 1; r <= n; ++r) {
    at_end.push_back(snapshot_replica(cluster, cluster.replica(r)));
  }

  // --- drain late requests, settle, audit ---------------------------------------
  const SimTime drain_deadline = we + kDrainLimitUs;
  while (sim.now() < drain_deadline &&
         !(gen.all_done() && (wiped_restart_at < 0 || rejoined_at >= 0))) {
    advance_to(sim.now() + 100'000);
  }
  advance_to(sim.now() + kSettleUs);

  if (!gen.all_done()) fail("requests still unacknowledged at the end of the run");
  if (gen.rejected_acks() > 0) fail("execute-acks failed verification");
  if (gen.wrong_values() > 0) fail("replies with a value other than OK");
  SeqNum bad_seq = 0;
  if (!cluster.check_agreement(&bad_seq)) {
    fail("agreement violated at seq " + std::to_string(bad_seq));
  }
  for (const std::string& v : cluster.audit_state_convergence()) fail("convergence: " + v);
  for (const std::string& v : cluster.audit_reply_caches()) fail("reply caches: " + v);
  if (traced) {
    obs::CheckReport report = cluster.check_trace();
    if (!report.ok()) fail("trace check: " + report.summary());
  }
  if (wiped != 0 && rejoined_at < 0) fail("wiped replica never caught up");

  // --- simulated plane -------------------------------------------------------------
  const std::vector<RequestRecord>& recs = gen.records();
  std::vector<double> latency_ms;
  std::vector<double> lag_us;
  uint64_t due_in_window = 0;
  uint64_t on_time = 0;
  uint64_t committed = 0;  // completions inside the window
  uint64_t fast_acks = 0;
  uint64_t retries = 0;
  for (const RequestRecord& r : recs) {
    if (r.completed >= ws && r.completed < we) {
      ++committed;
      if (r.fast_ack) ++fast_acks;
    }
    if (r.due < ws || r.due >= we) continue;
    ++due_in_window;
    retries += r.retries;
    if (r.completed < 0) continue;
    latency_ms.push_back(static_cast<double>(r.completed - r.due) / 1000.0);
    lag_us.push_back(static_cast<double>(r.sent - r.due));
    if (r.completed - r.due <= kLatencyLimitUs) ++on_time;
  }
  result.attempted = due_in_window;
  result.failed = due_in_window - latency_ms.size();
  if (latency_ms.size() < 1000) fail("fewer than 1000 latency samples in the window");

  const SimTime unavailable =
      unavailable_us(recs, primary_crash_at >= 0 ? primary_crash_at : ws, we);

  double catchup_ms = 0;
  if (wiped != 0) {
    catchup_ms = rejoined_at >= 0
                     ? static_cast<double>(rejoined_at - wiped_restart_at) / 1000.0
                     : 0;
  } else {
    double lag_sum = 0;
    uint64_t blocks = 0;
    for (SeqNum s = 1; s < std::min(first_exec.size(), all_exec.size()); ++s) {
      if (first_exec[s] < ws || first_exec[s] >= we) continue;
      lag_sum += static_cast<double>(all_exec[s] - first_exec[s]);
      ++blocks;
    }
    if (blocks == 0) fail("no block executed inside the window");
    catchup_ms = blocks ? lag_sum / static_cast<double>(blocks) / 1000.0 : 0;
  }

  const double window_s = static_cast<double>(we - ws) * 1e-6;
  result.sim["sim_ops_per_s"] =
      static_cast<double>(committed * w.ops_per_request) / window_s;
  result.sim["sim_latency_p50_ms"] = percentile(latency_ms, 0.50);
  result.sim["sim_latency_p99_ms"] = percentile(latency_ms, 0.99);
  result.sim["on_time_ratio"] =
      due_in_window ? static_cast<double>(on_time) / static_cast<double>(due_in_window)
                    : 0;
  result.sim["sim_unavailable_ms"] = static_cast<double>(unavailable) / 1000.0;
  result.sim["sim_catchup_ms"] = catchup_ms;

  Writer digest_input;
  for (const RequestRecord& r : recs) {
    digest_input.u64(static_cast<uint64_t>(r.due));
    digest_input.u64(static_cast<uint64_t>(r.sent));
    digest_input.u64(static_cast<uint64_t>(r.completed));
    digest_input.u8(r.fast_ack ? 1 : 0);
  }
  digest_input.u64(sim.events_processed());
  digest_input.u64(net.total_stats().count);
  digest_input.u64(net.total_stats().bytes);
  digest_input.u64(cluster.max_executed());
  result.sim_digest = hex(crypto::sha256(as_span(digest_input.data())));

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  result.host["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // --- per-layer attribution (traced run) ------------------------------------------
  if (traced) {
    auto& L = result.layer;
    const double reqs = static_cast<double>(std::max<uint64_t>(committed, 1));
    const double window_us = static_cast<double>(we - ws);
    Counters d;  // summed over replicas
    uint64_t view_changes = 0;  // most seen by any replica
    for (ReplicaId r = 1; r <= n; ++r) {
      for (const auto& [name, v] : replica_delta(at_start[r - 1], at_end[r - 1])) {
        d[name] += v;
        if (name == "view_changes") view_changes = std::max(view_changes, v);
      }
    }
    const bool is_pbft = w.kind == ProtocolKind::kPbft;

    L["sim.events_per_req"] = static_cast<double>(events) / reqs;
    L["sim.host_ns_per_event"] =
        stepping_s * 1e9 / static_cast<double>(std::max<uint64_t>(events, 1));
    L["sim.msgs_per_req"] = static_cast<double>(net1.count - net0.count) / reqs;
    L["sim.kb_per_req"] = static_cast<double>(net1.bytes - net0.bytes) / 1024.0 / reqs;

    ViewNum final_view = 0;
    for (ReplicaId r = 1; r <= n; ++r) {
      if (live(cluster.replica(r))) final_view = std::max(final_view, cluster.replica(r).view());
    }
    const ReplicaId primary = cluster.config().primary_of(final_view);
    std::vector<double> backup_util;
    for (ReplicaId r = 1; r <= n; ++r) {
      const ReplicaSnapshot& a = at_start[r - 1];
      const ReplicaSnapshot& b = at_end[r - 1];
      const double util = static_cast<double>(b.lane0_us - a.lane0_us) / window_us;
      if (r == primary) {
        L["sim.primary_lane0_util"] = util;
      } else if (live(cluster.replica(r))) {
        backup_util.push_back(util);
      }
    }
    L["sim.backup_lane0_util.p50"] = percentile(backup_util, 0.5);

    obs::MetricsRegistry stages;
    for (ReplicaId r = 1; r <= n; ++r) stages.merge(*cluster.replica(r).metrics());
    auto stage = [&](const char* name, double q) {
      const obs::Histogram* h = stages.find_histogram(name);
      return h ? static_cast<double>(h->percentile(q)) : 0.0;
    };
    const std::string core_prefix = is_pbft ? "pbft." : "core.";
    const std::string other_prefix = is_pbft ? "core." : "pbft.";
    for (const char* q : {"p50", "p99"}) {
      const double p = q[1] == '5' ? 0.50 : 0.99;
      L[core_prefix + "pp_to_commit_us." + q] = stage("stage.pp_to_commit_us", p);
      L[core_prefix + "commit_to_exec_us." + q] = stage("stage.commit_to_exec_us", p);
      L[other_prefix + "pp_to_commit_us." + q] = 0;
      L[other_prefix + "commit_to_exec_us." + q] = 0;
      L[std::string("core.pending_wait_us.") + q] =
          is_pbft ? 0 : stage("stage.pending_wait_us", p);
      L[std::string("core.exec_to_ack_us.") + q] =
          is_pbft ? 0 : stage("stage.exec_to_ack_us", p);
    }
    const double reqs_per_block =
        static_cast<double>(d["requests_executed"]) /
        static_cast<double>(std::max<uint64_t>(d["blocks_executed"], 1));
    L[core_prefix + "reqs_per_block"] = reqs_per_block;
    L[other_prefix + "reqs_per_block"] = 0;
    L[core_prefix + "view_changes"] = static_cast<double>(view_changes);
    L[other_prefix + "view_changes"] = 0;
    const uint64_t commits = d["fast_commits"] + d["slow_commits"];
    L["core.fast_commit_ratio"] =
        commits ? static_cast<double>(d["fast_commits"]) / static_cast<double>(commits) : 0;
    L["core.fast_ack_ratio"] = static_cast<double>(fast_acks) / reqs;
    L["core.client_host_us_per_req"] = client_s * 1e6 / reqs;

    L["runtime.state_transfer_bytes"] =
        static_cast<double>(d["state_transfer_bytes_transferred"]);
    L["runtime.state_transfer_chunks_fetched"] =
        static_cast<double>(d["state_transfer_chunks_fetched"]);
    L["runtime.state_transfer_resumes"] = static_cast<double>(d["state_transfer_resumes"]);
    L["runtime.delta_bytes_saved"] = static_cast<double>(d["delta_bytes_saved"]);
    L["runtime.reply_cache_hits"] = static_cast<double>(d["reply_cache_hits"]);
    L["recovery.wal_kb_per_req"] = static_cast<double>(d["wal_bytes"]) / 1024.0 / reqs;
    L["kv.execute_host_us_per_req"] = (svc1.execute_s - svc0.execute_s) * 1e6 / reqs;
    L["kv.snapshot_host_ms"] = (svc1.snapshot_s - svc0.snapshot_s) * 1e3;

    L["loadgen.lag_us.p99"] = percentile(lag_us, 0.99);
    L["loadgen.retries_per_req"] =
        static_cast<double>(retries) / static_cast<double>(std::max<uint64_t>(due_in_window, 1));
    L["failed_req_ratio"] = 1.0 - result.sim["on_time_ratio"];
    L["host.attributed_share"] =
        (client_s + (svc1.execute_s - svc0.execute_s) + (svc1.snapshot_s - svc0.snapshot_s)) /
        std::max(stepping_s, 1e-9);

    probe_layers(w, seed, cluster, reqs_per_block, L, result.errors);
  }

  result.correct = result.errors.empty();
  return result;
}

}  // namespace perfbench
