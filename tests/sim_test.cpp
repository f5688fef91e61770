#include <gtest/gtest.h>

#include <queue>
#include <tuple>

#include "common/rng.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace sbft::sim {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(300, [&] { order.push_back(3); });
  sim.schedule(100, [&] { order.push_back(1); });
  sim.schedule(200, [&] { order.push_back(2); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, SameTimeFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(50, [&order, i] { order.push_back(i); });
  }
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] {
    sim.after(5, [&] { ++fired; });
  });
  sim.run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 15);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(100, [&] { ++fired; });
  sim.schedule(200, [&] { ++fired; });
  sim.run_until(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 150);
  sim.run_until(250);
  EXPECT_EQ(fired, 2);
}

// Reference event queue: a binary heap on (at, seq), the order the wheel must
// reproduce exactly.
class ReferenceSimulator {
 public:
  SimTime now() const { return now_; }
  uint64_t events_processed() const { return processed_; }
  bool idle() const { return queue_.empty(); }
  void schedule(SimTime at, std::function<void()> fn) {
    queue_.push(Event{at, next_seq_++, std::move(fn)});
  }
  bool step() {
    if (queue_.empty()) return false;
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.at;
    ++processed_;
    ev.fn();
    return true;
  }
  void run_until(SimTime t) {
    while (!queue_.empty() && queue_.top().at <= t) step();
    if (now_ < t) now_ = t;
  }

 private:
  struct Event {
    SimTime at;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      return std::tie(at, seq) > std::tie(o.at, o.seq);
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
};

struct Fired {
  uint64_t id;
  SimTime at;
  bool operator==(const Fired&) const = default;
};

// Drives `sim` with one Rng stream: same-time ties, delays on both sides of
// the wheel edge, far timers of seconds, scheduling from inside callbacks,
// and run_until() over windows where only far events are pending. Returns
// the order events fired in.
template <typename Sim>
std::vector<Fired> drive(Sim& sim, uint64_t seed, uint64_t total_events) {
  constexpr SimTime kSpan = SimTime{1} << 15;
  Rng rng(seed);
  std::vector<Fired> fired;
  uint64_t scheduled = 0;
  auto delay = [&]() -> SimTime {
    switch (rng.below(10)) {
      case 0: return 0;
      case 1: return static_cast<SimTime>(rng.below(4));
      case 2: {
        const SimTime edges[] = {kSpan - 1, kSpan, kSpan + 1};
        return edges[rng.below(3)];
      }
      case 3: return static_cast<SimTime>(1'000'000 + rng.below(2'000'000));
      default: return static_cast<SimTime>(150 + rng.below(22'000));
    }
  };
  std::function<void(uint64_t)> fire = [&](uint64_t id) {
    fired.push_back({id, sim.now()});
    uint64_t children = rng.below(10) == 0 ? 2 : 1;
    for (uint64_t c = 0; c < children && scheduled < total_events; ++c) {
      uint64_t child = scheduled++;
      sim.schedule(sim.now() + delay(), [&fire, child] { fire(child); });
    }
  };
  auto seed_events = [&](uint64_t count) {
    for (uint64_t i = 0; i < count && scheduled < total_events; ++i) {
      uint64_t id = scheduled++;
      sim.schedule(sim.now() + delay(), [&fire, id] { fire(id); });
    }
  };
  seed_events(2000);
  while (!sim.idle()) {
    if (rng.below(4) == 0) {
      sim.run_until(sim.now() + static_cast<SimTime>(rng.below(3 * kSpan)));
      seed_events(rng.below(4));  // scheduled from outside any callback
    } else {
      sim.step();
    }
    if (sim.idle() && scheduled < total_events) {
      // Only far events pending: run_until() must stop the clock at t, not
      // jump to the far event, and time-t events still run.
      uint64_t id = scheduled++;
      sim.schedule(sim.now() + 2'000'000, [&fire, id] { fire(id); });
      SimTime t = sim.now() + kSpan + static_cast<SimTime>(rng.below(kSpan));
      sim.run_until(t);
      EXPECT_EQ(sim.now(), t);
      seed_events(2000);
    }
  }
  return fired;
}

TEST(Simulator, WheelMatchesReferenceHeapOrder) {
  for (uint64_t seed : {1u, 2u}) {
    constexpr uint64_t kEvents = 120'000;
    Simulator sim;
    ReferenceSimulator ref;
    std::vector<Fired> got = drive(sim, seed, kEvents);
    std::vector<Fired> want = drive(ref, seed, kEvents);
    ASSERT_EQ(want.size(), kEvents);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << ", event " << i;
    }
    EXPECT_EQ(sim.events_processed(), ref.events_processed());
    EXPECT_EQ(sim.now(), ref.now());
  }
}

TEST(Simulator, RunUntilWithOnlyFarEventsStopsAtTheBound) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule(5'000'000, [&] { fired.push_back(1); });
  sim.run_until(1'000'000);
  EXPECT_EQ(sim.now(), 1'000'000);
  sim.run_until(4'990'000);
  EXPECT_EQ(sim.now(), 4'990'000);
  EXPECT_TRUE(fired.empty());
  // The far event is now inside the window. One scheduled later at the same
  // time must still run after it.
  sim.schedule(5'000'000, [&] { fired.push_back(2); });
  sim.schedule(4'999'999, [&] { fired.push_back(0); });
  sim.run_until_idle();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), 5'000'000);
}

// ---------------------------------------------------------------------------
// Network

struct Recorder : IActor {
  std::vector<std::pair<NodeId, SimTime>> received;
  int64_t cpu_cost = 0;
  std::vector<NodeId> reply_to;

  void on_message(NodeId from, const Message&, ActorContext& ctx) override {
    received.emplace_back(from, ctx.now());
    if (cpu_cost) ctx.charge(cpu_cost);
    for (NodeId to : reply_to) {
      ctx.send(to, make_message(ClientReplyMsg{}));
    }
  }
};

struct Starter : IActor {
  NodeId target = 0;
  int copies = 1;
  void on_start(ActorContext& ctx) override {
    for (int i = 0; i < copies; ++i) {
      ctx.send(target, make_message(ClientRequestMsg{}));
    }
  }
  void on_message(NodeId, const Message&, ActorContext&) override {}
};

TEST(Network, DeliversWithLatency) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  Recorder recorder;
  net.add_node(&starter);
  starter.target = net.add_node(&recorder);
  net.start();
  sim.run_until_idle();
  ASSERT_EQ(recorder.received.size(), 1u);
  // LAN latency is ~100us one-way plus jitter and transmission.
  EXPECT_GE(recorder.received[0].second, 100);
  EXPECT_LT(recorder.received[0].second, 1000);
}

TEST(Network, CrashedNodeReceivesNothing) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  Recorder recorder;
  net.add_node(&starter);
  starter.target = net.add_node(&recorder);
  net.crash(starter.target);
  net.start();
  sim.run_until_idle();
  EXPECT_TRUE(recorder.received.empty());
}

TEST(Network, CutLinkDropsBothDirections) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  Recorder recorder;
  NodeId a = net.add_node(&starter);
  NodeId b = net.add_node(&recorder);
  starter.target = b;
  net.disconnect(a, b);
  net.start();
  sim.run_until_idle();
  EXPECT_TRUE(recorder.received.empty());
}

TEST(Network, CpuSerializesProcessing) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  starter.copies = 3;
  Recorder recorder;
  recorder.cpu_cost = 10'000;  // 10ms per message
  net.add_node(&starter);
  starter.target = net.add_node(&recorder);
  net.start();
  sim.run_until_idle();
  ASSERT_EQ(recorder.received.size(), 3u);
  // Handlers must start at least 10ms apart (sequential CPU).
  EXPECT_GE(recorder.received[1].second, recorder.received[0].second + 10'000);
  EXPECT_GE(recorder.received[2].second, recorder.received[1].second + 10'000);
}

TEST(Network, StragglerCpuFactorSlowsNode) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  starter.copies = 2;
  Recorder recorder;
  recorder.cpu_cost = 1000;
  net.add_node(&starter);
  starter.target = net.add_node(&recorder);
  net.set_cpu_factor(starter.target, 10.0);
  net.start();
  sim.run_until_idle();
  ASSERT_EQ(recorder.received.size(), 2u);
  EXPECT_GE(recorder.received[1].second, recorder.received[0].second + 10'000);
}

TEST(Network, WorldLatencyHigherThanLan) {
  CostModel costs;
  SimTime lan_time, world_time;
  {
    Simulator sim;
    Network net(sim, lan_topology(), costs);
    Starter s;
    Recorder r;
    net.add_node(&s);
    s.target = net.add_node(&r);
    net.start();
    sim.run_until_idle();
    lan_time = r.received[0].second;
  }
  {
    Simulator sim;
    Network net(sim, world_topology(), costs);
    Starter s;
    Recorder r;
    net.add_node(&s, 0);
    s.target = net.add_node(&r, 10);  // different continent
    net.start();
    sim.run_until_idle();
    world_time = r.received[0].second;
  }
  EXPECT_GT(world_time, lan_time * 10);
}

TEST(Network, StatsCountMessagesAndBytes) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  starter.copies = 4;
  Recorder recorder;
  net.add_node(&starter);
  starter.target = net.add_node(&recorder);
  net.start();
  sim.run_until_idle();
  auto totals = net.total_stats();
  EXPECT_EQ(totals.count, 4u);
  EXPECT_GT(totals.bytes, 0u);
  net.reset_stats();
  EXPECT_EQ(net.total_stats().count, 0u);
}

TEST(Network, DropProbabilityLosesMessages) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  starter.copies = 200;
  Recorder recorder;
  net.add_node(&starter);
  starter.target = net.add_node(&recorder);
  net.set_drop_probability(0.5);
  net.start();
  sim.run_until_idle();
  EXPECT_LT(recorder.received.size(), 180u);
  EXPECT_GT(recorder.received.size(), 20u);
}

TEST(Network, TimersFireAfterDelay) {
  struct TimerActor : IActor {
    SimTime fired_at = -1;
    void on_start(ActorContext& ctx) override { ctx.set_timer(5000, 42); }
    void on_message(NodeId, const Message&, ActorContext&) override {}
    void on_timer(uint64_t id, ActorContext& ctx) override {
      EXPECT_EQ(id, 42u);
      fired_at = ctx.now();
    }
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  TimerActor actor;
  net.add_node(&actor);
  net.start();
  sim.run_until_idle();
  EXPECT_EQ(actor.fired_at, 5000);
}

TEST(Network, RestartReadmitsCrashedNode) {
  struct PeriodicSender : IActor {
    NodeId target = 0;
    void on_start(ActorContext& ctx) override { ctx.set_timer(1000, 0); }
    void on_message(NodeId, const Message&, ActorContext&) override {}
    void on_timer(uint64_t, ActorContext& ctx) override {
      ctx.send(target, make_message(ClientRequestMsg{}));
      ctx.set_timer(1000, 0);
    }
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  PeriodicSender sender;
  Recorder recorder;
  net.add_node(&sender);
  NodeId b = net.add_node(&recorder);
  sender.target = b;
  net.crash(b);
  net.start();
  sim.run_until(5000);
  EXPECT_TRUE(recorder.received.empty());  // crashed: deliveries dropped
  EXPECT_EQ(net.incarnation(b), 0u);

  net.restart(b);
  EXPECT_FALSE(net.crashed(b));
  EXPECT_EQ(net.incarnation(b), 1u);
  sim.run_until(15000);
  EXPECT_FALSE(recorder.received.empty());  // messages flow again
}

TEST(Network, RestartSwapsActorAndDeliversOnStart) {
  struct Counter : IActor {
    int started = 0;
    int messages = 0;
    void on_start(ActorContext&) override { ++started; }
    void on_message(NodeId, const Message&, ActorContext&) override { ++messages; }
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Counter first, second;
  Starter starter;
  NodeId n0 = net.add_node(&starter);
  NodeId n1 = net.add_node(&first);
  starter.target = n1;
  (void)n0;
  net.start();
  sim.run_until_idle();
  EXPECT_EQ(first.started, 1);
  EXPECT_EQ(first.messages, 1);

  net.crash(n1);
  net.restart(n1, &second);
  sim.run_until_idle();
  // The replacement incarnation booted; the old object saw nothing new.
  EXPECT_EQ(second.started, 1);
  EXPECT_EQ(first.started, 1);
}

TEST(Network, StaleTimersDieWithTheCrashedIncarnation) {
  struct TimerActor : IActor {
    std::vector<SimTime> fired;
    void on_start(ActorContext& ctx) override { ctx.set_timer(5000, 1); }
    void on_message(NodeId, const Message&, ActorContext&) override {}
    void on_timer(uint64_t, ActorContext& ctx) override { fired.push_back(ctx.now()); }
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  TimerActor actor;
  NodeId node = net.add_node(&actor);
  net.start();
  sim.run_until(1000);  // timer armed at 0, fires at 5000
  net.crash(node);
  sim.run_until(2000);
  net.restart(node);  // on_start arms a fresh timer at ~2000
  sim.run_until_idle();
  // Only the new incarnation's timer fired (at ~7000), never the stale one.
  ASSERT_EQ(actor.fired.size(), 1u);
  EXPECT_GE(actor.fired[0], 7000);
}

// The in-flight slab and the serial-lane queue must not keep a payload alive
// once its message is dispatched or dropped: the sender's reference is the
// last one left when the simulation goes idle.
struct PayloadSender : IActor {
  NodeId target = 0;
  const MessagePtr* msg = nullptr;
  int copies = 1;
  void on_start(ActorContext& ctx) override {
    for (int i = 0; i < copies; ++i) ctx.send(target, *msg);
  }
  void on_message(NodeId, const Message&, ActorContext&) override {}
};

TEST(Network, DispatchedPayloadIsReleased) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  MessagePtr msg = make_message(ClientRequestMsg{});
  PayloadSender sender;
  Recorder recorder;
  sender.msg = &msg;
  net.add_node(&sender);
  sender.target = net.add_node(&recorder);
  net.start();
  sim.run_until_idle();
  ASSERT_EQ(recorder.received.size(), 1u);
  EXPECT_EQ(msg.use_count(), 1);
}

TEST(Network, PayloadOfCrashedReceiverIsReleased) {
  // A slow link, so downlink serialization spans thousands of microseconds.
  Topology slow = lan_topology();
  slow.jitter_us = 1;
  slow.bandwidth_bytes_per_us = 0.01;
  MessagePtr msg = make_message(ClientRequestMsg{});
  // Uplink serialization plus propagation brings the message in at
  // `arrival`; the downlink then needs `serialize` more before dispatch.
  int64_t serialize = static_cast<int64_t>(
      static_cast<double>(message_wire_size(*msg)) / slow.bandwidth_bytes_per_us);
  ASSERT_GT(serialize, 2);
  SimTime arrival = serialize + 1 + slow.region_latency_us[0][0];
  // The receiver crashes before arrival, or between arrival and the end of
  // its downlink serialization.
  for (SimTime crash_at : {arrival - 1, arrival + serialize / 2}) {
    Simulator sim;
    Network net(sim, slow, CostModel{});
    PayloadSender sender;
    Recorder recorder;
    sender.msg = &msg;
    net.add_node(&sender);
    NodeId receiver = net.add_node(&recorder);
    sender.target = receiver;
    net.start();
    sim.run_until(crash_at);
    EXPECT_EQ(msg.use_count(), 2);  // in flight
    net.crash(receiver);
    sim.run_until_idle();
    EXPECT_TRUE(recorder.received.empty());
    EXPECT_EQ(msg.use_count(), 1) << "crash at " << crash_at;
  }
}

TEST(Network, PayloadQueuedOnBusyLaneIsReleasedByRestart) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  MessagePtr msg = make_message(ClientRequestMsg{});
  PayloadSender sender;
  sender.copies = 2;
  Recorder recorder;
  recorder.cpu_cost = 50'000;  // the first copy keeps the lane busy
  sender.msg = &msg;
  net.add_node(&sender);
  NodeId receiver = net.add_node(&recorder);
  sender.target = receiver;
  net.start();
  sim.run_until(5'000);
  ASSERT_EQ(recorder.received.size(), 1u);
  ASSERT_EQ(net.cpu_queue_depth(receiver), 1u);
  EXPECT_EQ(msg.use_count(), 2);  // the queued second copy
  net.crash(receiver);
  net.restart(receiver);
  sim.run_until_idle();
  EXPECT_EQ(recorder.received.size(), 1u);
  EXPECT_EQ(msg.use_count(), 1);
}

// ---------------------------------------------------------------------------
// CPU lanes / offload (docs/performance.md)

struct OffloadActor : IActor {
  int64_t cost = 10'000;
  int copies = 1;
  std::vector<SimTime> completed;
  void on_message(NodeId, const Message&, ActorContext& ctx) override {
    for (int i = 0; i < copies; ++i) {
      ctx.offload(cost, [this](ActorContext& c) { completed.push_back(c.now()); });
    }
  }
};

TEST(Network, OffloadRunsInlineOnSingleLaneNode) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  OffloadActor actor;
  net.add_node(&starter);
  NodeId node = net.add_node(&actor);
  starter.target = node;
  net.start();
  sim.run_until_idle();
  ASSERT_EQ(actor.completed.size(), 1u);
  EXPECT_EQ(net.cores(node), 1u);
  EXPECT_EQ(net.offloads_run(node), 1u);
  // Inline execution charges the serial lane; there is no worker lane.
  ASSERT_EQ(net.lane_used_us(node).size(), 1u);
  EXPECT_GE(net.lane_used_us(node)[0], actor.cost);
  EXPECT_GE(net.cpu_used_us(node), actor.cost);
}

TEST(Network, OffloadsOverlapAcrossWorkerLanes) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  OffloadActor actor;
  actor.copies = 2;
  net.add_node(&starter);
  NodeId node = net.add_node(&actor);
  starter.target = node;
  net.set_cores(node, 3);  // lane 0 + two workers
  net.start();
  sim.run_until_idle();
  ASSERT_EQ(actor.completed.size(), 2u);
  // Both tasks ran in parallel on distinct worker lanes: completions land
  // within one handler overhead of each other, not one task-cost apart.
  EXPECT_LT(actor.completed[1] - actor.completed[0], actor.cost);
  const std::vector<int64_t>& lanes = net.lane_used_us(node);
  ASSERT_EQ(lanes.size(), 3u);
  EXPECT_EQ(lanes[1], actor.cost);
  EXPECT_EQ(lanes[2], actor.cost);
  EXPECT_EQ(net.offloads_run(node), 2u);
}

TEST(Network, OffloadQueuesOnEarliestFreeLane) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  OffloadActor actor;
  actor.copies = 3;  // two lanes -> the third task queues behind the first
  net.add_node(&starter);
  NodeId node = net.add_node(&actor);
  starter.target = node;
  net.set_cores(node, 3);
  net.start();
  sim.run_until_idle();
  ASSERT_EQ(actor.completed.size(), 3u);
  EXPECT_LT(actor.completed[1] - actor.completed[0], actor.cost);
  EXPECT_GE(actor.completed[2], actor.completed[0] + actor.cost);
  const std::vector<int64_t>& lanes = net.lane_used_us(node);
  EXPECT_EQ(lanes[1] + lanes[2], 3 * actor.cost);
}

TEST(Network, OffloadCompletionsDieWithTheCrashedIncarnation) {
  struct Nobody : IActor {
    void on_message(NodeId, const Message&, ActorContext&) override {}
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Nobody actor;
  NodeId node = net.add_node(&actor);
  net.set_cores(node, 2);
  net.start();
  bool completed = false;
  net.offload(node, 10'000, [&](ActorContext&) { completed = true; });
  sim.run_until(2000);
  net.crash(node);
  net.restart(node);
  sim.run_until_idle();
  // The offload was dispatched, but its completion belonged to the old
  // incarnation — exactly like a stale timer, it must never fire.
  EXPECT_EQ(net.offloads_run(node), 1u);
  EXPECT_FALSE(completed);
}

TEST(Network, StragglerCpuFactorScalesWorkerLanes) {
  struct Nobody : IActor {
    void on_message(NodeId, const Message&, ActorContext&) override {}
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Nobody actor;
  NodeId node = net.add_node(&actor);
  net.set_cores(node, 2);
  net.set_cpu_factor(node, 10.0);
  net.start();
  SimTime done_at = 0;
  net.offload(node, 1000, [&](ActorContext& c) { done_at = c.now(); });
  sim.run_until_idle();
  EXPECT_GE(done_at, 10'000);  // 1ms of work, 10x straggler
  EXPECT_EQ(net.lane_used_us(node)[1], 10'000);
}

TEST(Topologies, Shapes) {
  EXPECT_EQ(lan_topology().num_regions(), 1u);
  EXPECT_EQ(continent_topology().num_regions(), 10u);  // 5 regions x 2 AZ
  EXPECT_EQ(world_topology().num_regions(), 15u);
  // Symmetric and zero-ish diagonal.
  auto world = world_topology();
  for (uint32_t a = 0; a < world.num_regions(); ++a) {
    for (uint32_t b = 0; b < world.num_regions(); ++b) {
      EXPECT_EQ(world.region_latency_us[a][b], world.region_latency_us[b][a]);
    }
  }
}

}  // namespace
}  // namespace sbft::sim
