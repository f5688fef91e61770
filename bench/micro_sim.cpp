// Microbenchmark for the simulator's event core: one schedule plus one step
// at a steady pending-event count. Delays follow the shape of a cluster run:
// uniform over 150..22,150 us (network hops and CPU charges) with a 1% share
// of 1 s timers.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

using namespace sbft;

namespace {

std::vector<sim::SimTime> delays(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<sim::SimTime> out(count);
  for (sim::SimTime& d : out) {
    d = rng.below(100) == 0 ? 1'000'000
                            : static_cast<sim::SimTime>(150 + rng.below(22'001));
  }
  return out;
}

void BM_ScheduleStep(benchmark::State& state) {
  const size_t pending = static_cast<size_t>(state.range(0));
  const std::vector<sim::SimTime> delay = delays(1 << 16, 7);
  sim::Simulator sim;
  uint64_t sink = 0;
  size_t next = 0;
  auto schedule = [&] {
    sim.after(delay[next], [&sink] { ++sink; });
    next = (next + 1) % delay.size();
  };
  for (size_t i = 0; i < pending; ++i) schedule();
  for (auto _ : state) {
    schedule();
    sim.step();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleStep)->Arg(4096)->Arg(32768);

}  // namespace

BENCHMARK_MAIN();
