// Microbenchmarks of the NUMA machine model itself: page-access costs by
// locality class, first-touch, interconnect congestion, and simulation
// throughput (host-side pages simulated per second).

#include <benchmark/benchmark.h>

#include "numasim/memory_system.h"
#include "numasim/topology.h"
#include "perf/counters.h"

namespace elastic::numasim {
namespace {

struct Rig {
  Rig()
      : topo(MachineConfig{}),
        pt(topo.num_nodes()),
        counters(topo.num_nodes(), topo.num_links(), topo.total_cores()),
        mem(&topo, &pt, &counters) {}
  Topology topo;
  PageTable pt;
  perf::CounterSet counters;
  MemorySystem mem;
};

void BM_AccessL3Hit(benchmark::State& state) {
  Rig rig;
  const BufferId buffer = rig.pt.CreateBuffer(64);
  rig.pt.PlaceAllOn(buffer, 0);
  rig.mem.BeginTick();
  rig.mem.Access(0, PageTable::PageOf(buffer, 0), false, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rig.mem.Access(0, PageTable::PageOf(buffer, 0), false, 0));
  }
}
BENCHMARK(BM_AccessL3Hit);

void BM_AccessLocalDramStream(benchmark::State& state) {
  Rig rig;
  const int64_t pages = 1 << 16;
  const BufferId buffer = rig.pt.CreateBuffer(pages);
  rig.pt.PlaceAllOn(buffer, 0);
  int64_t i = 0;
  rig.mem.BeginTick();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rig.mem.Access(0, PageTable::PageOf(buffer, i++ & (pages - 1)), false, 0));
  }
}
BENCHMARK(BM_AccessLocalDramStream);

void BM_AccessRemoteDramStream(benchmark::State& state) {
  Rig rig;
  const int64_t pages = 1 << 16;
  const BufferId buffer = rig.pt.CreateBuffer(pages);
  rig.pt.PlaceAllOn(buffer, 3);  // two hops from node 0
  int64_t i = 0;
  for (auto _ : state) {
    if ((i & 1023) == 0) rig.mem.BeginTick();  // avoid unbounded congestion
    benchmark::DoNotOptimize(
        rig.mem.Access(0, PageTable::PageOf(buffer, i++ & (pages - 1)), false, 0));
  }
}
BENCHMARK(BM_AccessRemoteDramStream);

void BM_FirstTouch(benchmark::State& state) {
  Rig rig;
  BufferId buffer = rig.pt.CreateBuffer(1 << 22);
  int64_t i = 0;
  rig.mem.BeginTick();
  for (auto _ : state) {
    if (i == (1 << 22)) {
      state.PauseTiming();
      rig.pt.FreeBuffer(buffer);
      buffer = rig.pt.CreateBuffer(1 << 22);
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
        rig.mem.Access(0, PageTable::PageOf(buffer, i++), true, 0));
  }
}
BENCHMARK(BM_FirstTouch);

/// Writes to pages already homed and cached on the writer's socket: unlike
/// a first touch, each one reads the other sockets' frames from the page's
/// directory entry to invalidate.
void BM_WriteRevisit(benchmark::State& state) {
  Rig rig;
  const int64_t pages = 64;
  const BufferId buffer = rig.pt.CreateBuffer(pages);
  rig.pt.PlaceAllOn(buffer, 0);
  rig.mem.BeginTick();
  for (int64_t p = 0; p < pages; ++p) {
    rig.mem.Access(0, PageTable::PageOf(buffer, p), false, 0);
  }
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rig.mem.Access(0, PageTable::PageOf(buffer, i++ & (pages - 1)), true, 0));
  }
}
BENCHMARK(BM_WriteRevisit);

/// Simulated remote latency grows once the per-tick link budget is spent:
/// report average simulated cycles per access at increasing pages-per-tick.
void BM_CongestionCurve(benchmark::State& state) {
  Rig rig;
  const int64_t pages_per_tick = state.range(0);
  const int64_t pages = 1 << 16;
  const BufferId buffer = rig.pt.CreateBuffer(pages);
  rig.pt.PlaceAllOn(buffer, 1);
  int64_t i = 0;
  int64_t total_cycles = 0;
  int64_t accesses = 0;
  for (auto _ : state) {
    if (accesses % pages_per_tick == 0) rig.mem.BeginTick();
    const AccessResult r =
        rig.mem.Access(0, PageTable::PageOf(buffer, i++ & (pages - 1)), false, 0);
    total_cycles += r.cycles;
    accesses++;
  }
  state.counters["sim_cycles_per_access"] = benchmark::Counter(
      static_cast<double>(total_cycles) / static_cast<double>(accesses));
}
BENCHMARK(BM_CongestionCurve)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace elastic::numasim

BENCHMARK_MAIN();
