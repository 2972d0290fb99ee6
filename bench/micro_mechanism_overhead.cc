// Microbenchmarks of the mechanism itself (Section V: "the flow of tokens
// takes on average 0.017 s (dense) / 0.021 s (sparse) / 0.031 s (adaptive)"
// on the paper's hardware; here we measure the host-CPU cost of one
// rule-condition-action round per mode, plus the underlying primitives).

#include <benchmark/benchmark.h>

#include "core/allocation_mode.h"
#include "core/mechanism.h"
#include "core/node_priority_queue.h"
#include "ossim/machine.h"
#include "petri/net.h"
#include "platform/sim_platform.h"

namespace elastic {
namespace {

void BM_TokenFlowPerMode(benchmark::State& state, const std::string& mode) {
  ossim::Machine machine{ossim::MachineOptions{}};
  platform::SimPlatform platform(&machine);
  core::MechanismConfig config;
  config.initial_cores = 4;
  core::ElasticMechanism mechanism(
      &platform, core::MakeMode(mode, &machine.topology()), config);
  mechanism.Install();
  int64_t tick = 1;
  for (auto _ : state) {
    // Alternate load so every sub-net (idle/stable/overload) fires.
    const double load = (tick % 3 == 0) ? 99.0 : (tick % 3 == 1 ? 40.0 : 2.0);
    for (int core : mechanism.allocated_mask().ToCores()) {
      machine.counters().core_busy_cycles[static_cast<size_t>(core)] +=
          static_cast<int64_t>(load / 100.0 * 2.8e6 * 10);
    }
    machine.clock().Advance(10);
    mechanism.Poll(tick * 10);
    tick++;
  }
}
BENCHMARK_CAPTURE(BM_TokenFlowPerMode, dense, "dense");
BENCHMARK_CAPTURE(BM_TokenFlowPerMode, sparse, "sparse");
BENCHMARK_CAPTURE(BM_TokenFlowPerMode, adaptive, "adaptive");

void BM_PetriFireCycle(benchmark::State& state) {
  petri::Net net;
  const petri::PlaceId a = net.AddPlace("A");
  const petri::PlaceId b = net.AddPlace("B");
  const petri::TransitionId forward = net.AddTransition(
      "fwd", [](const petri::Binding& bind) { return bind.Get("v") >= 0; });
  net.AddInputArc(a, forward, "v");
  net.AddOutputArc(forward, b,
                   [](const petri::Binding& bind) { return bind.Get("v"); });
  const petri::TransitionId back = net.AddTransition("back");
  net.AddInputArc(b, back, "v");
  net.AddOutputArc(back, a,
                   [](const petri::Binding& bind) { return bind.Get("v"); });
  net.AddToken(a, 1.0);
  for (auto _ : state) {
    net.Fire(forward);
    net.Fire(back);
  }
}
BENCHMARK(BM_PetriFireCycle);

void BM_PriorityQueueUpdate(benchmark::State& state) {
  core::NodePriorityQueue queue(static_cast<int>(state.range(0)));
  std::vector<int64_t> pages(static_cast<size_t>(state.range(0)), 0);
  int64_t i = 0;
  for (auto _ : state) {
    pages[static_cast<size_t>(i++ % state.range(0))] += 100;
    queue.Update(pages);
    benchmark::DoNotOptimize(queue.Top());
    benchmark::DoNotOptimize(queue.Bottom());
  }
}
BENCHMARK(BM_PriorityQueueUpdate)->Arg(4)->Arg(16)->Arg(64);

void BM_MaskInstallation(benchmark::State& state) {
  ossim::Machine machine{ossim::MachineOptions{}};
  // Threads that must be evacuated whenever the mask shrinks.
  for (int i = 0; i < 16; ++i) {
    ossim::Job job;
    job.cpu_cycles_per_page = 1;
    const numasim::BufferId buffer = machine.page_table().CreateBuffer(1 << 20);
    job.ranges.push_back(ossim::PageRange{buffer, 0, 1 << 20, false});
    machine.scheduler().SpawnOneShot(std::move(job), std::nullopt, nullptr);
  }
  machine.RunFor(1);
  bool narrow = true;
  for (auto _ : state) {
    machine.scheduler().SetAllowedMask(narrow ? platform::CpuMask::FirstN(2)
                                              : platform::CpuMask::FirstN(16));
    narrow = !narrow;
  }
}
BENCHMARK(BM_MaskInstallation);

}  // namespace
}  // namespace elastic

BENCHMARK_MAIN();
