// Microbenchmarks of the mechanism itself (Section V: "the flow of tokens
// takes on average 0.017 s (dense) / 0.021 s (sparse) / 0.031 s (adaptive)"
// on the paper's hardware; here we measure the host-CPU cost of one
// rule-condition-action round per mode — a one-tenant CoreArbiter round,
// as the paper-figure experiments run it — plus the underlying
// primitives).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/allocation_mode.h"
#include "core/arbiter.h"
#include "core/mechanism.h"
#include "core/node_priority_queue.h"
#include "ossim/machine.h"
#include "petri/net.h"
#include "platform/sim_platform.h"
#include "platform/synthetic_platform.h"

namespace elastic {
namespace {

void BM_TokenFlowPerMode(benchmark::State& state, const std::string& mode) {
  ossim::Machine machine{ossim::MachineOptions{}};
  platform::SimPlatform platform(&machine);
  core::ArbiterConfig arbiter_config;
  arbiter_config.log_rounds = false;
  arbiter_config.register_tick_hook = false;
  core::CoreArbiter arbiter(&platform, arbiter_config);
  core::ArbiterTenantConfig tenant;
  tenant.mechanism.initial_cores = 4;
  tenant.mode = mode;
  arbiter.AddTenant(tenant);
  arbiter.Install();
  int64_t tick = 1;
  for (auto _ : state) {
    // Alternate load so every sub-net (idle/stable/overload) fires.
    const double load = (tick % 3 == 0) ? 99.0 : (tick % 3 == 1 ? 40.0 : 2.0);
    for (int core : arbiter.tenant_mask(0).ToCores()) {
      machine.counters().core_busy_cycles[static_cast<size_t>(core)] +=
          static_cast<int64_t>(load / 100.0 * 2.8e6 * 10);
    }
    machine.clock().Advance(10);
    arbiter.Poll(tick * 10);
    tick++;
  }
}
BENCHMARK_CAPTURE(BM_TokenFlowPerMode, dense, "dense");
BENCHMARK_CAPTURE(BM_TokenFlowPerMode, sparse, "sparse");
BENCHMARK_CAPTURE(BM_TokenFlowPerMode, adaptive, "adaptive");

// One managed monitoring round of 1000 tenants: Decide and CommitGrant per
// tenant, as a CoreArbiter runs them, without the arbitration in between.
// Dense tenants of one core each (cap 2, labels off) on a 256x4 synthetic
// machine; a third each idle, stable and overloaded. Time is per round;
// divide by 1000 for the per-tenant cost.
void BM_ManagedRound(benchmark::State& state) {
  constexpr int kTenants = 1000;
  constexpr int kPeriod = 20;
  numasim::MachineConfig machine;
  machine.num_nodes = 256;
  machine.cores_per_node = 4;
  platform::SyntheticPlatform platform(machine);
  core::MechanismConfig config;
  config.max_cores = 2;
  config.log_transitions = false;
  std::vector<std::unique_ptr<core::ElasticMechanism>> tenants;
  for (int i = 0; i < kTenants; ++i) {
    tenants.push_back(std::make_unique<core::ElasticMechanism>(
        &platform, core::MakeMode("dense", &platform.topology()), config));
    tenants.back()->InstallManaged(platform::CpuMask::Of({i}));
    const double busy = i % 3 == 0 ? 0.05 : i % 3 == 1 ? 0.4 : 0.95;
    platform.SetCoreBusyFraction(i, busy);
  }
  for (auto _ : state) {
    platform.AdvanceTicks(kPeriod);
    for (const auto& tenant : tenants) {
      const core::ElasticMechanism::Decision decision = tenant->Decide();
      benchmark::DoNotOptimize(decision.desired);
      tenant->CommitGrant(tenant->allocated_mask());
    }
  }
  state.SetItemsProcessed(state.iterations() * kTenants);
}
BENCHMARK(BM_ManagedRound)->Unit(benchmark::kMicrosecond);

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
  const ossim::CpusetId cpuset =
      machine.scheduler().CreateCpuset(platform::CpuMask::FirstN(16));
  // Threads of the cpuset that must be evacuated whenever its mask shrinks.
  for (int i = 0; i < 16; ++i) {
    ossim::Job job;
    job.cpu_cycles_per_page = 1;
    const numasim::BufferId buffer = machine.page_table().CreateBuffer(1 << 20);
    job.ranges.push_back(ossim::PageRange{buffer, 0, 1 << 20, false});
    machine.scheduler().SpawnOneShot(std::move(job), std::nullopt, nullptr,
                                     cpuset);
  }
  machine.RunFor(1);
  bool narrow = true;
  for (auto _ : state) {
    machine.scheduler().SetCpusetMask(cpuset,
                                      narrow ? platform::CpuMask::FirstN(2)
                                             : platform::CpuMask::FirstN(16));
    narrow = !narrow;
  }
}
BENCHMARK(BM_MaskInstallation);

}  // namespace
}  // namespace elastic

BENCHMARK_MAIN();
