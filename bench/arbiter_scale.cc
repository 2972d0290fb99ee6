// arbiter_scale — decision cost of the flat arbiter as the tenant count
// grows (10 / 100 / 1000 tenants).
//
// The machine behind the arbiter is a SyntheticPlatform: topology, clock
// and injected per-core utilization, but no scheduler or workload — so the
// bench measures what it claims to measure, the *arbitration round* cost,
// not machine-simulation cost. Demand is scripted deterministically: every
// core runs at a stable 50% load, and for the middle third of the run every
// fifth tenant's home core bursts to 95%, driving its owner through the
// overload → grow → starve path.
//
// The JSON records the core count, Jain fairness and floor violations at
// each scale, which are deterministic across hosts and therefore safe to
// gate in the bench trajectory. A floor violation is a tenant, after any
// round, below its floor or sharing a core with another tenant
// (CountViolations in bench/arbiter_scale.h); the verdict
// zero_floor_violations holds when no round at any scale has one, and the
// binary exits non-zero after writing the file when it does not. Wall-clock
// per round is printed to stdout for the curious but deliberately kept out
// of the JSON.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/arbiter_scale.h"
#include "bench/bench_common.h"
#include "core/arbiter.h"
#include "exec/tenant_builder.h"
#include "platform/synthetic_platform.h"
#include "simcore/check.h"

namespace elastic {
namespace {

constexpr int kMonitorPeriodTicks = 20;
constexpr int kRounds = 60;
constexpr double kSteadyLoad = 0.50;
constexpr double kBurstLoad = 0.95;

struct Scale {
  int tenants = 0;
  int num_nodes = 0;
  int cores_per_node = 4;
};

const Scale kScales[] = {
    {10, 4, 4},
    {100, 32, 4},
    {1000, 256, 4},
};

struct RunResult {
  double round_wall_us_mean = 0.0;
  double fairness = 0.0;
  int floor_violations = 0;
};

core::ArbiterTenantConfig TenantAt(int i) {
  core::MechanismConfig mechanism;
  mechanism.initial_cores = 1;
  mechanism.max_cores = 2;
  mechanism.monitor_period_ticks = kMonitorPeriodTicks;
  mechanism.log_transitions = false;
  return exec::TenantBuilder("t" + std::to_string(i))
      .mechanism(mechanism)
      .mode("dense")
      .Build();
}

numasim::MachineConfig MachineFor(const Scale& scale) {
  numasim::MachineConfig config;
  config.num_nodes = scale.num_nodes;
  config.cores_per_node = scale.cores_per_node;
  return config;
}

/// Applies the scripted load for one monitoring period: steady 50%
/// everywhere, and during the middle third of the run the listed burst
/// cores (the home core of every fifth tenant) run at 95%.
void ApplyLoad(platform::SyntheticPlatform* platform, int round,
               const std::vector<int>& burst_cores) {
  const bool burst = round >= kRounds / 3 && round < 2 * kRounds / 3;
  const int total = platform->topology().total_cores();
  for (int core = 0; core < total; ++core) {
    platform->SetCoreBusyFraction(core, kSteadyLoad);
  }
  if (burst) {
    for (const int core : burst_cores) {
      platform->SetCoreBusyFraction(core, kBurstLoad);
    }
  }
}

RunResult Run(const Scale& scale) {
  platform::SyntheticPlatform platform(MachineFor(scale));
  core::ArbiterConfig config;
  config.policy = core::ArbitrationPolicy::kFairShare;
  config.monitor_period_ticks = kMonitorPeriodTicks;
  config.log_rounds = false;
  config.register_tick_hook = false;  // the bench drives Poll itself
  core::CoreArbiter arbiter(&platform, config);
  for (int i = 0; i < scale.tenants; ++i) arbiter.AddTenant(TenantAt(i));
  arbiter.Install();
  std::vector<int> burst_cores;
  for (int i = 0; i < scale.tenants; i += 5) {
    burst_cores.push_back(arbiter.tenant_mask(i).First());
  }

  RunResult result;
  double wall_us = 0.0;
  std::vector<bench::Holding> holdings(static_cast<size_t>(scale.tenants));
  for (int i = 0; i < scale.tenants; ++i) {
    holdings[static_cast<size_t>(i)].floor_cores = TenantAt(i).floor_cores();
  }
  for (int round = 0; round < kRounds; ++round) {
    ApplyLoad(&platform, round, burst_cores);
    platform.AdvanceTicks(kMonitorPeriodTicks);
    const auto t0 = std::chrono::steady_clock::now();
    arbiter.Poll(platform.Now());
    const auto t1 = std::chrono::steady_clock::now();
    wall_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
    for (int i = 0; i < scale.tenants; ++i) {
      bench::Holding& holding = holdings[static_cast<size_t>(i)];
      holding.mask = arbiter.tenant_mask(i);
      holding.active = arbiter.tenant_active(i);
    }
    result.floor_violations += bench::CountViolations(holdings);
  }
  result.round_wall_us_mean = wall_us / kRounds;
  result.fairness = arbiter.FairnessIndex();
  return result;
}

void EmitFlat(std::FILE* f, const RunResult& r) {
  std::fprintf(f, "    \"flat\": {\"fairness\": %.6f, \"floor_violations\": %d}",
               r.fairness, r.floor_violations);
}

}  // namespace
}  // namespace elastic

int main(int argc, char** argv) {
  using namespace elastic;
  const std::string out =
      bench::JsonOutPath(argc, argv, "BENCH_arbiter_scale.json");

  std::FILE* f = std::fopen(out.c_str(), "w");
  ELASTIC_CHECK(f != nullptr, "cannot open bench output file");
  std::fprintf(f, "{\n  \"bench\": \"arbiter_scale\",\n  \"rounds\": %d,\n",
               kRounds);
  std::fprintf(f, "  \"scales\": {\n");

  bool zero_floor_violations = true;

  for (size_t s = 0; s < sizeof(kScales) / sizeof(kScales[0]); ++s) {
    const Scale& scale = kScales[s];
    std::printf("running scale %d tenants (%d cores) ...\n", scale.tenants,
                scale.num_nodes * scale.cores_per_node);
    const RunResult flat = Run(scale);
    std::printf("  flat: %.1f us/round wall, fairness %.4f\n",
                flat.round_wall_us_mean, flat.fairness);
    if (flat.floor_violations > 0) zero_floor_violations = false;

    std::fprintf(f, "  \"%d\": {\n", scale.tenants);
    std::fprintf(f, "    \"cores\": %d,\n",
                 scale.num_nodes * scale.cores_per_node);
    EmitFlat(f, flat);
    std::fprintf(f, "\n  }%s\n",
                 s + 1 < sizeof(kScales) / sizeof(kScales[0]) ? "," : "");
  }

  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"verdict\": {\"zero_floor_violations\": %s}\n}\n",
               zero_floor_violations ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  ELASTIC_CHECK(zero_floor_violations,
                "arbiter_scale acceptance verdict failed");
  return 0;
}
