// Chaos bench for the fault-tolerant control plane: four tenants share one
// 16-core machine under demand-proportional arbitration while a seeded
// FaultSchedule degrades the control plane mid-run — a cgroup that rejects
// writes for 60 rounds, a telemetry probe that goes dark briefly and then
// returns garbage for 20 rounds, a late monitoring timer, a stalled clock,
// and finally a tenant crash. The same workload runs fault-free first; the
// bench reports how fast the arbiter quarantines the failing cpuset, how
// fast it recovers after the fault clears, and how much goodput the
// unaffected steady tenant retained. Emits BENCH_chaos_arbiter.json with
// pass/fail acceptance flags (no abort, quarantine within budget, >= 80%
// goodput retained, deterministic replay).

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/arbiter.h"
#include "platform/fault_injection_platform.h"

namespace elastic::bench {
namespace {

// Horizon and fault windows are in ticks (1 tick = 1 ms simulated); the
// arbiter polls every 20 ticks, so 4000 ticks = 200 arbitration rounds.
constexpr int64_t kHorizonTicks = 4000;
constexpr simcore::Tick kCgroupFaultFrom = 600;
constexpr simcore::Tick kCgroupFaultUntil = 1800;
constexpr simcore::Tick kDropoutFrom = 800;
constexpr simcore::Tick kDropoutUntil = 860;  // 3 polls: held within the TTL
constexpr simcore::Tick kGarbageFrom = 2000;
constexpr simcore::Tick kGarbageUntil = 2400;  // 20 rounds: decays
constexpr simcore::Tick kTickDelayFrom = 2600;
constexpr simcore::Tick kTickDelayUntil = 2640;
constexpr simcore::Tick kClockStallFrom = 2801;
constexpr simcore::Tick kClockStallUntil = 2901;
constexpr simcore::Tick kCrashTick = 3200;

// Tenant indices (== cpuset ids == sampler creation indices).
constexpr int kSteady = 0;
constexpr int kCgroupVictim = 1;
constexpr int kTelemetryVictim = 2;
constexpr int kCrasher = 3;

/// Rounds allowed between the first failed install and quarantine entry
/// (4 consecutive failures through 1+1+2+4 backoff plus jitter fits well
/// inside this).
constexpr int kQuarantineBudgetRounds = 16;
constexpr double kGoodputFloor = 0.8;

exec::TenantSpec SteadyTenant() {
  // The control group: a steady scan tenant no fault targets. Its goodput
  // under chaos, relative to the fault-free run, is the headline number.
  exec::TenantSpec spec;
  spec.name = "steady";
  spec.mechanism.initial_cores = 4;
  spec.workload.mode = exec::WorkloadMode::kFixedQuery;
  spec.workload.traces.push_back(&QueryTrace(6));
  spec.workload.queries_per_client = 60;  // outlasts the horizon
  spec.workload.think_ticks = 100;
  spec.num_clients = 10;
  return spec;
}

exec::TenantSpec CgroupVictimTenant() {
  // Its cpuset rejects every write during the fault window: installs fail,
  // back off, and the cpuset is quarantined until the window closes.
  exec::TenantSpec spec;
  spec.name = "cgroup-victim";
  spec.mechanism.initial_cores = 3;
  spec.workload.mode = exec::WorkloadMode::kRandomMix;
  for (int q : {3, 10}) spec.workload.traces.push_back(&QueryTrace(q));
  spec.workload.queries_per_client = 60;
  spec.workload.think_ticks = 150;
  spec.num_clients = 8;
  return spec;
}

exec::TenantSpec TelemetryVictimTenant() {
  // Its sampler drops out briefly (hold-last-allocation absorbs it) and
  // later returns garbage for 20 rounds (decay-to-entitlement kicks in).
  exec::TenantSpec spec;
  spec.name = "telemetry-victim";
  spec.mechanism.initial_cores = 3;
  spec.workload.mode = exec::WorkloadMode::kFixedQuery;
  spec.workload.traces.push_back(&QueryTrace(14));
  spec.workload.queries_per_client = 60;
  spec.workload.think_ticks = 150;
  spec.num_clients = 8;
  return spec;
}

exec::TenantSpec CrasherTenant() {
  // Finishes its small workload early, idles, and is detached (dead pid)
  // at kCrashTick — its cores must return to the pool next round.
  exec::TenantSpec spec;
  spec.name = "crasher";
  spec.mechanism.initial_cores = 2;
  spec.workload.mode = exec::WorkloadMode::kFixedQuery;
  spec.workload.traces.push_back(&QueryTrace(1));
  spec.workload.queries_per_client = 3;
  spec.workload.think_ticks = 100;
  spec.num_clients = 2;
  return spec;
}

platform::FaultSchedule ChaosSchedule() {
  platform::FaultSchedule schedule;
  schedule.seed = kBenchSeed;
  auto rule = [&schedule](platform::FaultKind kind, simcore::Tick from,
                          simcore::Tick until, int target) {
    platform::FaultRule r;
    r.kind = kind;
    r.from = from;
    r.until = until;
    r.target = target;
    schedule.rules.push_back(r);
  };
  rule(platform::FaultKind::kCpusetWriteFail, kCgroupFaultFrom,
       kCgroupFaultUntil, kCgroupVictim);
  rule(platform::FaultKind::kSampleDropout, kDropoutFrom, kDropoutUntil,
       kTelemetryVictim);
  rule(platform::FaultKind::kSampleGarbage, kGarbageFrom, kGarbageUntil,
       kTelemetryVictim);
  // Target 0: the arbiter's monitoring hook is the only hook registered
  // through the decorated platform.
  rule(platform::FaultKind::kTickDelay, kTickDelayFrom, kTickDelayUntil, 0);
  rule(platform::FaultKind::kClockStall, kClockStallFrom, kClockStallUntil,
       -1);
  return schedule;
}

struct TenantOutcome {
  std::string name;
  int64_t completed = 0;
  double throughput_qps = 0.0;
  int final_cores = 0;
};

struct RunOutcome {
  std::vector<TenantOutcome> tenants;
  double total_s = 0.0;
  core::ArbiterStats stats;
  int64_t injections[5] = {0, 0, 0, 0, 0};
  std::vector<std::string> injection_log;
  /// Rounds from the first failed install to quarantine entry (-1: never).
  int rounds_to_quarantine = -1;
  /// Rounds from the end of the cgroup fault window to the first round the
  /// victim was out of quarantine again (-1: never recovered).
  int recovery_rounds = -1;
};

RunOutcome RunChaos(const platform::FaultSchedule* schedule) {
  exec::ExperimentOptions options;
  options.policy = core::ArbitrationPolicy::kDemandProportional;
  options.seed = kBenchSeed;
  options.placement = exec::BasePlacement::kTableAffine;
  options.fault_schedule = schedule;
  exec::Experiment experiment(&BenchDb(), options);

  for (const exec::TenantSpec& spec :
       {SteadyTenant(), CgroupVictimTenant(), TelemetryVictimTenant(),
        CrasherTenant()}) {
    experiment.AddTenant(spec);
  }
  experiment.Start();
  if (schedule != nullptr) {
    experiment.machine().AddTickHook([&experiment](simcore::Tick now) {
      if (now == kCrashTick) experiment.arbiter().DetachTenant(kCrasher);
    });
  }
  // Fixed horizon, not run-to-completion: both runs see the same simulated
  // wall clock, so completed counts compare as goodput.
  experiment.machine().RunFor(kHorizonTicks);

  core::CoreArbiter& arbiter = experiment.arbiter();
  RunOutcome outcome;
  outcome.total_s =
      simcore::Clock::ToSeconds(experiment.machine().clock().now());
  outcome.stats = arbiter.stats();
  for (int t = 0; t < experiment.num_tenants(); ++t) {
    TenantOutcome tenant;
    tenant.name = experiment.tenant_name(t);
    tenant.completed = experiment.driver(t).completed();
    tenant.throughput_qps = experiment.driver(t).ThroughputQps();
    tenant.final_cores = arbiter.nalloc(t);
    outcome.tenants.push_back(tenant);
  }
  if (platform::FaultInjectionPlatform* faults = experiment.fault_platform()) {
    for (int k = 0; k < 5; ++k) {
      outcome.injections[k] =
          faults->injected(static_cast<platform::FaultKind>(k));
    }
    outcome.injection_log = faults->injection_log();
  }

  const std::vector<core::ArbiterRound>& log = arbiter.log();
  int first_fail = -1, first_quarantined = -1;
  int fault_end = -1, recovered = -1;
  for (size_t i = 0; i < log.size(); ++i) {
    const core::TenantRound& tr =
        log[i].tenants[static_cast<size_t>(kCgroupVictim)];
    if (first_fail < 0 && tr.install_failed) first_fail = static_cast<int>(i);
    if (first_quarantined < 0 && tr.quarantined) {
      first_quarantined = static_cast<int>(i);
    }
    if (log[i].tick >= kCgroupFaultUntil) {
      if (fault_end < 0) fault_end = static_cast<int>(i);
      if (recovered < 0 && !tr.quarantined) recovered = static_cast<int>(i);
    }
  }
  if (first_fail >= 0 && first_quarantined >= 0) {
    outcome.rounds_to_quarantine = first_quarantined - first_fail;
  }
  if (fault_end >= 0 && recovered >= 0) {
    outcome.recovery_rounds = recovered - fault_end;
  }
  return outcome;
}

void Main(const std::string& json_path) {
  std::fprintf(stderr, "running fault-free baseline ...\n");
  const RunOutcome baseline = RunChaos(nullptr);
  const platform::FaultSchedule schedule = ChaosSchedule();
  std::fprintf(stderr, "running chaos schedule ...\n");
  const RunOutcome faulted = RunChaos(&schedule);
  std::fprintf(stderr, "replaying chaos schedule (determinism check) ...\n");
  const RunOutcome replay = RunChaos(&schedule);

  bool deterministic = faulted.injection_log == replay.injection_log;
  for (size_t t = 0; t < faulted.tenants.size(); ++t) {
    if (faulted.tenants[t].completed != replay.tenants[t].completed ||
        faulted.tenants[t].final_cores != replay.tenants[t].final_cores) {
      deterministic = false;
    }
  }
  deterministic = deterministic &&
                  faulted.stats.failed_installs == replay.stats.failed_installs &&
                  faulted.stats.stale_rounds == replay.stats.stale_rounds;

  const double base_goodput =
      static_cast<double>(baseline.tenants[kSteady].completed);
  const double chaos_goodput =
      static_cast<double>(faulted.tenants[kSteady].completed);
  const double goodput_retained =
      base_goodput > 0.0 ? chaos_goodput / base_goodput : 0.0;
  const bool quarantined_within_budget =
      faulted.rounds_to_quarantine >= 0 &&
      faulted.rounds_to_quarantine <= kQuarantineBudgetRounds &&
      faulted.recovery_rounds >= 0;
  const bool goodput_ok = goodput_retained >= kGoodputFloor;

  metrics::Table table({"tenant", "fault-free", "chaos", "retained",
                        "final cores"});
  for (size_t t = 0; t < faulted.tenants.size(); ++t) {
    const TenantOutcome& base = baseline.tenants[t];
    const TenantOutcome& chaos = faulted.tenants[t];
    const double retained =
        base.completed > 0 ? static_cast<double>(chaos.completed) /
                                 static_cast<double>(base.completed)
                           : 1.0;
    table.AddRow({base.name, std::to_string(base.completed),
                  std::to_string(chaos.completed),
                  metrics::Table::Num(retained, 3),
                  std::to_string(chaos.final_cores)});
  }
  table.Print("Chaos arbitration  [" + metrics::Table::Num(faulted.total_s, 2) +
              " s, quarantine after " +
              std::to_string(faulted.rounds_to_quarantine) +
              " rounds, recovery " + std::to_string(faulted.recovery_rounds) +
              " rounds]");
  std::printf(
      "health: stale=%lld held=%lld decayed=%lld failed_installs=%lld "
      "quarantine_entries=%lld quarantined_rounds=%lld detached=%lld\n",
      static_cast<long long>(faulted.stats.stale_rounds),
      static_cast<long long>(faulted.stats.held_rounds),
      static_cast<long long>(faulted.stats.decayed_cores),
      static_cast<long long>(faulted.stats.failed_installs),
      static_cast<long long>(faulted.stats.quarantine_entries),
      static_cast<long long>(faulted.stats.quarantined_rounds),
      static_cast<long long>(faulted.stats.detached_tenants));
  std::printf(
      "acceptance: no_abort=1 quarantined_within_budget=%d "
      "goodput_retained=%.3f (floor %.2f) deterministic=%d\n",
      quarantined_within_budget ? 1 : 0, goodput_retained, kGoodputFloor,
      deterministic ? 1 : 0);

  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"chaos_arbiter\",\n"
               "  \"scale_factor\": %.4f,\n  \"horizon_ticks\": %lld,\n",
               kBenchScaleFactor, static_cast<long long>(kHorizonTicks));
  auto emit_tenants = [json](const RunOutcome& run) {
    for (size_t t = 0; t < run.tenants.size(); ++t) {
      const TenantOutcome& tenant = run.tenants[t];
      std::fprintf(json,
                   "      \"%s\": {\"completed\": %lld, "
                   "\"throughput_qps\": %.4f, \"final_cores\": %d}%s\n",
                   tenant.name.c_str(),
                   static_cast<long long>(tenant.completed),
                   tenant.throughput_qps, tenant.final_cores,
                   t + 1 < run.tenants.size() ? "," : "");
    }
  };
  std::fprintf(json, "  \"baseline\": {\n    \"tenants\": {\n");
  emit_tenants(baseline);
  std::fprintf(json, "    }\n  },\n  \"faulted\": {\n    \"tenants\": {\n");
  emit_tenants(faulted);
  std::fprintf(json,
               "    },\n"
               "    \"stats\": {\"stale_rounds\": %lld, \"held_rounds\": %lld, "
               "\"decayed_cores\": %lld, \"failed_installs\": %lld,\n"
               "      \"quarantine_entries\": %lld, \"quarantined_rounds\": "
               "%lld, \"detached_tenants\": %lld},\n",
               static_cast<long long>(faulted.stats.stale_rounds),
               static_cast<long long>(faulted.stats.held_rounds),
               static_cast<long long>(faulted.stats.decayed_cores),
               static_cast<long long>(faulted.stats.failed_installs),
               static_cast<long long>(faulted.stats.quarantine_entries),
               static_cast<long long>(faulted.stats.quarantined_rounds),
               static_cast<long long>(faulted.stats.detached_tenants));
  std::fprintf(json, "    \"injections\": {");
  for (int k = 0; k < 5; ++k) {
    std::fprintf(json, "\"%s\": %lld%s",
                 platform::FaultKindName(static_cast<platform::FaultKind>(k)),
                 static_cast<long long>(faulted.injections[k]),
                 k + 1 < 5 ? ", " : "");
  }
  std::fprintf(json,
               "},\n"
               "    \"rounds_to_quarantine\": %d,\n"
               "    \"recovery_rounds\": %d\n  },\n",
               faulted.rounds_to_quarantine, faulted.recovery_rounds);
  std::fprintf(json,
               "  \"acceptance\": {\n"
               "    \"no_abort\": true,\n"
               "    \"quarantined_within_budget\": %s,\n"
               "    \"goodput_retained\": %.4f,\n"
               "    \"goodput_ok\": %s,\n"
               "    \"deterministic\": %s\n  }\n}\n",
               quarantined_within_budget ? "true" : "false", goodput_retained,
               goodput_ok ? "true" : "false",
               deterministic ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
}

}  // namespace
}  // namespace elastic::bench

int main(int argc, char** argv) {
  elastic::bench::Main(
      elastic::bench::JsonOutPath(argc, argv, "BENCH_chaos_arbiter.json"));
  return 0;
}
