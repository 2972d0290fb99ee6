// Multi-tenant elastic core arbitration: three tenant DBMS instances with
// different workload shapes (stable phases, mixed random, scan burst —
// reusing the Fig. 18/19 phase generators) contend for one 16-core machine
// under each arbitration policy. Reports per-tenant throughput, core-handoff
// counts and Jain fairness indices, and emits machine-readable JSON to
// BENCH_multi_tenant_arbiter.json (see bench_common.h for the convention).

#include <array>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "core/arbiter.h"

namespace elastic::bench {
namespace {

struct TenantResult {
  std::string name;
  double throughput_qps = 0.0;
  double mean_latency_s = 0.0;
  int64_t completed = 0;
  int final_cores = 0;
};

struct PolicyResult {
  std::string policy;
  std::vector<TenantResult> tenants;
  int64_t core_handoffs = 0;
  int64_t preemptions = 0;
  int64_t starved_rounds = 0;
  /// Jain index of per-tenant core counts, averaged over all rounds.
  double fairness_allocation = 0.0;
  /// Jain index of per-tenant throughput at the end of the run.
  double fairness_throughput = 0.0;
  double total_s = 0.0;
};

exec::TenantSpec PhasesTenant() {
  // Fig. 18-style stable phases: every client runs the phase's query class
  // concurrently; heavy sequential-scan classes keep the tenant hot.
  exec::TenantSpec spec;
  spec.name = "phases-heavy";
  spec.weight = 2.0;
  spec.workload.mode = exec::WorkloadMode::kPhases;
  for (int q : {1, 6, 14}) spec.workload.traces.push_back(&QueryTrace(q));
  spec.num_clients = 24;
  return spec;
}

exec::TenantSpec MixedTenant() {
  // Fig. 19-style mixed phases: every client continuously draws a random
  // query class, with think time between submissions.
  exec::TenantSpec spec;
  spec.name = "mixed-light";
  spec.weight = 1.0;
  spec.workload.mode = exec::WorkloadMode::kRandomMix;
  for (int q : {3, 5, 10, 12}) spec.workload.traces.push_back(&QueryTrace(q));
  spec.workload.queries_per_client = 2;
  spec.workload.think_ticks = kBenchThinkTicks;
  spec.num_clients = 12;
  return spec;
}

exec::TenantSpec BurstTenant() {
  // A ramped burst of identical scans (the Fig. 4 concurrency shape).
  exec::TenantSpec spec;
  spec.name = "scan-burst";
  spec.weight = 1.0;
  spec.workload.mode = exec::WorkloadMode::kFixedQuery;
  spec.workload.traces.push_back(&QueryTrace(6));
  spec.workload.queries_per_client = 2;
  spec.workload.ramp_ticks = kBenchRampTicks;
  spec.num_clients = 16;
  return spec;
}

PolicyResult RunPolicy(core::ArbitrationPolicy policy) {
  exec::ExperimentOptions options;
  options.policy = policy;
  options.seed = kBenchSeed;
  options.placement = exec::BasePlacement::kTableAffine;
  exec::Experiment experiment(&BenchDb(), options);

  for (const exec::TenantSpec& spec :
       {PhasesTenant(), MixedTenant(), BurstTenant()}) {
    experiment.AddTenant(spec);
  }
  experiment.Start();
  experiment.RunUntilDone(5'000'000);

  core::CoreArbiter& arbiter = experiment.arbiter();
  PolicyResult result;
  result.policy = core::ArbitrationPolicyName(policy);
  result.core_handoffs = arbiter.core_handoffs();
  result.preemptions = arbiter.preemptions();
  result.starved_rounds = arbiter.starved_rounds();
  result.total_s =
      simcore::Clock::ToSeconds(experiment.machine().clock().now());

  std::vector<double> throughputs;
  for (int t = 0; t < experiment.num_tenants(); ++t) {
    TenantResult tenant;
    tenant.name = experiment.tenant_name(t);
    tenant.throughput_qps = experiment.driver(t).ThroughputQps();
    tenant.mean_latency_s = experiment.driver(t).MeanLatencySeconds();
    tenant.completed = experiment.driver(t).completed();
    tenant.final_cores = arbiter.nalloc(t);
    throughputs.push_back(tenant.throughput_qps);
    result.tenants.push_back(tenant);
  }
  result.fairness_throughput = core::CoreArbiter::JainIndex(throughputs);

  double fairness_sum = 0.0;
  for (const core::ArbiterRound& round : arbiter.log()) {
    std::vector<double> counts;
    for (const core::TenantRound& tr : round.tenants) {
      counts.push_back(static_cast<double>(tr.granted));
    }
    fairness_sum += core::CoreArbiter::JainIndex(counts);
  }
  result.fairness_allocation =
      arbiter.log().empty() ? 1.0
                            : fairness_sum /
                                  static_cast<double>(arbiter.log().size());
  return result;
}

void Main(const std::string& json_path) {
  const std::array<core::ArbitrationPolicy, 3> policies = {
      core::ArbitrationPolicy::kFairShare,
      core::ArbitrationPolicy::kPriorityWeighted,
      core::ArbitrationPolicy::kDemandProportional,
  };

  std::vector<PolicyResult> results;
  for (core::ArbitrationPolicy policy : policies) {
    std::fprintf(stderr, "running policy %s ...\n",
                 core::ArbitrationPolicyName(policy));
    results.push_back(RunPolicy(policy));
  }

  for (const PolicyResult& r : results) {
    metrics::Table table({"tenant", "qps", "mean lat (s)", "completed",
                          "final cores"});
    for (const TenantResult& t : r.tenants) {
      table.AddRow({t.name, metrics::Table::Num(t.throughput_qps, 2),
                    metrics::Table::Num(t.mean_latency_s, 3),
                    std::to_string(t.completed),
                    std::to_string(t.final_cores)});
    }
    table.Print("Policy " + r.policy + "  [" +
                metrics::Table::Num(r.total_s, 2) + " s, " +
                std::to_string(r.core_handoffs) + " handoffs, " +
                std::to_string(r.preemptions) + " preemptions, " +
                "alloc fairness " +
                metrics::Table::Num(r.fairness_allocation, 3) + ", " +
                "tput fairness " +
                metrics::Table::Num(r.fairness_throughput, 3) + "]");
  }
  std::printf(
      "\nExpected shape: fair_share keeps the allocation Jain index highest; "
      "priority_weighted\nfavours the weight-2 phases tenant (better qps, "
      "lower fairness); demand_proportional\ntracks the burst tenant's load "
      "and hands cores back when the burst drains.\n");

  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"multi_tenant_arbiter\",\n"
               "  \"scale_factor\": %.4f,\n  \"policies\": {\n",
               kBenchScaleFactor);
  for (size_t p = 0; p < results.size(); ++p) {
    const PolicyResult& r = results[p];
    std::fprintf(json,
                 "    \"%s\": {\n"
                 "      \"core_handoffs\": %lld, \"preemptions\": %lld, "
                 "\"starved_rounds\": %lld,\n"
                 "      \"fairness_allocation\": %.4f, "
                 "\"fairness_throughput\": %.4f, \"total_s\": %.4f,\n"
                 "      \"tenants\": {\n",
                 r.policy.c_str(), static_cast<long long>(r.core_handoffs),
                 static_cast<long long>(r.preemptions),
                 static_cast<long long>(r.starved_rounds),
                 r.fairness_allocation, r.fairness_throughput, r.total_s);
    for (size_t t = 0; t < r.tenants.size(); ++t) {
      const TenantResult& tenant = r.tenants[t];
      std::fprintf(json,
                   "        \"%s\": {\"throughput_qps\": %.4f, "
                   "\"mean_latency_s\": %.4f, \"completed\": %lld, "
                   "\"final_cores\": %d}%s\n",
                   tenant.name.c_str(), tenant.throughput_qps,
                   tenant.mean_latency_s,
                   static_cast<long long>(tenant.completed),
                   tenant.final_cores, t + 1 < r.tenants.size() ? "," : "");
    }
    std::fprintf(json, "      }\n    }%s\n",
                 p + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  }\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
}

}  // namespace
}  // namespace elastic::bench

int main(int argc, char** argv) {
  elastic::bench::Main(elastic::bench::JsonOutPath(
      argc, argv, "BENCH_multi_tenant_arbiter.json"));
  return 0;
}
