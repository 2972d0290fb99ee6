// HTAP co-location under SLO-aware elastic arbitration: one OLTP tenant
// (partition-latched NewOrder/Payment engine, open-loop arrivals with
// periodic bursts, p99 SLO) shares the 16-core machine with one OLAP tenant
// (mixed TPC-H scan clients).
//
// Default mode compares four deployments:
//
//   static              OS-style fixed split: OLTP keeps its initial cores
//                       for the whole run, no rebalancing (cgroup pinning).
//   fair_share          the arbiter with equal entitlements; the never-
//                       preempt-overloaded rule means the perpetually
//                       overloaded scan tenant cannot be preempted, so OLTP
//                       drowns during bursts.
//   slo_aware           tail-latency feedback entitlements: the OLTP
//                       tenant's recent p99 drives grow/shrink, and while it
//                       violates its SLO it may preempt the best-effort scan
//                       tenant.
//   slo_aware_adaptive  slo_aware arbitration plus AIMD admission control in
//                       front of the transaction engine: once cores alone
//                       cannot hold the tail, a little work is refused early
//                       instead of queueing everything.
//
// Sweep mode (--sweep) fixes slo_aware arbitration and sweeps burst
// intensity x SLO target x admission policy into a p99-vs-OLAP-throughput-
// vs-goodput frontier (the Fig. 15 selectivity-sweep methodology applied to
// the HTAP scenario). Goodput counts only completions inside the SLO budget:
// a completion that blew the tail budget delivered no value.
//
// Expected shape: slo_aware holds OLTP p99 below the SLO while OLAP
// throughput stays within ~15% of fair_share; at the highest burst
// intensity adaptive admission achieves strictly higher goodput than
// admitting everything, while keeping the p99 under the SLO. Emits
// BENCH_htap_slo.json (see bench_common.h).

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "exec/htap_experiment.h"

namespace elastic::bench {
namespace {

constexpr double kSloP99Seconds = 0.060;  // 60 ms tail budget
constexpr int64_t kMaxTicks = 5'000'000;

/// One point of the comparison/sweep grid.
struct RunSpec {
  std::string name;
  /// "static" or an arbitration policy name.
  std::string deployment = "slo_aware";
  /// Admission policy in front of the OLTP engine.
  std::string admission = "none";
  double slo_p99_s = kSloP99Seconds;
  /// Burst-time inter-arrival gap: 2 = 1.5x the base rate, 1 = 3x (the
  /// compare-mode default), 0 = ~6x — past what even max_cores can serve,
  /// the regime where only admission can protect the tail.
  int64_t burst_interval_ticks = 1;
};

struct ConfigResult {
  RunSpec spec;
  // OLTP side.
  double oltp_tps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  int64_t oltp_completed = 0;
  int64_t latch_waits = 0;
  bool slo_met = false;
  // Admission accounting: shed events, dropped transactions, retries that
  // re-entered, completions inside the SLO budget, and the latter over the
  // tenant's run time (the goodput the frontier plots).
  int64_t shed_events = 0;
  int64_t failed = 0;
  int64_t retries = 0;
  int64_t goodput_count = 0;
  double goodput_tps = 0.0;
  // OLAP side.
  double olap_qps = 0.0;
  int64_t olap_completed = 0;
  double olap_finish_s = 0.0;
  // Arbitration.
  int64_t handoffs = 0;
  int64_t preemptions = 0;
  int64_t starved_rounds = 0;
  double total_s = 0.0;
};

exec::HtapOltpTenant OltpTenant(const RunSpec& spec) {
  exec::HtapOltpTenant oltp;
  oltp.mechanism.initial_cores = 4;
  // Burst headroom: the SLO boost may claim up to 8 cores — comfortably
  // above the ~5.7 busy-core burst demand, so the backlog drains instead
  // of merely holding, without displacing more of the scan tenant than the
  // tail actually needs.
  oltp.mechanism.max_cores = 8;
  oltp.slo_p99_s = spec.slo_p99_s;
  // Short memory: once a burst has drained, its samples should age out of
  // the probe within a few hundred ticks so the shed path can hand the
  // slack back to the scan tenant well before the next burst.
  oltp.probe_window_ticks = 400;
  oltp.engine.num_partitions = 64;
  oltp.engine.pool_size = 8;
  // ~10 simulated ms of service per NewOrder on one core (a 16-page stock
  // check at just over half a quantum per page): burst arrivals then offer
  // ~5.7 busy-core equivalents against the static 4-core share, so
  // queueing — not service — dominates the tail when under-provisioned.
  oltp.engine.cpu_cycles_per_page = 1'500'000;
  oltp.engine.neworder_stock_rows = 8192;
  oltp.workload.total_txns = 3000;
  oltp.workload.arrival_interval_ticks = 3;
  oltp.workload.new_order_fraction = 0.5;
  // Bursts: every 2.5 simulated seconds the arrival rate jumps to the
  // spec's intensity for 0.8 s (3x at the compare-mode default). A split
  // sized for the average rate drowns here; the elastic policies must
  // react within a few monitoring rounds.
  oltp.workload.burst_period_ticks = 2500;
  oltp.workload.burst_length_ticks = 800;
  oltp.workload.burst_interval_ticks = spec.burst_interval_ticks;

  oltp.admission.policy = oltp::AdmissionPolicyFromName(spec.admission);
  // Fixed threshold sized by Little's law for the *boosted* allocation:
  // 8 cores x (60 ms budget / ~10 ms service) ~ 48 in flight; 32 leaves
  // margin for the p99 sitting above the mean. The point of queue_depth is
  // exactly that this number goes stale the moment the arbiter moves a
  // core or the SLO changes — the sweep shows adaptive needing no retune.
  oltp.admission.max_in_flight = 32;
  // Start the AIMD window below the blow-the-budget line (32 in flight at
  // ~10 ms service over 8 cores ~ 40 ms oldest wait) and let additive
  // increase discover the rest; converging from below costs a few shed
  // arrivals, converging from above costs the p99.
  oltp.admission.initial_window = 24;
  // Adaptive targets/probe window are synced to the SLO by HtapExperiment.
  return oltp;
}

exec::HtapOlapTenant OlapTenant() {
  exec::HtapOlapTenant olap;
  olap.mechanism.initial_cores = 4;
  olap.workload.mode = exec::WorkloadMode::kRandomMix;
  for (int q : {1, 6, 14}) olap.workload.traces.push_back(&QueryTrace(q));
  // No think time: the scan tenant is continuously core-hungry (and so
  // permanently Overloaded), the regime in which never-preempt-overloaded
  // blinds the classic policies. Sized to keep scans running for the whole
  // OLTP schedule, bursts included.
  olap.workload.queries_per_client = 18;
  olap.workload.ramp_ticks = kBenchRampTicks;
  olap.num_clients = 24;
  return olap;
}

ConfigResult RunConfig(const RunSpec& spec) {
  exec::HtapOptions options;
  options.seed = kBenchSeed;
  options.placement = exec::BasePlacement::kTableAffine;
  // Latency SLOs live on the timescale of tens of ticks: a 10-tick round
  // lets the arbiter move a core within ~1/6 of the SLO budget. The same
  // cadence is used for every arbitrated config, so the comparison stays
  // policy-vs-policy rather than period-vs-period.
  options.monitor_period_ticks = 10;
  if (spec.deployment == "static") {
    options.static_split = true;
  } else {
    options.policy = core::ArbitrationPolicyFromName(spec.deployment);
  }

  exec::HtapExperiment experiment(&BenchDb(), options, OltpTenant(spec),
                                  OlapTenant());
  experiment.Start();
  experiment.RunUntilDone(kMaxTicks);

  ConfigResult result;
  result.spec = spec;
  const oltp::OltpClient& client = experiment.oltp_client();
  const oltp::LatencyRecorder& lat = client.latencies();
  result.p50_ms = lat.PercentileSeconds(0.50) * 1e3;
  result.p95_ms = lat.PercentileSeconds(0.95) * 1e3;
  result.p99_ms = lat.PercentileSeconds(0.99) * 1e3;
  result.slo_met = lat.PercentileSeconds(0.99) <= spec.slo_p99_s;
  result.oltp_completed = client.completed();
  result.latch_waits = experiment.oltp_engine().latch_waits();
  const double oltp_finish_s =
      simcore::Clock::ToSeconds(experiment.oltp_finished_tick());
  result.oltp_tps = static_cast<double>(result.oltp_completed) / oltp_finish_s;
  result.shed_events = client.shed_events();
  result.failed = client.failed();
  result.retries = client.retries();
  result.goodput_count = lat.CountWithinSeconds(spec.slo_p99_s);
  result.goodput_tps =
      static_cast<double>(result.goodput_count) / oltp_finish_s;
  // OLAP throughput over the tenant's *own* finish window, so a config
  // where OLAP finishes early is not diluted by the joint run length.
  result.olap_completed = experiment.olap_driver().completed();
  result.olap_finish_s =
      simcore::Clock::ToSeconds(experiment.olap_finished_tick());
  result.olap_qps =
      static_cast<double>(result.olap_completed) / result.olap_finish_s;
  if (experiment.arbiter() != nullptr) {
    result.handoffs = experiment.arbiter()->core_handoffs();
    result.preemptions = experiment.arbiter()->preemptions();
    result.starved_rounds = experiment.arbiter()->starved_rounds();
  }
  result.total_s =
      simcore::Clock::ToSeconds(experiment.machine().clock().now());
  return result;
}

void WriteResultJson(FILE* json, const ConfigResult& r, const char* indent,
                     bool last) {
  std::fprintf(
      json,
      "%s\"%s\": {\"deployment\": \"%s\", \"admission\": \"%s\",\n"
      "%s \"slo_p99_ms\": %.1f, \"burst_interval_ticks\": %lld,\n"
      "%s \"oltp\": {\"tps\": %.4f, \"p50_ms\": %.4f, \"p95_ms\": %.4f, "
      "\"p99_ms\": %.4f, \"slo_met\": %s, \"completed\": %lld, "
      "\"latch_waits\": %lld},\n"
      "%s \"admission_stats\": {\"shed_events\": %lld, \"failed\": %lld, "
      "\"retries\": %lld, \"goodput_count\": %lld, \"goodput_tps\": %.4f},\n"
      "%s \"olap\": {\"qps\": %.4f, \"completed\": %lld, "
      "\"finish_s\": %.4f},\n"
      "%s \"arbiter\": {\"core_handoffs\": %lld, \"preemptions\": %lld, "
      "\"starved_rounds\": %lld},\n"
      "%s \"total_s\": %.4f}%s\n",
      indent, r.spec.name.c_str(), r.spec.deployment.c_str(),
      r.spec.admission.c_str(), indent, r.spec.slo_p99_s * 1e3,
      static_cast<long long>(r.spec.burst_interval_ticks), indent, r.oltp_tps,
      r.p50_ms, r.p95_ms, r.p99_ms, r.slo_met ? "true" : "false",
      static_cast<long long>(r.oltp_completed),
      static_cast<long long>(r.latch_waits), indent,
      static_cast<long long>(r.shed_events), static_cast<long long>(r.failed),
      static_cast<long long>(r.retries),
      static_cast<long long>(r.goodput_count), r.goodput_tps, indent,
      r.olap_qps, static_cast<long long>(r.olap_completed), r.olap_finish_s,
      indent, static_cast<long long>(r.handoffs),
      static_cast<long long>(r.preemptions),
      static_cast<long long>(r.starved_rounds), indent, r.total_s,
      last ? "" : ",");
}

void PrintTable(const std::vector<ConfigResult>& results,
                const std::string& title) {
  metrics::Table table({"config", "adm", "slo ms", "burst", "p99 ms", "slo",
                        "good tps", "shed", "fail", "olap qps", "preempt"});
  for (const ConfigResult& r : results) {
    table.AddRow({r.spec.name, r.spec.admission,
                  metrics::Table::Num(r.spec.slo_p99_s * 1e3, 0),
                  std::to_string(r.spec.burst_interval_ticks),
                  metrics::Table::Num(r.p99_ms, 1), r.slo_met ? "met" : "MISS",
                  metrics::Table::Num(r.goodput_tps, 1),
                  std::to_string(r.shed_events), std::to_string(r.failed),
                  metrics::Table::Num(r.olap_qps, 2),
                  std::to_string(r.preemptions)});
  }
  table.Print(title);
}

/// Default mode: the four-deployment comparison at the baseline workload.
void MainCompare(const std::string& json_path) {
  std::vector<RunSpec> specs;
  for (const std::string& deployment :
       {"static", "fair_share", "slo_aware"}) {
    RunSpec spec;
    spec.name = deployment;
    spec.deployment = deployment;
    specs.push_back(spec);
  }
  RunSpec adaptive;
  adaptive.name = "slo_aware_adaptive";
  adaptive.deployment = "slo_aware";
  adaptive.admission = "adaptive";
  specs.push_back(adaptive);

  std::vector<ConfigResult> results;
  for (const RunSpec& spec : specs) {
    std::fprintf(stderr, "running config %s ...\n", spec.name.c_str());
    results.push_back(RunConfig(spec));
  }

  PrintTable(results, "HTAP co-location, p99 SLO " +
                          metrics::Table::Num(kSloP99Seconds * 1e3, 0) +
                          " ms");
  std::printf(
      "\nExpected shape: static and fair_share miss the OLTP p99 SLO during "
      "arrival bursts\n(fair_share cannot preempt the always-overloaded scan "
      "tenant); slo_aware holds the\nSLO while OLAP throughput stays within "
      "~15%% of fair_share; adaptive admission on\ntop trims the tail "
      "further at equal goodput.\n");

  double fair_share_qps = 0.0;
  for (const ConfigResult& r : results) {
    if (r.spec.name == "fair_share") fair_share_qps = r.olap_qps;
  }
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"htap_slo\",\n  \"mode\": \"compare\",\n"
               "  \"scale_factor\": %.4f,\n  \"slo_p99_ms\": %.1f,\n"
               "  \"configs\": {\n",
               kBenchScaleFactor, kSloP99Seconds * 1e3);
  for (size_t i = 0; i < results.size(); ++i) {
    WriteResultJson(json, results[i], "    ", i + 1 == results.size());
  }
  double slo_vs_fair = 0.0;
  for (const ConfigResult& r : results) {
    if (r.spec.name == "slo_aware" && fair_share_qps > 0.0) {
      slo_vs_fair = r.olap_qps / fair_share_qps;
    }
  }
  std::fprintf(json,
               "  },\n  \"olap_qps_slo_aware_vs_fair_share\": %.4f\n}\n",
               slo_vs_fair);
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
}

/// Sweep mode: slo_aware arbitration fixed, burst intensity x SLO target x
/// admission policy swept into the SLO/goodput frontier.
void MainSweep(const std::string& json_path) {
  const std::array<double, 2> slos = {0.060, 0.045};
  // Burst-time inter-arrival gaps: 1.5x, 3x and ~6x the base rate. The
  // last exceeds what max_cores can serve — the regime the admission layer
  // exists for.
  const std::array<int64_t, 3> burst_intervals = {2, 1, 0};
  const std::array<std::string, 3> admissions = {"none", "queue_depth",
                                                 "adaptive"};
  const auto intensity_label = [](int64_t interval) {
    return interval == 2 ? "1.5x" : interval == 1 ? "3x" : "6x";
  };

  std::vector<ConfigResult> results;
  for (double slo : slos) {
    for (int64_t interval : burst_intervals) {
      for (const std::string& admission : admissions) {
        RunSpec spec;
        spec.deployment = "slo_aware";
        spec.admission = admission;
        spec.slo_p99_s = slo;
        spec.burst_interval_ticks = interval;
        spec.name = "slo" + metrics::Table::Num(slo * 1e3, 0) + "_burst" +
                    intensity_label(interval) + "_" + admission;
        std::fprintf(stderr, "running sweep point %s ...\n",
                     spec.name.c_str());
        results.push_back(RunConfig(spec));
      }
    }
  }

  PrintTable(results,
             "HTAP SLO/goodput frontier (slo_aware arbitration, burst "
             "intensity x SLO x admission)");
  std::printf(
      "\nExpected shape: at the highest burst intensity, admitting "
      "everything (none)\nblows the p99 or starves goodput; adaptive "
      "admission sheds just enough to keep\nthe p99 under the SLO at "
      "strictly higher goodput. queue_depth sits between:\none fixed "
      "threshold cannot fit every (burst, SLO) point.\n");

  // The acceptance comparison the CI trajectory gate watches: at the
  // hardest sweep point of each SLO, adaptive must beat none on goodput
  // while meeting the SLO.
  bool adaptive_beats_none_at_peak = true;
  for (double slo : slos) {
    const ConfigResult* none = nullptr;
    const ConfigResult* adaptive = nullptr;
    for (const ConfigResult& r : results) {
      if (r.spec.slo_p99_s != slo ||
          r.spec.burst_interval_ticks != burst_intervals.back()) {
        continue;
      }
      if (r.spec.admission == "none") none = &r;
      if (r.spec.admission == "adaptive") adaptive = &r;
    }
    if (none == nullptr || adaptive == nullptr ||
        adaptive->goodput_count <= none->goodput_count ||
        !adaptive->slo_met) {
      adaptive_beats_none_at_peak = false;
    }
  }

  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"htap_slo\",\n  \"mode\": \"sweep\",\n"
               "  \"scale_factor\": %.4f,\n  \"sweep\": {\n",
               kBenchScaleFactor);
  for (size_t i = 0; i < results.size(); ++i) {
    WriteResultJson(json, results[i], "    ", i + 1 == results.size());
  }
  std::fprintf(json, "  },\n  \"adaptive_beats_none_at_peak\": %s\n}\n",
               adaptive_beats_none_at_peak ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
}

}  // namespace
}  // namespace elastic::bench

int main(int argc, char** argv) {
  bool sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep") == 0) sweep = true;
  }
  const std::string out = elastic::bench::JsonOutPath(
      argc, argv, sweep ? "BENCH_htap_slo_sweep.json" : "BENCH_htap_slo.json");
  if (sweep) {
    elastic::bench::MainSweep(out);
  } else {
    elastic::bench::MainCompare(out);
  }
  return 0;
}
