// The paper's Section V figures (Figs. 4-7, 13-20) and the mechanism
// ablation in one run, each configuration simulated once: Fig. 5 is
// Fig. 16's OS run, Fig. 14 is Fig. 13's 64-user point, Fig. 20 is Fig. 19's
// MonetDB OS/adaptive pair. Prints every figure's tables, then the paper's
// claims about them as verdicts (bench/paper_claims.h), and writes those to
// BENCH_paper_claims.json.
//
//   ./paper_claims [--out path]

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "bench/bench_common.h"
#include "bench/paper_claims.h"
#include "energy/energy_model.h"
#include "exec/raw_kernel.h"

namespace elastic::bench {
namespace {

// The paper drove 256 real clients against a DBMS whose internal contention
// kept CPU load inside the 10..70 band; the simulated engine has no software
// contention, so the comparison figures produce the same demand with fewer
// clients plus kBenchThinkTicks of think time.
constexpr int kBenchClients = 64;

/// The claims of every figure, each filed under the figure set last.
struct Claims {
  std::vector<Claim> all;
  std::string figure;
  void Add(std::string text, Rule rule, std::vector<double> cells,
           std::string paper = "direction only") {
    all.push_back({figure, std::move(text), rule, std::move(cells),
                   std::move(paper)});
  }
};

/// The four configurations every comparison figure uses, and their names
/// in the paper's legends.
const std::array<std::string, 4> kPolicies = {"os", "dense", "sparse",
                                              "adaptive"};
const std::array<std::string, 4> kLabels = {"OS/MonetDB", "Dense", "Sparse",
                                            "Adaptive"};

/// One configuration: a one-tenant experiment whose tenant's mode is the
/// policy, so "os" runs the OS baseline and the rest one elastic tenant.
struct Config {
  exec::ExperimentOptions options;
  exec::TenantSpec tenant;
};

/// Default configuration of a policy (MonetDB-style engine).
Config PolicyConfig(const std::string& policy) {
  Config config;
  config.options.monitor_period_ticks = 20;
  config.options.placement = exec::BasePlacement::kTableAffine;
  config.options.seed = kBenchSeed;
  config.tenant.name = "dbms";
  config.tenant.mode = policy;
  return config;
}

/// Adds the configuration's tenant with `workload` to `experiment`, runs it
/// to completion and returns its driver. Counter baselines are taken
/// before the call: the driver submits when it starts.
exec::ClientDriver& RunTenant(exec::Experiment& experiment,
                              exec::TenantSpec tenant,
                              const exec::ClientWorkload& workload,
                              int clients, int64_t max_ticks) {
  tenant.workload = workload;
  tenant.num_clients = clients;
  experiment.AddTenant(tenant);
  experiment.Start();
  experiment.RunUntilDone(max_ticks);
  return experiment.driver(0);
}

struct RunResult {
  double throughput_qps = 0.0;
  double mean_latency_s = 0.0;
  perf::WindowStats window;
};

/// Runs `rounds` queries per client over `trace` under a policy and returns
/// throughput plus the counter deltas of the run.
RunResult RunFixedWorkload(const Config& config, const db::PlanTrace& trace,
                           int clients, int rounds, int64_t think_ticks = 0,
                           int64_t ramp_ticks = 0) {
  exec::Experiment experiment(&BenchDb(), config.options);
  perf::Sampler sampler(&experiment.machine().counters(),
                        &experiment.machine().clock());
  exec::ClientWorkload workload;
  workload.traces = {&trace};
  workload.queries_per_client = rounds;
  workload.think_ticks = think_ticks;
  workload.ramp_ticks = ramp_ticks;
  const exec::ClientDriver& driver =
      RunTenant(experiment, config.tenant, workload, clients, 5'000'000);
  RunResult result;
  result.throughput_qps = driver.ThroughputQps();
  result.mean_latency_s = driver.MeanLatencySeconds();
  result.window = sampler.Sample();
  return result;
}

/// Per configuration (or C-kernel series), one value per sweep point.
using Series = std::array<std::vector<double>, 4>;

/// Prints a sweep: one row per point, one column per series.
void PrintSweep(const std::string& title, std::vector<std::string> header,
                const std::vector<std::string>& points, const Series& series,
                int decimals) {
  metrics::Table table(std::move(header));
  for (size_t i = 0; i < points.size(); ++i) {
    std::vector<std::string> row = {points[i]};
    for (const auto& s : series) row.push_back(metrics::Table::Num(s[i], decimals));
    table.AddRow(row);
  }
  table.Print(title);
}

// ---- Fig. 4: TPC-H Q6 under an increasing number of concurrent clients,
// for a hand-coded C kernel (Dense/C, Sparse/C, OS/C) and the DBMS under
// the OS (OS/MonetDB): (a) throughput, (b) minor faults/s, (c) HT MB/s.

const std::vector<std::string> kQ6Columns = {
    "lineitem.l_shipdate", "lineitem.l_discount", "lineitem.l_quantity",
    "lineitem.l_extendedprice"};

/// Runs `total` fused C-kernel queries with `users` in flight.
perf::WindowStats RunRawKernel(exec::RawAffinity affinity, int users,
                               int total) {
  ossim::MachineOptions machine_options;
  machine_options.seed = kBenchSeed;
  ossim::Machine machine(machine_options);
  exec::BaseCatalog catalog(&machine.page_table(), BenchDb(),
                            exec::BasePlacement::kAllOnNode0, 4096);
  exec::RawKernelOptions kernel;
  kernel.threads = 16;
  exec::RawKernelEngine engine(&machine, &catalog, kernel);
  perf::Sampler sampler(&machine.counters(), &machine.clock());

  int submitted = 0;
  std::function<void()> next = [&] {
    if (submitted < total) {
      submitted++;
      engine.Submit(kQ6Columns, 5, affinity, next);
    }
  };
  for (int i = 0; i < users && submitted < total; ++i) next();
  int64_t guard = 0;
  while (engine.completed_queries() < total && guard++ < 5'000'000) {
    machine.Step();
  }
  return sampler.Sample();
}

void Fig4(Claims* claims) {
  const int kTotal = 128;  // queries per data point
  std::array<Series, 3> panels;  // (a), (b), (c)
  const auto add = [&](size_t s, double throughput, const perf::WindowStats& w) {
    panels[0][s].push_back(throughput);
    panels[1][s].push_back(static_cast<double>(w.minor_faults()) / w.seconds());
    panels[2][s].push_back(w.HtBytesPerSecond() / 1e6);
  };
  std::vector<std::string> points;
  for (int users : {1, 4, 16, 64, 256}) {
    points.push_back(metrics::Table::Int(users));
    const exec::RawAffinity kAffinities[] = {exec::RawAffinity::kDense,
                                             exec::RawAffinity::kSparse,
                                             exec::RawAffinity::kOsDefault};
    for (size_t s = 0; s < 3; ++s) {
      const perf::WindowStats w = RunRawKernel(kAffinities[s], users, kTotal);
      add(s, kTotal / w.seconds(), w);
    }
    const RunResult monet = RunFixedWorkload(
        PolicyConfig("os"), QueryTrace(6), users, std::max(1, kTotal / users));
    add(3, monet.throughput_qps, monet.window);
  }
  const char* const kTitles[] = {"Fig 4(a) Q6 throughput (queries/s, simulated)",
                                 "Fig 4(b) minor page faults per second",
                                 "Fig 4(c) HT traffic (MB/s)"};
  for (size_t p = 0; p < 3; ++p) {
    PrintSweep(kTitles[p], {"users", "Dense/C", "Sparse/C", "OS/C", "OS/MonetDB"},
               points, panels[p], 1);
  }
  const Series& ht = panels[2];
  claims->figure = "Fig. 4";
  claims->Add("OS/MonetDB HT MB/s rises with users, 1 to 256", Rule::kRising,
              ht[3]);
  claims->Add("OS/C HT MB/s rises with users, 1 to 256", Rule::kRising, ht[2]);
  claims->Add("256 users: the DBMS moves more HT MB/s than the C kernel "
              "(OS/MonetDB, OS/C)",
              Rule::kFirstAbove, {ht[3][4], ht[2][4]}, "far more");
  claims->Add("256 users: dense affinity keeps the C kernel off HT (MB/s: "
              "Dense/C, Sparse/C, OS/C, OS/MonetDB)",
              Rule::kFirstBelow, {ht[0][4], ht[1][4], ht[2][4], ht[3][4]},
              "almost none");
}

// ---- Figs. 5 and 16: lifespan and core migration of the threads of a
// single-client Q6 stream, with the run trace on. Fig. 5 maps the OS run's
// threads; Fig. 16 compares the four configurations.

struct Q6Stream {
  /// Per worker thread, the (tick, core) at which it moved to each core.
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> residency;
  std::map<int, int64_t> node_slices;  // thread time slices per node
  int64_t slices = 0;
  int64_t steals = 0;
  int64_t balancer_moves = 0;
};

Q6Stream RunQ6Stream(const std::string& policy) {
  Config config = PolicyConfig(policy);
  config.options.scheduler.trace_placement = true;
  config.options.scheduler.trace_migrations = true;
  exec::Experiment experiment(&BenchDb(), config.options);

  exec::ClientWorkload workload;
  workload.traces = {&QueryTrace(6)};
  workload.queries_per_client = 4;  // a short Q6 stream, as in Section II-B-2
  RunTenant(experiment, config.tenant, workload, /*clients=*/1, 1'000'000);

  Q6Stream stream;
  for (const auto& event : experiment.machine().trace().EventsOfKind("run")) {
    auto& segments = stream.residency[event.a];
    if (segments.empty() || segments.back().second != event.b) {
      segments.push_back({event.tick, event.b});
    }
    stream.node_slices[experiment.machine().topology().NodeOfCore(
        static_cast<int>(event.b))]++;
    stream.slices++;
  }
  stream.steals = experiment.machine().counters().stolen_tasks;
  stream.balancer_moves = experiment.machine().counters().thread_migrations;
  return stream;
}

void Fig5(const Q6Stream& os, Claims* claims) {
  metrics::Table table({"thread", "migrations", "core timeline (tick:core ...)"});
  int64_t total_migrations = 0;
  for (const auto& [thread, segments] : os.residency) {
    std::string timeline;
    for (size_t i = 0; i < segments.size(); ++i) {
      if (i > 0) timeline += " ";
      timeline += std::to_string(segments[i].first) + ":" +
                  std::to_string(segments[i].second);
      if (i > 24) {
        timeline += " ...";
        break;
      }
    }
    const int64_t migrations = static_cast<int64_t>(segments.size()) - 1;
    total_migrations += migrations;
    table.AddRow({"T" + std::to_string(thread), metrics::Table::Int(migrations),
                  timeline});
  }
  table.Print("Fig 5: thread migration map, Q6 single client, OS/MonetDB (16 cores)");
  std::printf("\ntotal core changes: %lld; OS steals: %lld; balancer moves: %lld\n",
              static_cast<long long>(total_migrations),
              static_cast<long long>(os.steals),
              static_cast<long long>(os.balancer_moves));
  claims->figure = "Fig. 5";
  claims->Add("OS threads migrate several times per query (core changes, "
              "threads x queries)",
              Rule::kFirstAbove, {static_cast<double>(total_migrations),
                                  static_cast<double>(os.residency.size()) * 4});
}

void Fig16(const std::array<Q6Stream, 4>& streams, Claims* claims) {
  metrics::Table table({"mode", "core changes", "steals", "balancer moves",
                        "distinct cores used"});
  std::vector<double> changes, cores, home, away;  // per configuration
  for (size_t p = 0; p < kPolicies.size(); ++p) {
    const Q6Stream& stream = streams[p];
    int64_t core_changes = 0;
    std::set<int64_t> cores_used;
    for (const auto& [thread, segments] : stream.residency) {
      core_changes += static_cast<int64_t>(segments.size()) - 1;
      for (const auto& [tick, core] : segments) cores_used.insert(core);
    }
    table.AddRow({kLabels[p], metrics::Table::Int(core_changes),
                  metrics::Table::Int(stream.steals),
                  metrics::Table::Int(stream.balancer_moves),
                  metrics::Table::Int(static_cast<int64_t>(cores_used.size()))});
    int64_t home_slices = 0;
    for (const auto& [node, slices] : stream.node_slices) {
      home_slices = std::max(home_slices, slices);
    }
    changes.push_back(static_cast<double>(core_changes));
    cores.push_back(static_cast<double>(cores_used.size()));
    home.push_back(static_cast<double>(home_slices));
    away.push_back(static_cast<double>(stream.slices - home_slices));
  }
  table.Print("Fig 16: thread migration, Q6 single client, per configuration");
  claims->figure = "Fig. 16";
  claims->Add("the OS makes the most core changes (OS, dense, sparse, "
              "adaptive)", Rule::kFirstAbove, changes);
  claims->Add("the OS uses the most distinct cores (OS, dense, sparse, "
              "adaptive)", Rule::kFirstAbove, cores);
  for (size_t p : {1, 3}) {
    claims->Add(kLabels[p] +
                    " keeps most of its run on one node (slices: busiest "
                    "node, the others)",
                Rule::kFirstAbove, {home[p], away[p]});
  }
  claims->Add("sparse migrates between the OS and dense/adaptive (core "
              "changes: sparse, dense, adaptive)",
              Rule::kFirstAbove, {changes[2], changes[1], changes[3]});
}

// ---- Fig. 6: Tomograph-style view of the worker activity of one Q6
// execution: per MAL-style operator stage, the number of parallel calls and
// the execution window — mirroring "algebra.thetasubselect 16 calls: 1.006s".

void Fig6(Claims* claims) {
  // No tenant: a dedicated engine with the timing clock wired into its task
  // graphs runs on the experiment's machine and catalog.
  exec::Experiment experiment(&BenchDb(), PolicyConfig("os").options);
  exec::EngineOptions engine_options;
  engine_options.task_graph.clock = &experiment.machine().clock();
  exec::DbmsEngine engine(&experiment.machine(), &experiment.catalog(),
                          engine_options);

  std::vector<exec::TaskGraph::StageTiming> timings;
  bool done = false;
  engine.Submit(&QueryTrace(6), [&done] { done = true; }, &timings);
  int64_t guard = 0;
  while (!done && guard++ < 1'000'000) experiment.machine().Step();

  const db::PlanTrace& trace = QueryTrace(6);
  metrics::Table table({"stage", "operator", "calls", "window (ms)", "rows out"});
  double select_ms = 0, other_ms = 0, min_calls = 0;
  for (size_t s = 0; s < trace.stages.size(); ++s) {
    const auto& timing = timings[s];
    const double ms =
        simcore::Clock::ToSeconds(timing.finished - timing.started + 1) * 1e3;
    table.AddRow({metrics::Table::Int(static_cast<int64_t>(s)),
                  trace.stages[s].op, metrics::Table::Int(timing.tasks),
                  metrics::Table::Num(ms, 1),
                  metrics::Table::Int(trace.stages[s].rows_out)});
    (trace.stages[s].op == "select" ? select_ms : other_ms) += ms;
    if (s == 0 || timing.tasks < min_calls) min_calls = timing.tasks;
  }
  table.Print("Fig 6: tomograph of Q6 (single client), MAL-style stages");
  claims->figure = "Fig. 6";
  claims->Add("the selects dominate Q6 (ms: select stages, the rest)",
              Rule::kFirstAbove, {select_ms, other_ms});
  claims->Add("each operator runs as parallel calls (fewest calls of a "
              "stage, 1)", Rule::kFirstAbove, {min_calls, 1.0});
}

// ---- Fig. 7: state transitions of a TPC-H Q6 stream and the elastic
// allocation of cores over time: fired transition labels, CPU usage (%)
// and allocated cores.

void Fig7(Claims* claims) {
  Config config = PolicyConfig("adaptive");
  config.options.monitor_period_ticks = 10;
  exec::Experiment experiment(&BenchDb(), config.options);

  exec::ClientWorkload workload;
  workload.traces = {&QueryTrace(6)};
  workload.queries_per_client = 6;
  workload.think_ticks = 120;  // gaps let the Idle sub-net fire, as in Fig 7
  RunTenant(experiment, config.tenant, workload, /*clients=*/8, 1'000'000);
  experiment.machine().RunFor(100);  // drain: release back towards the floor

  const core::CoreArbiter& arbiter = experiment.arbiter();
  const std::vector<core::ArbiterRound>& log = arbiter.log();
  metrics::Table table({"tick", "transition", "cpu %", "cores"});
  std::map<core::PerfState, int> rounds;
  double peak = 0;
  for (const core::ArbiterRound& round : log) {
    const core::TenantRound& tenant = round.tenants[0];
    table.AddRow({metrics::Table::Int(round.tick), tenant.decision.label,
                  metrics::Table::Num(tenant.decision.u, 1),
                  metrics::Table::Int(tenant.granted)});
    rounds[tenant.decision.state]++;
    peak = std::max(peak, static_cast<double>(tenant.granted));
  }
  table.Print("Fig 7: PrT state transitions and core allocation over a Q6 stream");
  std::printf("\nrounds: idle=%d stable=%d overload=%d; final cores=%d\n",
              rounds[core::PerfState::kIdle], rounds[core::PerfState::kStable],
              rounds[core::PerfState::kOverload], arbiter.nalloc(0));
  claims->figure = "Fig. 7";
  claims->Add("cores grow under load and fall after it (cores: peak, first, "
              "last round)",
              Rule::kFirstAbove,
              {peak, log.empty() ? 0.0 : log.front().tenants[0].granted,
               log.empty() ? 0.0 : log.back().tenants[0].granted});
}

// ---- Figs. 13 and 14: concurrent clients running the thetasubselect
// operator. Fig. 13 sweeps the client count: (a) throughput, (b) CPU load,
// (c) tasks, (d) stolen tasks. Fig. 14 is the sweep's kBenchClients point
// (4 rounds): (a) L3 load misses per socket, (b) memory throughput per
// socket, (c) HT traffic.

/// Runs the Fig. 13 sweep and returns each policy's kBenchClients point.
std::array<RunResult, 4> Fig13(const db::PlanTrace& theta, Claims* claims) {
  const int kTotal = 256;
  std::array<Series, 4> panels;  // (a)-(d)
  std::array<RunResult, 4> at_bench_clients;
  std::vector<double> stolen(4, 0.0);  // over the sweep
  std::vector<std::string> points;
  for (size_t p = 0; p < kPolicies.size(); ++p) {
    for (int users : {1, 4, 16, 64, 256}) {
      if (p == 0) points.push_back(metrics::Table::Int(users));
      const RunResult run = RunFixedWorkload(
          PolicyConfig(kPolicies[p]), theta, users,
          std::max(1, kTotal / users), kBenchThinkTicks, kBenchRampTicks);
      panels[0][p].push_back(run.throughput_qps);
      panels[1][p].push_back(run.window.CpuLoadPercent(
          platform::CpuMask::FirstN(16), static_cast<int64_t>(2.8e6)));
      panels[2][p].push_back(
          static_cast<double>(run.window.tasks_spawned()) / 1e3);
      panels[3][p].push_back(
          static_cast<double>(run.window.stolen_tasks()) / 1e2);
      stolen[p] += static_cast<double>(run.window.stolen_tasks());
      if (users == kBenchClients) at_bench_clients[p] = run;
    }
  }
  const char* const kTitles[] = {
      "Fig 13(a) throughput (queries/s)", "Fig 13(b) machine CPU load (%)",
      "Fig 13(c) tasks (10^3)", "Fig 13(d) stolen tasks (10^2)"};
  for (size_t p = 0; p < 4; ++p) {
    PrintSweep(kTitles[p], {"users", "OS/MonetDB", "Dense", "Sparse", "Adaptive"},
               points, panels[p], 2);
  }
  const auto qps = [&](size_t p) { return panels[0][p].back(); };
  claims->figure = "Fig. 13";
  claims->Add("256 users: adaptive q/s above the OS (adaptive, OS)",
              Rule::kFirstAbove, {qps(3), qps(0)}, "~25% above the OS");
  claims->Add("256 users: adaptive q/s above dense and sparse (adaptive, "
              "dense, sparse)",
              Rule::kFirstAbove, {qps(3), qps(1), qps(2)}, "best of the four");
  claims->Add("the OS steals the most tasks over the sweep (OS, dense, "
              "sparse, adaptive)", Rule::kFirstAbove, stolen);
  return at_bench_clients;
}

void Fig14(const std::array<RunResult, 4>& runs, Claims* claims) {
  metrics::Table misses({"mode", "S0", "S1", "S2", "S3", "total (10^6)"});
  metrics::Table throughput({"mode", "S0 GB/s", "S1 GB/s", "S2 GB/s", "S3 GB/s"});
  metrics::Table ht({"mode", "HT traffic GB/s"});
  // Per configuration: total misses (10^6), HT GB/s, summed socket GB/s.
  std::vector<double> total_misses, ht_gb_s, imc_gb_s(4, 0.0);
  std::vector<double> dense_sockets;  // GB/s
  for (size_t p = 0; p < kPolicies.size(); ++p) {
    const perf::WindowStats& window = runs[p].window;
    std::vector<std::string> miss_row = {kLabels[p]};
    std::vector<std::string> tp_row = {kLabels[p]};
    for (int node = 0; node < 4; ++node) {
      miss_row.push_back(metrics::Table::Num(
          static_cast<double>(window.l3_misses(node)) / 1e6, 3));
      const double gb_s = window.ImcBytesPerSecond(node) / 1e9;
      tp_row.push_back(metrics::Table::Num(gb_s, 3));
      imc_gb_s[p] += gb_s;
      if (kPolicies[p] == "dense") dense_sockets.push_back(gb_s);
    }
    total_misses.push_back(static_cast<double>(window.TotalL3Misses()) / 1e6);
    miss_row.push_back(metrics::Table::Num(total_misses[p], 3));
    misses.AddRow(miss_row);
    throughput.AddRow(tp_row);
    ht_gb_s.push_back(window.HtBytesPerSecond() / 1e9);
    ht.AddRow({kLabels[p], metrics::Table::Num(ht_gb_s[p], 3)});
  }

  misses.Print("Fig 14(a) L3 load misses per socket (10^6), concurrent thetasubselect");
  throughput.Print("Fig 14(b) memory throughput per socket (GB/s)");
  ht.Print("Fig 14(c) HT traffic (GB/s)");
  const std::vector<double>& m = total_misses;
  const std::vector<double>& h = ht_gb_s;
  const std::vector<double>& d = dense_sockets;
  claims->figure = "Fig. 14";
  claims->Add("the OS has the most L3 misses (OS, dense, sparse, adaptive)",
              Rule::kFirstAbove, m);
  claims->Add("adaptive has fewer L3 misses than the OS (adaptive, OS)",
              Rule::kFirstBelow, {m[3], m[0]}, "43% fewer");
  claims->Add("the OS has the most HT GB/s (OS, dense, sparse, adaptive)",
              Rule::kFirstAbove, h);
  claims->Add("adaptive has the least HT GB/s (adaptive, OS, dense, sparse)",
              Rule::kFirstBelow, {h[3], h[0], h[1], h[2]});
  claims->Add("sparse moves more HT GB/s than dense and adaptive (sparse, "
              "dense, adaptive)", Rule::kFirstAbove, {h[2], h[1], h[3]});
  claims->Add("adaptive uses more aggregate bandwidth (summed socket GB/s: "
              "adaptive, OS)", Rule::kFirstAbove, {imc_gb_s[3], imc_gb_s[0]});
  claims->Add("dense leaves the last socket underused (dense GB/s: S3, S0, "
              "S1, S2)", Rule::kFirstBelow, {d[3], d[0], d[1], d[2]});
}

// ---- Fig. 15: L3 load misses at different selectivities of the
// thetasubselect column scan, kBenchClients concurrent clients.

void Fig15(Claims* claims) {
  std::vector<db::PlanTrace> traces;
  std::vector<std::string> points;
  for (double sel : {0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.00}) {
    traces.push_back(db::RunThetaSubselect(BenchDb(), sel).trace);
    points.push_back(metrics::Table::Num(sel * 100.0, 0) + "%");
  }
  Series misses;  // 10^6
  for (size_t p = 0; p < kPolicies.size(); ++p) {
    for (const db::PlanTrace& trace : traces) {
      const RunResult run =
          RunFixedWorkload(PolicyConfig(kPolicies[p]), trace, kBenchClients,
                           2, kBenchThinkTicks, kBenchRampTicks);
      misses[p].push_back(static_cast<double>(run.window.TotalL3Misses()) / 1e6);
    }
  }
  PrintSweep("Fig 15: L3 load misses (10^6) vs selectivity, concurrent clients",
             {"selectivity", "OS/MonetDB", "Dense", "Sparse", "Adaptive"},
             points, misses, 3);
  claims->figure = "Fig. 15";
  for (size_t p = 0; p < kPolicies.size(); ++p) {
    claims->Add(kLabels[p] +
                    " L3 misses grow with selectivity, 2% to 100%",
                Rule::kRising, misses[p]);
  }
  const std::vector<double>& os = misses[0];
  std::vector<double> rises = {os[6] - os[5]};
  for (size_t i = 0; i + 2 < os.size(); ++i) rises.push_back(os[i + 1] - os[i]);
  claims->Add("the OS curve spikes past 64% (rise 64-100%, then each "
              "earlier rise)", Rule::kFirstAbove, rises);
  for (size_t i = 0; i < points.size(); ++i) {
    claims->Add("all modes below the OS at " + points[i] +
                    " (OS, dense, sparse, adaptive)",
                Rule::kFirstAbove,
                {misses[0][i], misses[1][i], misses[2][i], misses[3][i]});
  }
}

// ---- Fig. 17: the PrT driven by CPU load versus by the HT/IMC traffic
// ratio, single-client Q6: response time, HT traffic, L3 misses.

void Fig17(Claims* claims) {
  metrics::Table table({"mode", "strategy", "response time (s)", "HT MB/s",
                        "L3 misses (10^6)"});
  const auto add_row = [&table](const std::string& mode,
                                const std::string& strategy,
                                const RunResult& run) {
    table.AddRow(
        {mode, strategy, metrics::Table::Num(run.mean_latency_s, 4),
         metrics::Table::Num(run.window.HtBytesPerSecond() / 1e6, 2),
         metrics::Table::Num(
             static_cast<double>(run.window.TotalL3Misses()) / 1e6, 3)});
  };
  // Adaptive under the CPU-load and HT/IMC strategies.
  std::vector<RunResult> adaptive;
  for (size_t p = 1; p < kPolicies.size(); ++p) {
    for (const auto& [name, strategy] :
         std::vector<std::pair<std::string, core::TransitionStrategy>>{
             {"CPU load", core::TransitionStrategy::kCpuLoad},
             {"HT/IMC", core::TransitionStrategy::kHtImcRatio}}) {
      Config config = PolicyConfig(kPolicies[p]);
      config.tenant.mechanism = core::DefaultConfigFor(strategy);
      const RunResult run =
          RunFixedWorkload(config, QueryTrace(6), /*clients=*/1, /*rounds=*/6);
      add_row(kLabels[p], name, run);
      if (kPolicies[p] == "adaptive") adaptive.push_back(run);
    }
  }
  // The baseline has no strategy.
  const RunResult os = RunFixedWorkload(PolicyConfig("os"), QueryTrace(6), 1, 6);
  add_row(kLabels[0], "-", os);
  table.Print("Fig 17: CPU-load vs HT/IMC transition strategies, Q6 single client");
  const auto misses = [](const RunResult& r) {
    return static_cast<double>(r.window.TotalL3Misses());
  };
  const auto ht_mb_s = [](const RunResult& r) {
    return r.window.HtBytesPerSecond() / 1e6;
  };
  claims->figure = "Fig. 17";
  claims->Add("adaptive responds faster than the OS (s: adaptive, OS)",
              Rule::kFirstBelow,
              {adaptive[0].mean_latency_s, os.mean_latency_s}, "~27% faster");
  claims->Add("adaptive sends less HT MB/s than the OS (adaptive, OS)",
              Rule::kFirstBelow, {ht_mb_s(adaptive[0]), ht_mb_s(os)});
  claims->Add("HT/IMC reacts more slowly than CPU load (adaptive s: HT/IMC, "
              "CPU load)", Rule::kFirstAbove,
              {adaptive[1].mean_latency_s, adaptive[0].mean_latency_s});
  claims->Add("HT/IMC loses more L3 contents than CPU load (adaptive misses: "
              "HT/IMC, CPU load)", Rule::kFirstAbove,
              {misses(adaptive[1]), misses(adaptive[0])});
}

// ---- Fig. 18: stable-phases workload — each phase runs one of the 22
// TPC-H queries with all clients concurrently; per-socket memory throughput
// over time for MonetDB and SQL Server style engines, with and without the
// mechanism.

using SocketRow = std::array<double, 4>;  // GB/s per socket

int Busiest(const SocketRow& row) {
  return static_cast<int>(std::max_element(row.begin(), row.end()) -
                          row.begin());
}

struct Timeline {
  std::vector<double> time_s;
  std::vector<SocketRow> sockets;
  double total_s = 0.0;
  SocketRow traffic{};    // GB/s summed over the samples
  double switches = 0.0;  // samples whose busiest socket changed
};

Timeline RunTimeline(const std::string& policy, exec::ThreadModel model) {
  Config config = PolicyConfig(policy);
  config.tenant.engine_model = model;
  exec::Experiment experiment(&BenchDb(), config.options);

  Timeline timeline;
  auto sampler = std::make_shared<perf::Sampler>(
      &experiment.machine().counters(), &experiment.machine().clock());
  experiment.machine().AddTickHook([&timeline, sampler](simcore::Tick now) {
    if (now == 0 || now % 100 != 0) return;
    const perf::WindowStats window = sampler->Sample();
    SocketRow row;
    for (int node = 0; node < 4; ++node) {
      row[node] = window.ImcBytesPerSecond(node) / 1e9;
    }
    for (int node = 0; node < 4; ++node) timeline.traffic[node] += row[node];
    if (!timeline.sockets.empty() &&
        Busiest(row) != Busiest(timeline.sockets.back())) {
      timeline.switches++;
    }
    timeline.time_s.push_back(simcore::Clock::ToSeconds(now));
    timeline.sockets.push_back(row);
  });

  exec::ClientWorkload workload;
  workload.mode = exec::WorkloadMode::kPhases;
  for (int q = 1; q <= 22; ++q) workload.traces.push_back(&QueryTrace(q));
  RunTenant(experiment, config.tenant, workload, /*clients=*/48, 5'000'000);
  timeline.total_s =
      simcore::Clock::ToSeconds(experiment.machine().clock().now());
  return timeline;
}

void PrintTimeline(const std::string& title, const Timeline& timeline) {
  metrics::Table table({"time (s)", "S0 GB/s", "S1 GB/s", "S2 GB/s", "S3 GB/s"});
  // Every sample up to 47, then every n-th: 24 to 47 rows.
  const size_t step = std::max<size_t>(1, timeline.sockets.size() / 24);
  for (size_t i = 0; i < timeline.sockets.size(); i += step) {
    const SocketRow& row = timeline.sockets[i];
    table.AddRow({metrics::Table::Num(timeline.time_s[i], 2),
                  metrics::Table::Num(row[0], 2), metrics::Table::Num(row[1], 2),
                  metrics::Table::Num(row[2], 2),
                  metrics::Table::Num(row[3], 2)});
  }
  table.Print(title + "  [total " + metrics::Table::Num(timeline.total_s, 2) +
              " s]");
}

void Fig18(Claims* claims) {
  const std::array<std::pair<const char*, exec::ThreadModel>, 2> engines = {{
      {"MonetDB", exec::ThreadModel::kOsScheduled},
      {"SQL Server", exec::ThreadModel::kNumaPinned},
  }};
  char panel = 'a';
  std::vector<double> os_share, switches;
  claims->figure = "Fig. 18";
  for (size_t e = 0; e < engines.size(); ++e) {
    const auto& [engine, model] = engines[e];
    const Timeline os = RunTimeline("os", model);
    PrintTimeline(std::string("Fig 18(") + panel++ + ") OS/" + engine +
                      " per-socket memory throughput",
                  os);
    const Timeline adaptive = RunTimeline("adaptive", model);
    PrintTimeline(std::string("Fig 18(") + panel++ + ") Adaptive/" + engine +
                      " per-socket memory throughput",
                  adaptive);
    claims->Add(std::string("adaptive finishes sooner than the OS, ") + engine +
                    " (s: adaptive, OS)",
                Rule::kFirstBelow, {adaptive.total_s, os.total_s},
                e == 0 ? "41% faster" : "shorter");
    const SocketRow& t = os.traffic;
    os_share.push_back(t[Busiest(t)] / (t[0] + t[1] + t[2] + t[3]));
    if (e == 0) switches = {adaptive.switches, os.switches};
  }
  claims->Add("MonetDB hammers one socket, the NUMA-aware engine spreads "
              "(OS runs' busiest-socket share: MonetDB, SQL Server)",
              Rule::kFirstAbove, os_share);
  claims->Add("adaptive shifts sockets as phases change (busiest-socket "
              "changes, MonetDB: adaptive, OS)", Rule::kFirstAbove, switches);
}

// ---- Figs. 19 and 20: mixed-phases workload — concurrent clients
// continuously running random TPC-H queries. Fig. 19: per query class the
// HT/IMC traffic ratio for all four configurations and the adaptive-vs-OS
// speedup, for both engine models. Fig. 20: estimated CPU + HyperTransport
// energy per query of the MonetDB OS and adaptive runs (the ACP and
// energy-per-bit methodology of Section V-C-3).

struct MixedRun {
  std::array<double, 22> ratio{};         // HT/IMC per query class
  std::array<double, 22> mean_latency{};  // seconds per query class
  std::array<energy::EnergyModel::Split, 22> energy{};
};

MixedRun RunMixed(const std::string& policy, exec::ThreadModel model) {
  Config config = PolicyConfig(policy);
  config.tenant.engine_model = model;
  exec::Experiment experiment(&BenchDb(), config.options);

  exec::ClientWorkload workload;
  workload.mode = exec::WorkloadMode::kRandomMix;
  for (int q = 1; q <= 22; ++q) workload.traces.push_back(&QueryTrace(q));
  workload.queries_per_client = 2;
  workload.think_ticks = kBenchThinkTicks;
  workload.ramp_ticks = kBenchRampTicks;
  const exec::ClientDriver& driver =
      RunTenant(experiment, config.tenant, workload, /*clients=*/96, 5'000'000);

  const energy::EnergyModel energy_model;
  MixedRun run;
  const perf::CounterSet& counters = experiment.machine().counters();
  for (int q = 0; q < 22; ++q) {
    const size_t k = static_cast<size_t>(q);
    const int64_t imc = counters.stream_imc_bytes[k];
    run.ratio[k] = imc > 0 ? static_cast<double>(counters.stream_ht_bytes[k]) /
                                 static_cast<double>(imc)
                           : 0.0;
    run.mean_latency[k] = driver.MeanLatencySeconds(q);
    run.energy[k] = energy_model.ForStream(
        counters, q, experiment.machine().topology().config());
  }
  return run;
}

/// Prints one engine's Fig. 19 table and returns its {os, adaptive} runs.
std::array<MixedRun, 2> Fig19(const std::string& engine_name,
                              exec::ThreadModel model, Claims* claims) {
  const MixedRun os = RunMixed("os", model);
  const MixedRun dense = RunMixed("dense", model);
  const MixedRun sparse = RunMixed("sparse", model);
  const MixedRun adaptive = RunMixed("adaptive", model);

  metrics::Table table({"query", "speedup(adaptive)", "ratio OS", "ratio dense",
                        "ratio sparse", "ratio adaptive"});
  double geo = 0.0;
  double max_speedup = 0.0;
  int counted = 0;
  // Log-speedup sums and counts of Q8, Q9, Q19, Q22 [0] and the rest [1].
  std::array<double, 2> group_log{};
  std::array<int, 2> group_count{};
  double ratio_drop = 0.0;  // the largest OS/adaptive HT/IMC ratio
  for (int q = 0; q < 22; ++q) {
    const size_t k = static_cast<size_t>(q);
    const double speedup = adaptive.mean_latency[k] > 0
                               ? os.mean_latency[k] / adaptive.mean_latency[k]
                               : 0.0;
    if (speedup > 0) {
      geo += std::log(speedup);
      counted++;
      max_speedup = std::max(max_speedup, speedup);
      const int group = (q == 7 || q == 8 || q == 18 || q == 21) ? 0 : 1;
      group_log[group] += std::log(speedup);
      group_count[group]++;
    }
    if (adaptive.ratio[k] > 0) {
      ratio_drop = std::max(ratio_drop, os.ratio[k] / adaptive.ratio[k]);
    }
    table.AddRow({db::TpchQueryName(q + 1), metrics::Table::Num(speedup, 2),
                  metrics::Table::Num(os.ratio[k], 3),
                  metrics::Table::Num(dense.ratio[k], 3),
                  metrics::Table::Num(sparse.ratio[k], 3),
                  metrics::Table::Num(adaptive.ratio[k], 3)});
  }
  table.Print("Fig 19 (" + engine_name +
              "): per-query adaptive speedup and HT/IMC ratios, mixed workload");
  const double geo_mean = counted > 0 ? std::exp(geo / counted) : 0.0;
  std::printf("geo-mean speedup %.2fx, max %.2fx\n", geo_mean, max_speedup);
  const bool monet = engine_name == "MonetDB";
  const std::string engine = ", " + engine_name;
  const auto group_geo = [&](int g) {
    return group_count[g] > 0 ? std::exp(group_log[g] / group_count[g]) : 0.0;
  };
  claims->figure = "Fig. 19";
  claims->Add("geo-mean adaptive speedup above 1x" + engine, Rule::kFirstAbove,
              {geo_mean, 1.0},
              monet ? "1.29x, up to 1.53x" : "1.14x, up to 1.27x");
  claims->Add("adaptive lowers the HT/IMC ratio (largest OS/adaptive ratio, "
              "1)" + engine, Rule::kFirstAbove, {ratio_drop, 1.0}, "up to ~4x");
  claims->Add("Q8, Q9, Q19, Q22 gain the most (speedup geo-mean: those, the "
              "rest)" + engine, Rule::kFirstAbove, {group_geo(0), group_geo(1)});
  return {os, adaptive};
}

void Fig20(const MixedRun& os, const MixedRun& adaptive, Claims* claims) {
  metrics::Table table({"query", "OS cpu J", "OS ht J", "Adaptive cpu J",
                        "Adaptive ht J", "saving %"});
  double os_total = 0.0;
  double adaptive_total = 0.0;
  double cpu_geo = 0.0, ht_geo = 0.0;
  int counted = 0;
  for (int q = 0; q < 22; ++q) {
    const size_t k = static_cast<size_t>(q);
    const auto& o = os.energy[k];
    const auto& a = adaptive.energy[k];
    os_total += o.total();
    adaptive_total += a.total();
    const double saving =
        o.total() > 0 ? 100.0 * (1.0 - a.total() / o.total()) : 0.0;
    if (o.cpu_joules > 0 && a.cpu_joules > 0) {
      cpu_geo += std::log(o.cpu_joules / a.cpu_joules);
      if (o.ht_joules > 0 && a.ht_joules > 0) {
        ht_geo += std::log(o.ht_joules / a.ht_joules);
      }
      counted++;
    }
    table.AddRow({db::TpchQueryName(q + 1),
                  metrics::Table::Num(o.cpu_joules, 2),
                  metrics::Table::Num(o.ht_joules, 2),
                  metrics::Table::Num(a.cpu_joules, 2),
                  metrics::Table::Num(a.ht_joules, 2),
                  metrics::Table::Num(saving, 1)});
  }
  table.Print("Fig 20: per-query energy (J), OS scheduler vs adaptive");
  std::printf("total energy: OS %.1f J, adaptive %.1f J -> saving %.2f%%\n",
              os_total, adaptive_total,
              os_total > 0 ? 100.0 * (1.0 - adaptive_total / os_total) : 0.0);
  if (counted > 0) {
    std::printf("geo-mean per-query savings: CPU %.1f%%, HT %.1f%%\n",
                100.0 * (1.0 - std::exp(-cpu_geo / counted)),
                100.0 * (1.0 - std::exp(-ht_geo / counted)));
  }
  claims->figure = "Fig. 20";
  claims->Add("adaptive saves total energy (J: adaptive, OS)",
              Rule::kFirstBelow, {adaptive_total, os_total}, "26.05% saving");
  // Geo-mean OS/adaptive J ratios; above 1 is a saving.
  const auto ratio = [&](double log_sum) {
    return counted > 0 ? std::exp(log_sum / counted) : 0.0;
  };
  claims->Add("adaptive saves CPU energy per query (geo-mean OS/adaptive J, "
              "1)", Rule::kFirstAbove, {ratio(cpu_geo), 1.0},
              "22.93% geo-mean saving");
  claims->Add("adaptive saves HT energy per query (geo-mean OS/adaptive J, 1)",
              Rule::kFirstAbove, {ratio(ht_geo), 1.0}, "63.20% geo-mean saving");
}

// ---- Ablation of the mechanism's knobs on a Q6 stream under the adaptive
// mode: (1) the monitoring period — reaction speed vs overhead; (2) the
// CPU-load thresholds, which the paper fixes at 10/70 "by rules of thumb".

struct AblationResult {
  double throughput = 0.0;
  double mean_cores = 0.0;
  double ht_gb = 0.0;
};

AblationResult RunAblation(double thmin, double thmax, int period) {
  Config config = PolicyConfig("adaptive");
  config.options.monitor_period_ticks = period;
  config.tenant.mechanism.thmin = thmin;
  config.tenant.mechanism.thmax = thmax;
  exec::Experiment experiment(&BenchDb(), config.options);
  exec::ClientWorkload workload;
  workload.traces = {&QueryTrace(6)};
  workload.queries_per_client = 3;
  workload.think_ticks = 40;
  const exec::ClientDriver& driver =
      RunTenant(experiment, config.tenant, workload, 64, 5'000'000);

  AblationResult result;
  result.throughput = driver.ThroughputQps();
  const std::vector<core::ArbiterRound>& log = experiment.arbiter().log();
  double cores = 0.0;
  for (const core::ArbiterRound& round : log) cores += round.tenants[0].granted;
  result.mean_cores =
      log.empty() ? 0.0 : cores / static_cast<double>(log.size());
  result.ht_gb =
      static_cast<double>(experiment.machine().counters().ht_bytes_total) / 1e9;
  return result;
}

void Ablation(Claims* claims) {
  const auto row = [](std::string label, const AblationResult& r) {
    return std::vector<std::string>{std::move(label),
                                    metrics::Table::Num(r.throughput, 1),
                                    metrics::Table::Num(r.mean_cores, 2),
                                    metrics::Table::Num(r.ht_gb, 3)};
  };
  // The paper's token flow takes 17-31 ms; the period bounds how fast LONC
  // reacts.
  metrics::Table period_table(
      {"monitor period (ticks)", "throughput q/s", "mean cores", "HT GB"});
  std::vector<AblationResult> by_period;  // 2, 5, 10, 20, 50 ticks
  for (int period : {2, 5, 10, 20, 50}) {
    by_period.push_back(RunAblation(10, 70, period));
    period_table.AddRow(row(metrics::Table::Int(period), by_period.back()));
  }
  period_table.Print("Ablation: monitoring period (adaptive, Q6, 64 clients)");

  metrics::Table th_table(
      {"thmin/thmax", "throughput q/s", "mean cores", "HT GB"});
  for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
           {5, 50}, {10, 70}, {20, 85}, {30, 95}}) {
    const AblationResult r =
        lo == 10 && hi == 70 ? by_period[1] : RunAblation(lo, hi, 5);
    th_table.AddRow(row(
        metrics::Table::Num(lo, 0) + "/" + metrics::Table::Num(hi, 0), r));
  }
  th_table.Print("Ablation: CPU-load thresholds (adaptive, Q6, 64 clients)");
  // This expected shape is the repository's own, not the paper's.
  const auto qps = [&](size_t i) { return by_period[i].throughput; };
  const auto cores = [&](size_t i) { return by_period[i].mean_cores; };
  claims->figure = "Ablation";
  claims->Add("a mid-range period gives the best q/s (best of 5-20 ticks, 2, "
              "50 ticks)", Rule::kFirstAbove,
              {std::max({qps(1), qps(2), qps(3)}), qps(0), qps(4)},
              "not in the paper");
  claims->Add("a 50-tick period under-provisions (mean cores at 50, 2, 5, 10, "
              "20 ticks)", Rule::kFirstBelow,
              {cores(4), cores(0), cores(1), cores(2), cores(3)},
              "not in the paper");
}

std::string JoinCells(const std::vector<double>& cells) {
  std::string joined;
  char buffer[32];
  for (double v : cells) {
    std::snprintf(buffer, sizeof(buffer), "%.6g", v);
    joined += (joined.empty() ? "" : ", ") + std::string(buffer);
  }
  return joined;
}

void WriteClaims(const std::vector<Claim>& claims, const std::string& path) {
  int holding = 0;
  for (const Claim& claim : claims) holding += Holds(claim) ? 1 : 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  ELASTIC_CHECK(f != nullptr, "cannot open bench output file");
  std::fprintf(f,
               "{\n  \"bench\": \"paper_claims\",\n"
               "  \"scale_factor\": %.2f,\n  \"claims\": {\n",
               kBenchScaleFactor);
  for (size_t i = 0; i < claims.size(); ++i) {
    const Claim& claim = claims[i];
    std::fprintf(f,
                 "    \"%s: %s\": {\"figure\": \"%s\", \"rule\": \"%s\", "
                 "\"measured\": [%s], \"paper\": \"%s\", \"holds\": %s}%s\n",
                 claim.figure.c_str(), claim.text.c_str(), claim.figure.c_str(),
                 RuleName(claim.rule), JoinCells(claim.cells).c_str(),
                 claim.paper.c_str(), Holds(claim) ? "true" : "false",
                 i + 1 < claims.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"claims_holding\": %d,\n  \"claims_total\": %zu\n}\n",
               holding, claims.size());
  std::fclose(f);
  std::printf("\n%d of %zu paper claims hold; wrote %s\n", holding,
              claims.size(), path.c_str());
}

void Main(const std::string& out) {
  Claims claims;
  Fig4(&claims);
  std::array<Q6Stream, 4> q6_streams;
  for (size_t p = 0; p < kPolicies.size(); ++p) {
    q6_streams[p] = RunQ6Stream(kPolicies[p]);
  }
  Fig5(q6_streams[0], &claims);
  Fig6(&claims);
  Fig7(&claims);
  // The thetasubselect at the paper's ~45% selectivity.
  Fig14(Fig13(db::RunThetaSubselect(BenchDb(), 0.45).trace, &claims), &claims);
  Fig15(&claims);
  Fig16(q6_streams, &claims);
  Fig17(&claims);
  Fig18(&claims);
  const std::array<MixedRun, 2> monet =
      Fig19("MonetDB", exec::ThreadModel::kOsScheduled, &claims);
  Fig19("SQL Server", exec::ThreadModel::kNumaPinned, &claims);
  Fig20(monet[0], monet[1], &claims);
  Ablation(&claims);
  WriteClaims(claims.all, out);
}

}  // namespace
}  // namespace elastic::bench

int main(int argc, char** argv) {
  elastic::bench::Main(
      elastic::bench::JsonOutPath(argc, argv, "BENCH_paper_claims.json"));
  return 0;
}
