// Domain scenario: a concurrent TPC-H ad-hoc analytics service.
// Compares the four configurations of the paper (OS baseline, dense,
// sparse, adaptive) on a mixed 22-query workload and prints a summary —
// the kind of evaluation a DBA would run before enabling the mechanism.
//
//   $ ./examples/elastic_tpch [clients] [rounds]

#include <cstdio>
#include <cstdlib>
#include <map>

#include "db/queries.h"
#include "exec/experiment.h"
#include "metrics/table.h"
#include "perf/sampler.h"
#include "tpch/dbgen.h"

int main(int argc, char** argv) {
  using namespace elastic;
  const int clients = argc > 1 ? std::atoi(argv[1]) : 64;
  const int rounds = argc > 2 ? std::atoi(argv[2]) : 2;

  tpch::DbgenOptions dbgen;
  dbgen.scale_factor = 0.03;
  const db::Database database = tpch::Generate(dbgen);

  // Functional pass: real results and plan traces for all 22 queries.
  std::map<int, db::PlanTrace> traces;
  for (int q = 1; q <= 22; ++q) {
    traces.emplace(q, db::RunTpchQuery(database, q).trace);
  }
  std::printf("TPC-H SF %.2f loaded; %d clients x %d mixed rounds\n\n",
              dbgen.scale_factor, clients, rounds);

  metrics::Table table({"configuration", "throughput q/s", "mean lat ms",
                        "HT/IMC ratio", "stolen tasks", "migrations"});
  double os_throughput = 0.0;
  // Each configuration is one DBMS tenant whose mode is the policy: "os"
  // hands it every core, the rest run the elastic mechanism.
  for (const std::string& policy : {"os", "dense", "sparse", "adaptive"}) {
    exec::ExperimentOptions options;
    options.monitor_period_ticks = 5;
    options.placement = exec::BasePlacement::kAllOnNode0;
    exec::Experiment experiment(&database, options);
    exec::TenantSpec dbms;
    dbms.name = "dbms";
    dbms.mode = policy;
    dbms.workload.mode = exec::WorkloadMode::kRandomMix;
    for (int q = 1; q <= 22; ++q) dbms.workload.traces.push_back(&traces.at(q));
    dbms.workload.queries_per_client = rounds;
    dbms.num_clients = clients;
    experiment.AddTenant(dbms);
    // The baseline is taken before the drivers start submitting.
    perf::Sampler sampler(&experiment.machine().counters(),
                          &experiment.machine().clock());
    experiment.Start();
    experiment.RunUntilDone(5'000'000);
    const exec::ClientDriver& driver = experiment.driver(0);

    const perf::WindowStats window = sampler.Sample();
    if (policy == "os") os_throughput = driver.ThroughputQps();
    table.AddRow({policy, metrics::Table::Num(driver.ThroughputQps(), 1),
                  metrics::Table::Num(driver.MeanLatencySeconds() * 1e3, 1),
                  metrics::Table::Num(window.HtImcRatio(), 3),
                  metrics::Table::Int(window.stolen_tasks()),
                  metrics::Table::Int(window.thread_migrations())});
  }
  table.Print("Elastic core allocation on a mixed TPC-H service");
  std::printf("\n(OS baseline throughput: %.1f q/s; the adaptive row should "
              "match or beat it while moving\nconsiderably less data across "
              "the interconnect.)\n",
              os_throughput);
  return 0;
}
