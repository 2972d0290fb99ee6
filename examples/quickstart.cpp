// Quickstart: build a simulated NUMA machine, install the elastic
// multi-core allocation mechanism with the adaptive priority mode, run a
// small TPC-H workload, and inspect what the mechanism did.
//
//   $ ./examples/quickstart

#include <cstdio>

#include "core/arbiter.h"
#include "db/queries.h"
#include "exec/experiment.h"
#include "tpch/dbgen.h"

int main() {
  using namespace elastic;

  // 1. Generate a small TPC-H database (all eight tables, from scratch).
  tpch::DbgenOptions dbgen;
  dbgen.scale_factor = 0.02;
  const db::Database database = tpch::Generate(dbgen);
  std::printf("generated TPC-H SF %.2f: %lld lineitems, %lld orders\n",
              dbgen.scale_factor,
              static_cast<long long>(database.lineitem.num_rows()),
              static_cast<long long>(database.orders.num_rows()));

  // 2. Execute Q6 functionally and keep its physical plan trace.
  const db::QueryOutput q6 = db::RunTpchQuery(database, 6);
  std::printf("Q6 revenue = %s (plan: %zu MAL-style stages)\n",
              q6.result.at(0, 0).ToString().c_str(), q6.trace.stages.size());

  // 3. Assemble the simulated 4-node Opteron machine and one DBMS tenant:
  //    the Volcano engine under the elastic mechanism (adaptive priority
  //    mode, CPU-load PrT).
  exec::ExperimentOptions options;
  options.monitor_period_ticks = 5;
  options.placement = exec::BasePlacement::kAllOnNode0;
  exec::Experiment experiment(&database, options);
  exec::TenantSpec dbms;
  dbms.name = "dbms";
  dbms.mode = "adaptive";

  // 4. Run 32 concurrent clients, three Q6 executions each.
  dbms.workload.traces = {&q6.trace};
  dbms.workload.queries_per_client = 3;
  dbms.num_clients = 32;
  experiment.AddTenant(dbms);
  experiment.Start();
  experiment.RunUntilDone(1'000'000);
  const exec::ClientDriver& driver = experiment.driver(0);

  // 5. Report.
  std::printf("\ncompleted %lld queries, throughput %.1f q/s (simulated), "
              "mean latency %.1f ms\n",
              static_cast<long long>(driver.completed()),
              driver.ThroughputQps(), driver.MeanLatencySeconds() * 1e3);
  const perf::CounterSet& counters = experiment.machine().counters();
  std::printf("HT traffic %.1f MB, minor faults %lld, stolen tasks %lld\n",
              static_cast<double>(counters.ht_bytes_total) / 1e6,
              static_cast<long long>(counters.minor_faults),
              static_cast<long long>(counters.stolen_tasks));

  // The arbiter's round log holds each round's decision and grant.
  const core::CoreArbiter& arbiter = experiment.arbiter();
  std::printf("\nmechanism history (first 12 rounds):\n");
  int shown = 0;
  for (const core::ArbiterRound& round : arbiter.log()) {
    const core::TenantRound& dbms_round = round.tenants[0];
    std::printf("  tick %5lld  %-16s u=%6.1f  cores=%d\n",
                static_cast<long long>(round.tick),
                dbms_round.decision.label.c_str(), dbms_round.decision.u,
                dbms_round.granted);
    if (++shown == 12) break;
  }
  std::printf("final allocation: %d cores, mask %s\n", arbiter.nalloc(0),
              arbiter.tenant_mask(0).ToString().c_str());
  return 0;
}
