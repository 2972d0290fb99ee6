#include <gtest/gtest.h>

#include "exec/experiment.h"
#include "db/queries.h"
#include "tests/db/test_db.h"

namespace elastic::exec {
namespace {

const db::PlanTrace& Q6() {
  static const db::PlanTrace* kTrace =
      new db::PlanTrace(db::RunTpchQuery(testutil::TestDb(), 6).trace);
  return *kTrace;
}

const db::PlanTrace& Q1() {
  static const db::PlanTrace* kTrace =
      new db::PlanTrace(db::RunTpchQuery(testutil::TestDb(), 1).trace);
  return *kTrace;
}

TenantSpec SmallTenant(const std::string& name, const db::PlanTrace& trace,
                       int clients) {
  TenantSpec spec;
  spec.name = name;
  spec.workload.mode = WorkloadMode::kFixedQuery;
  spec.workload.traces = {&trace};
  spec.workload.queries_per_client = 2;
  spec.num_clients = clients;
  return spec;
}

TEST(MultiTenantTest, TwoTenantsRunToCompletionOnDisjointCores) {
  MultiTenantOptions options;
  MultiTenantExperiment experiment(&testutil::TestDb(), options);
  experiment.AddTenant(SmallTenant("alpha", Q6(), 4));
  experiment.AddTenant(SmallTenant("beta", Q1(), 4));
  experiment.Start();
  experiment.RunUntilDone(1'000'000);

  EXPECT_EQ(experiment.driver(0).completed(), 8);
  EXPECT_EQ(experiment.driver(1).completed(), 8);
  EXPECT_GT(experiment.driver(0).ThroughputQps(), 0.0);
  EXPECT_GT(experiment.driver(1).ThroughputQps(), 0.0);

  // Masks stayed disjoint and the arbiter actually ran rounds.
  core::CoreArbiter& arbiter = experiment.arbiter();
  EXPECT_GT(arbiter.log().size(), 0u);
  EXPECT_EQ(arbiter.tenant_mask(0).bits() & arbiter.tenant_mask(1).bits(), 0u);
  EXPECT_GE(arbiter.nalloc(0), 1);
  EXPECT_GE(arbiter.nalloc(1), 1);
}

TEST(MultiTenantTest, ContentionMovesCoresBetweenTenants) {
  MultiTenantOptions options;
  options.policy = core::ArbitrationPolicy::kDemandProportional;
  MultiTenantExperiment experiment(&testutil::TestDb(), options);
  experiment.AddTenant(SmallTenant("busy", Q1(), 8));
  TenantSpec lazy = SmallTenant("lazy", Q6(), 2);
  lazy.workload.queries_per_client = 1;
  experiment.AddTenant(lazy);
  experiment.Start();
  experiment.RunUntilDone(1'000'000);
  // Demand imbalance must produce at least one core handoff.
  EXPECT_GT(experiment.arbiter().core_handoffs(), 0);
}

TEST(MultiTenantTest, PhaseScheduleDrivesEachTenantIndependently) {
  MultiTenantOptions options;
  MultiTenantExperiment experiment(&testutil::TestDb(), options);
  TenantSpec phases;
  phases.name = "phases";
  phases.workload.mode = WorkloadMode::kPhases;
  phases.workload.traces = {&Q6(), &Q1()};
  phases.num_clients = 3;
  experiment.AddTenant(phases);
  experiment.AddTenant(SmallTenant("fixed", Q6(), 2));
  experiment.Start();
  experiment.RunUntilDone(1'000'000);
  // The phase tenant ran each class once per client.
  EXPECT_EQ(experiment.driver(0).completed(), 6);
  EXPECT_EQ(experiment.driver(0).current_phase(), 2);
  EXPECT_EQ(experiment.driver(1).completed(), 4);
}

TEST(MultiTenantTest, DeterministicAcrossRuns) {
  auto run = [] {
    MultiTenantOptions options;
    options.seed = 1234;
    options.policy = core::ArbitrationPolicy::kFairShare;
    MultiTenantExperiment experiment(&testutil::TestDb(), options);
    experiment.AddTenant(SmallTenant("alpha", Q6(), 4));
    experiment.AddTenant(SmallTenant("beta", Q1(), 4));
    experiment.Start();
    const int64_t ticks = experiment.RunUntilDone(1'000'000);
    return std::make_tuple(ticks,
                           experiment.machine().counters().ht_bytes_total,
                           experiment.arbiter().core_handoffs(),
                           experiment.arbiter().tenant_mask(0).bits(),
                           experiment.arbiter().tenant_mask(1).bits());
  };
  EXPECT_EQ(run(), run());
}

TEST(MultiTenantTest, EngineWorkersStayInsideTenantCpuset) {
  MultiTenantOptions options;
  MultiTenantExperiment experiment(&testutil::TestDb(), options);
  experiment.AddTenant(SmallTenant("alpha", Q6(), 2));
  experiment.AddTenant(SmallTenant("beta", Q6(), 2));
  experiment.Start();

  ossim::Scheduler& scheduler = experiment.machine().scheduler();
  const ossim::CpusetId alpha = experiment.arbiter().tenant_cpuset(0);
  for (int64_t tick = 0; tick < 5000; ++tick) {
    experiment.machine().Step();
    const platform::CpuMask alpha_mask = scheduler.cpuset_mask(alpha);
    for (int64_t id = 0; id < scheduler.num_threads(); ++id) {
      const ossim::Thread& thread = scheduler.thread(id);
      if (thread.cpuset != alpha) continue;
      if (thread.state == ossim::ThreadState::kRunning) {
        ASSERT_TRUE(alpha_mask.Has(thread.core))
            << "tenant thread escaped its cpuset at tick " << tick;
      }
    }
    bool all_done = true;
    for (int t = 0; t < experiment.num_tenants(); ++t) {
      if (!experiment.driver(t).AllDone()) all_done = false;
    }
    if (all_done) break;
  }
}

}  // namespace
}  // namespace elastic::exec
