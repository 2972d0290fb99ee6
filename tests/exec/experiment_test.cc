#include "exec/experiment.h"

#include <gtest/gtest.h>

#include "db/queries.h"
#include "tests/db/test_db.h"

namespace elastic::exec {
namespace {

const db::PlanTrace& Q6() {
  static const db::PlanTrace* kTrace =
      new db::PlanTrace(db::RunTpchQuery(testutil::TestDb(), 6).trace);
  return *kTrace;
}

TEST(ExperimentTest, OsPolicyHasNoMechanism) {
  ExperimentOptions options;
  options.policy = "os";
  Experiment experiment(&testutil::TestDb(), options);
  EXPECT_EQ(experiment.mechanism(), nullptr);
  // No cpuset: the engine's threads may run on all 16 cores.
  EXPECT_EQ(experiment.machine().scheduler().num_cpusets(), 0);
  EXPECT_EQ(experiment.machine().topology().total_cores(), 16);
}

TEST(ExperimentTest, ElasticPoliciesStartAtInitialCores) {
  for (const char* policy : {"dense", "sparse", "adaptive"}) {
    ExperimentOptions options;
    options.policy = policy;
    options.initial_cores = 2;
    Experiment experiment(&testutil::TestDb(), options);
    ASSERT_NE(experiment.mechanism(), nullptr) << policy;
    EXPECT_EQ(experiment.mechanism()->nalloc(), 2) << policy;
    // The tenant's cpuset, the only one, confines the engine to those cores.
    const ossim::Scheduler& scheduler = experiment.machine().scheduler();
    ASSERT_EQ(scheduler.num_cpusets(), 1) << policy;
    EXPECT_EQ(scheduler.cpuset_mask(0).Count(), 2) << policy;
    EXPECT_EQ(scheduler.cpuset_mask(0), experiment.mechanism()->allocated_mask())
        << policy;
  }
}

TEST(ExperimentTest, ThresholdOverridesReachTheMechanism) {
  ExperimentOptions options;
  options.policy = "dense";
  options.thmin_override = 25.0;
  options.thmax_override = 85.0;
  Experiment experiment(&testutil::TestDb(), options);
  EXPECT_DOUBLE_EQ(experiment.mechanism()->config().thmin, 25.0);
  EXPECT_DOUBLE_EQ(experiment.mechanism()->config().thmax, 85.0);
}

TEST(ExperimentTest, NegativeOverridesKeepPaperDefaults) {
  ExperimentOptions options;
  options.policy = "dense";
  options.strategy = core::TransitionStrategy::kHtImcRatio;
  Experiment experiment(&testutil::TestDb(), options);
  EXPECT_DOUBLE_EQ(experiment.mechanism()->config().thmin, 0.1);
  EXPECT_DOUBLE_EQ(experiment.mechanism()->config().thmax, 0.4);
}

TEST(ExperimentTest, TableAffinePlacementSpreadsTablesOverNodes) {
  ExperimentOptions options;
  options.placement = BasePlacement::kTableAffine;
  Experiment experiment(&testutil::TestDb(), options);
  numasim::PageTable& pt = experiment.machine().page_table();
  // lineitem is the 8th table (index 7) -> primary node 3: most of its
  // l_quantity pages must live there.
  const numasim::BufferId quantity =
      experiment.catalog().BufferOf("lineitem.l_quantity");
  const int64_t on3 = pt.ResidentPagesOfBuffer(quantity, 3);
  const int64_t total = experiment.catalog().PagesOf("lineitem.l_quantity");
  EXPECT_GT(on3, total / 2);
  // region (index 0) -> node 0.
  const numasim::BufferId region = experiment.catalog().BufferOf("region.r_name");
  EXPECT_GE(pt.ResidentPagesOfBuffer(region, 0), 1);
}

TEST(ExperimentTest, RunWorkloadCompletesAndReturnsDriver) {
  ExperimentOptions options;
  options.policy = "adaptive";
  Experiment experiment(&testutil::TestDb(), options);
  ClientWorkload workload;
  workload.traces = {&Q6()};
  workload.queries_per_client = 2;
  ClientDriver& driver = experiment.RunWorkload(workload, 4, 500000);
  EXPECT_EQ(driver.completed(), 8);
  EXPECT_EQ(experiment.engine().active_queries(), 0);
}

TEST(ExperimentTest, RampStaggersFirstSubmissions) {
  ExperimentOptions options;
  Experiment experiment(&testutil::TestDb(), options);
  ClientWorkload workload;
  workload.traces = {&Q6()};
  workload.queries_per_client = 1;
  workload.ramp_ticks = 100;
  ClientDriver& driver = experiment.RunWorkload(workload, 8, 500000);
  // Submissions must be spread over the ramp, not synchronized at tick 0.
  simcore::Tick min_submit = INT64_MAX;
  simcore::Tick max_submit = 0;
  for (const auto& record : driver.records()) {
    min_submit = std::min(min_submit, record.submitted);
    max_submit = std::max(max_submit, record.submitted);
  }
  EXPECT_EQ(min_submit, 0);
  EXPECT_GE(max_submit, 90);
}

TEST(ExperimentTest, TimingSinkReceivesStageWindows) {
  ossim::Machine machine{ossim::MachineOptions{}};
  BaseCatalog catalog(&machine.page_table(), testutil::TestDb(),
                      BasePlacement::kChunkedRoundRobin, 4096);
  EngineOptions engine_options;
  engine_options.task_graph.clock = &machine.clock();
  DbmsEngine engine(&machine, &catalog, engine_options);
  std::vector<TaskGraph::StageTiming> timings;
  bool done = false;
  engine.Submit(&Q6(), [&done] { done = true; }, &timings);
  int64_t guard = 0;
  while (!done && guard++ < 100000) machine.Step();
  ASSERT_TRUE(done);
  ASSERT_EQ(timings.size(), Q6().stages.size());
  for (size_t s = 0; s < timings.size(); ++s) {
    EXPECT_GE(timings[s].finished, timings[s].started) << "stage " << s;
    EXPECT_GE(timings[s].tasks, 1);
    if (s > 0) EXPECT_GE(timings[s].started, timings[s - 1].started);
  }
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  auto run = [] {
    ExperimentOptions options;
    options.policy = "adaptive";
    options.seed = 99;
    Experiment experiment(&testutil::TestDb(), options);
    ClientWorkload workload;
    workload.traces = {&Q6()};
    workload.queries_per_client = 2;
    experiment.RunWorkload(workload, 8, 500000);
    return experiment.machine().counters().ht_bytes_total;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace elastic::exec
