// End-to-end runs asserting the paper's qualitative orderings on the full
// stack: data -> engine -> scheduler -> memory system -> elastic mechanism.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/arbiter.h"
#include "db/queries.h"
#include "exec/experiment.h"
#include "perf/sampler.h"
#include "tests/db/test_db.h"

namespace elastic::exec {
namespace {

const db::PlanTrace& Q6Trace() {
  static const db::PlanTrace* kTrace =
      new db::PlanTrace(db::RunTpchQuery(testutil::TestDb(), 6).trace);
  return *kTrace;
}

const db::PlanTrace& Q6TraceBig() {
  static const db::PlanTrace* kTrace =
      new db::PlanTrace(db::RunTpchQuery(testutil::TestDbBig(), 6).trace);
  return *kTrace;
}

ClientWorkload Q6WorkloadBig(int rounds) {
  ClientWorkload workload;
  workload.mode = WorkloadMode::kFixedQuery;
  workload.traces = {&Q6TraceBig()};
  workload.queries_per_client = rounds;
  return workload;
}

ExperimentOptions BaseOptions() {
  ExperimentOptions options;
  options.monitor_period_ticks = 5;
  return options;
}

TenantSpec Tenant(const std::string& mode, const ClientWorkload& workload,
                  int clients) {
  TenantSpec spec;
  spec.mode = mode;
  spec.workload = workload;
  spec.num_clients = clients;
  return spec;
}

/// Runs `spec` as the experiment's one tenant to completion and returns its
/// driver.
ClientDriver& RunTenant(Experiment& experiment, const TenantSpec& spec,
                        int64_t max_ticks) {
  experiment.AddTenant(spec);
  experiment.Start();
  experiment.RunUntilDone(max_ticks);
  return experiment.driver(0);
}

ClientWorkload Q6Workload(int rounds) {
  ClientWorkload workload;
  workload.mode = WorkloadMode::kFixedQuery;
  workload.traces = {&Q6Trace()};
  workload.queries_per_client = rounds;
  return workload;
}

TEST(EndToEndTest, AdaptiveCompletesAndAllocatesElastically) {
  Experiment experiment(&testutil::TestDbBig(), BaseOptions());
  ClientDriver& driver = RunTenant(
      experiment, Tenant("adaptive", Q6WorkloadBig(4), /*clients=*/64), 500000);
  EXPECT_EQ(driver.completed(), 256);
  ASSERT_EQ(experiment.arbiter().num_tenants(), 1);
  // The mechanism reacted: it allocated beyond the initial single core at
  // some point during the run.
  int max_alloc = 0;
  for (const core::ArbiterRound& round : experiment.arbiter().log()) {
    const int granted = round.tenants[0].granted;
    max_alloc = std::max(max_alloc, granted);
    ASSERT_GE(granted, 1);
    ASSERT_LE(granted, 16);
  }
  EXPECT_GT(max_alloc, 1);
}

TEST(EndToEndTest, IdleSystemReleasesDownToOneCore) {
  Experiment experiment(&testutil::TestDb(), BaseOptions());
  RunTenant(experiment, Tenant("dense", Q6Workload(1), 8), 500000);
  // Let the machine idle; the Idle sub-net must shed cores to the floor.
  experiment.machine().RunFor(500);
  EXPECT_EQ(experiment.arbiter().mechanism(0).nalloc(), 1);
}

TEST(EndToEndTest, TransitionLabelsAreWellFormed) {
  Experiment experiment(&testutil::TestDbBig(), BaseOptions());
  RunTenant(experiment, Tenant("adaptive", Q6WorkloadBig(2), 32), 500000);
  const std::vector<core::ArbiterRound>& log = experiment.arbiter().log();
  ASSERT_FALSE(log.empty());
  for (const core::ArbiterRound& round : log) {
    const std::string& label = round.tenants[0].decision.label;
    const bool known =
        label == "t0-Idle-t4" || label == "t0-Idle-t7" ||
        label == "t1-Overload-t5" || label == "t1-Overload-t6" ||
        label == "t2-Stable-t3";
    EXPECT_TRUE(known) << label;
  }
}

TEST(EndToEndTest, AdaptiveImprovesHtImcRatioOverOs) {
  // The paper's core claim: handing the OS only the local-optimum cores on
  // the right nodes reduces interconnect traffic relative to IMC traffic.
  // The contrast is sharpest when the loaded data has NUMA skew (the typical
  // single-loader MonetDB layout the paper observes on socket S0).
  auto run = [](const std::string& policy) {
    ExperimentOptions options = BaseOptions();
    options.placement = BasePlacement::kAllOnNode0;
    Experiment experiment(&testutil::TestDbBig(), options);
    perf::Sampler sampler(&experiment.machine().counters(),
                          &experiment.machine().clock());
    RunTenant(experiment, Tenant(policy, Q6WorkloadBig(3), 64), 1000000);
    return sampler.Sample().HtImcRatio();
  };
  const double os_ratio = run("os");
  const double adaptive_ratio = run("adaptive");
  EXPECT_LT(adaptive_ratio, os_ratio);
}

TEST(EndToEndTest, OsSchedulerStealsMoreTasksThanAdaptive) {
  auto run = [](const std::string& policy) {
    Experiment experiment(&testutil::TestDb(), BaseOptions());
    RunTenant(experiment, Tenant(policy, Q6Workload(2), 32), 1000000);
    return experiment.machine().counters().stolen_tasks;
  };
  EXPECT_GE(run("os"), run("adaptive"));
}

TEST(EndToEndTest, LoncHoldsLoadInsideBandUnderFluctuatingLoad) {
  // A saturating workload legitimately pegs u at 100 (all-Overload rounds);
  // the stability band appears when demand fluctuates. Client think time
  // creates the fluctuation, and the controller should then spend a
  // meaningful share of rounds inside (thmin, thmax) — the LONC residency.
  Experiment experiment(&testutil::TestDbBig(), BaseOptions());
  ClientWorkload workload = Q6WorkloadBig(6);
  workload.think_ticks = 60;
  ClientDriver& driver =
      RunTenant(experiment, Tenant("adaptive", workload, 24), 1000000);
  EXPECT_EQ(driver.completed(), 24 * 6);
  // A round is inside the band exactly when t2 classified it Stable: t2's
  // guard is thmin < u < thmax.
  const std::vector<core::ArbiterRound>& log = experiment.arbiter().log();
  ASSERT_GT(log.size(), 5u);
  int stable = 0;
  for (const core::ArbiterRound& round : log) {
    if (round.tenants[0].decision.state == core::PerfState::kStable) stable++;
    EXPECT_GE(round.tenants[0].granted, 1);
  }
  EXPECT_GT(static_cast<double>(stable) / static_cast<double>(log.size()),
            0.05);
}

TEST(EndToEndTest, HtImcStrategyAlsoConverges) {
  Experiment experiment(&testutil::TestDb(), BaseOptions());
  TenantSpec spec = Tenant("adaptive", Q6Workload(2), 16);
  spec.mechanism = core::DefaultConfigFor(core::TransitionStrategy::kHtImcRatio);
  ClientDriver& driver = RunTenant(experiment, spec, 1000000);
  EXPECT_EQ(driver.completed(), 32);
}

TEST(EndToEndTest, SqlServerModelBenefitsFromMechanismToo) {
  // Even the NUMA-aware engine gains NUMA-friendliness from the elastic
  // mechanism when data is skewed (Section V-C): the mask concentrates
  // the pinned pool's work near the pages it touches.
  auto run = [](const std::string& policy) {
    ExperimentOptions options = BaseOptions();
    options.placement = BasePlacement::kAllOnNode0;
    Experiment experiment(&testutil::TestDbBig(), options);
    perf::Sampler sampler(&experiment.machine().counters(),
                          &experiment.machine().clock());
    TenantSpec spec = Tenant(policy, Q6WorkloadBig(3), 64);
    spec.engine_model = ThreadModel::kNumaPinned;
    RunTenant(experiment, spec, 1000000);
    return sampler.Sample().HtImcRatio();
  };
  EXPECT_LE(run("adaptive"), run("os") * 1.05);
}

}  // namespace
}  // namespace elastic::exec
