#include "exec/dbms_engine.h"

#include <gtest/gtest.h>

#include "db/queries.h"
#include "ossim/machine.h"
#include "tests/db/test_db.h"

namespace elastic::exec {
namespace {

class DbmsEngineTest : public ::testing::Test {
 protected:
  DbmsEngineTest()
      : machine_(ossim::MachineOptions{}),
        catalog_(&machine_.page_table(), testutil::TestDb(),
                 BasePlacement::kChunkedRoundRobin, 4096),
        trace_(db::RunTpchQuery(testutil::TestDb(), 6).trace) {}

  void RunToQuiet(DbmsEngine* engine, int64_t max_ticks = 200000) {
    int64_t ticks = 0;
    while (engine->active_queries() > 0 && ticks < max_ticks) {
      machine_.Step();
      ticks++;
    }
    ASSERT_EQ(engine->active_queries(), 0) << "engine stuck";
  }

  ossim::Machine machine_;
  BaseCatalog catalog_;
  db::PlanTrace trace_;
};

TEST_F(DbmsEngineTest, PoolDefaultsToOneWorkerPerCore) {
  DbmsEngine engine(&machine_, &catalog_, EngineOptions{});
  EXPECT_EQ(engine.num_workers(), machine_.topology().total_cores());
}

TEST_F(DbmsEngineTest, SingleQueryCompletes) {
  DbmsEngine engine(&machine_, &catalog_, EngineOptions{});
  bool done = false;
  engine.Submit(&trace_, [&done] { done = true; });
  EXPECT_EQ(engine.active_queries(), 1);
  RunToQuiet(&engine);
  EXPECT_TRUE(done);
  EXPECT_EQ(engine.completed_queries(), 1);
}

TEST_F(DbmsEngineTest, ConcurrentQueriesShareThePool) {
  DbmsEngine engine(&machine_, &catalog_, EngineOptions{});
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    engine.Submit(&trace_, [&done] { done++; });
  }
  EXPECT_EQ(engine.active_queries(), 8);
  RunToQuiet(&engine);
  EXPECT_EQ(done, 8);
}

TEST_F(DbmsEngineTest, CompletionCanResubmit) {
  DbmsEngine engine(&machine_, &catalog_, EngineOptions{});
  int rounds = 0;
  std::function<void()> resubmit = [&] {
    rounds++;
    if (rounds < 3) engine.Submit(&trace_, resubmit);
  };
  engine.Submit(&trace_, resubmit);
  RunToQuiet(&engine);
  EXPECT_EQ(rounds, 3);
  EXPECT_EQ(engine.completed_queries(), 3);
}

TEST_F(DbmsEngineTest, WorksUnderNarrowCpuMask) {
  machine_.scheduler().SetAllowedMask(platform::CpuMask::Of({0}));
  DbmsEngine engine(&machine_, &catalog_, EngineOptions{});
  bool done = false;
  engine.Submit(&trace_, [&done] { done = true; });
  RunToQuiet(&engine);
  EXPECT_TRUE(done);
}

TEST_F(DbmsEngineTest, NumaPinnedWorkersAreDistributed) {
  EngineOptions options;
  options.model = ThreadModel::kNumaPinned;
  DbmsEngine engine(&machine_, &catalog_, options);
  bool done = false;
  engine.Submit(&trace_, [&done] { done = true; });
  RunToQuiet(&engine);
  EXPECT_TRUE(done);
}

TEST_F(DbmsEngineTest, NumaPinnedWorkersMigrateLessThanScattered) {
  // SQL Server's NUMA-awareness in the paper manifests as threads being
  // associated with processors: under the pinned model the OS balancer has
  // far less freedom, so worker threads migrate less than under the
  // MonetDB model where all 16 workers are fair game on all 16 cores.
  auto run = [](ThreadModel model) {
    ossim::Machine machine{ossim::MachineOptions{}};
    BaseCatalog catalog(&machine.page_table(), testutil::TestDbBig(),
                        BasePlacement::kChunkedRoundRobin, 4096);
    const db::PlanTrace trace = db::RunTpchQuery(testutil::TestDbBig(), 6).trace;
    EngineOptions options;
    options.model = model;
    DbmsEngine engine(&machine, &catalog, options);
    int submitted = 0;
    std::function<void()> again = [&] {
      if (++submitted <= 24) engine.Submit(&trace, again);
    };
    for (int i = 0; i < 8; ++i) engine.Submit(&trace, again);
    int64_t ticks = 0;
    while (engine.active_queries() > 0 && ticks < 200000) {
      machine.Step();
      ticks++;
    }
    struct Out {
      int64_t migrations;
      int64_t completed;
    };
    return Out{machine.counters().thread_migrations +
                   machine.counters().stolen_tasks,
               engine.completed_queries()};
  };
  const auto scattered = run(ThreadModel::kOsScheduled);
  const auto pinned = run(ThreadModel::kNumaPinned);
  EXPECT_EQ(scattered.completed, pinned.completed);
  EXPECT_LE(pinned.migrations, scattered.migrations);
}

TEST_F(DbmsEngineTest, TasksAreCounted) {
  DbmsEngine engine(&machine_, &catalog_, EngineOptions{});
  engine.Submit(&trace_, nullptr);
  RunToQuiet(&engine);
  EXPECT_GT(machine_.counters().tasks_spawned, 0);
}

TEST_F(DbmsEngineTest, StreamAttributionFollowsTrace) {
  DbmsEngine engine(&machine_, &catalog_, EngineOptions{});
  engine.Submit(&trace_, nullptr);  // Q6 -> stream 5
  RunToQuiet(&engine);
  EXPECT_GT(machine_.counters().stream_busy_cycles[5], 0);
  EXPECT_EQ(machine_.counters().stream_busy_cycles[9], 0);
}

}  // namespace
}  // namespace elastic::exec
