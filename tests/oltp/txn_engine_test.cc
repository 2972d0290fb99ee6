#include "oltp/txn_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "oltp/oltp_client.h"
#include "tests/db/test_db.h"

namespace elastic::oltp {
namespace {

struct Stack {
  std::unique_ptr<ossim::Machine> machine;
  std::unique_ptr<exec::BaseCatalog> catalog;
  std::unique_ptr<TxnEngine> engine;
};

Stack MakeStack(TxnEngineOptions options = {}) {
  Stack stack;
  stack.machine = std::make_unique<ossim::Machine>(ossim::MachineOptions{});
  stack.catalog = std::make_unique<exec::BaseCatalog>(
      &stack.machine->page_table(), testutil::TestDb(),
      exec::BasePlacement::kChunkedRoundRobin, /*page_bytes=*/4096);
  stack.engine = std::make_unique<TxnEngine>(stack.machine.get(),
                                             stack.catalog.get(), options);
  return stack;
}

TxnRequest Request(int64_t id, TxnType type, int partition) {
  TxnRequest request;
  request.id = id;
  request.type = type;
  request.partition = partition;
  request.customer_offset = 0.25;
  request.stock_offset = 0.5;
  return request;
}

/// Outcome of RunYcsb: commits and aborted attempts the engine reported.
struct CcRun {
  int64_t commits = 0;
  int64_t aborts = 0;
};

/// Submits `total` YCSB transactions through the engine's CcTxn entry, one
/// per tick, and resubmits every aborted attempt after a backoff that grows
/// with its abort count and is staggered by transaction id (two
/// transactions that aborted on each other would otherwise collide again
/// on every retry). Steps the machine until all of them committed.
CcRun RunYcsb(Stack& stack, const cc::YcsbConfig& ycsb, int64_t total,
              uint64_t seed) {
  constexpr int64_t kBackoff = 25;
  struct Attempt {
    simcore::Tick due = 0;
    TxnRequest request;
    cc::CcTxn txn;
    int aborts = 0;
  };
  cc::YcsbGenerator generator(ycsb, seed);
  std::vector<Attempt> retries;
  CcRun run;
  const auto submit = [&](const Attempt& attempt) {
    stack.engine->Submit(
        attempt.request, attempt.txn, [&, attempt](bool committed) {
          if (committed) {
            run.commits++;
            return;
          }
          run.aborts++;
          Attempt retry = attempt;
          retry.aborts++;
          retry.due = stack.machine->clock().now() +
                      kBackoff * std::min(retry.aborts, 8) +
                      retry.request.id % kBackoff;
          retries.push_back(retry);
        });
  };
  int64_t arrived = 0;
  for (int64_t tick = 0; run.commits < total && tick < 5'000'000; ++tick) {
    const simcore::Tick now = stack.machine->clock().now();
    for (size_t i = 0; i < retries.size();) {
      if (retries[i].due > now) {
        ++i;
        continue;
      }
      const Attempt due = retries[i];
      retries.erase(retries.begin() + static_cast<std::ptrdiff_t>(i));
      submit(due);
    }
    if (arrived < total) {
      Attempt fresh;
      fresh.request.id = arrived++;
      fresh.txn = generator.Next();
      submit(fresh);
    }
    stack.machine->Step();
  }
  return run;
}

TEST(TxnEngineTest, RunsBothProfilesToCompletion) {
  Stack stack = MakeStack();
  int completions = 0;
  stack.engine->Submit(Request(0, TxnType::kNewOrder, 0),
                       [&](bool) { completions++; });
  stack.engine->Submit(Request(1, TxnType::kPayment, 1),
                       [&](bool) { completions++; });
  EXPECT_EQ(stack.engine->active_txns(), 2);
  stack.machine->RunUntilIdle(100'000);
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(stack.engine->completed_txns(), 2);
  EXPECT_EQ(stack.engine->active_txns(), 0);
  EXPECT_EQ(stack.engine->latch_waits(), 0);
}

TEST(TxnEngineTest, PartitionLatchSerializesSamePartition) {
  Stack stack = MakeStack();
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    stack.engine->Submit(Request(i, TxnType::kPayment, /*partition=*/2),
                         [&order, i](bool) { order.push_back(i); });
  }
  // Two of the three queued behind the latch.
  EXPECT_EQ(stack.engine->latch_waits(), 2);
  stack.machine->RunUntilIdle(100'000);
  // The latch hands over in FIFO order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TxnEngineTest, DifferentPartitionsDoNotLatchWait) {
  Stack stack = MakeStack();
  int completions = 0;
  for (int i = 0; i < 8; ++i) {
    stack.engine->Submit(Request(i, TxnType::kPayment, /*partition=*/i),
                         [&](bool) { completions++; });
  }
  EXPECT_EQ(stack.engine->latch_waits(), 0);
  stack.machine->RunUntilIdle(100'000);
  EXPECT_EQ(completions, 8);
}

TEST(TxnEngineTest, SamePartitionStreamTakesLongerThanSpreadStream) {
  // 16 transactions on one partition serialize on the latch; the same 16
  // spread over 16 partitions run in parallel on the pool.
  auto run = [](bool spread) {
    Stack stack = MakeStack();
    for (int i = 0; i < 16; ++i) {
      stack.engine->Submit(
          Request(i, TxnType::kNewOrder, spread ? i : 3), [](bool) {});
    }
    return stack.machine->RunUntilIdle(1'000'000);
  };
  EXPECT_GT(run(/*spread=*/false), 2 * run(/*spread=*/true));
}

TEST(TxnEngineTest, OpenLoopClientDeterministicUnderFixedSeed) {
  auto run = [] {
    Stack stack = MakeStack();
    OltpWorkload workload;
    workload.total_txns = 64;
    workload.arrival_interval_ticks = 3;
    OltpClient client(stack.machine.get(), stack.engine.get(), workload,
                      /*seed=*/777);
    client.Start();
    int64_t ticks = 0;
    while (!client.AllDone() && ticks < 200'000) {
      stack.machine->Step();
      ticks++;
    }
    EXPECT_TRUE(client.AllDone());
    return std::make_tuple(ticks, client.latencies().PercentileTicks(0.99),
                           client.latencies().PercentileTicks(0.50),
                           stack.engine->latch_waits(),
                           stack.machine->counters().ht_bytes_total);
  };
  EXPECT_EQ(run(), run());
}

TEST(TxnEngineTest, OpenLoopArrivalsDoNotWaitForCompletions) {
  // One worker on one partition: the engine drains slowly, but the open
  // loop keeps submitting on schedule, so active transactions pile up.
  TxnEngineOptions options;
  options.pool_size = 1;
  options.num_partitions = 1;
  options.cpu_cycles_per_page = 5'000'000;  // several ticks per transaction
  Stack stack = MakeStack(options);
  OltpWorkload workload;
  workload.total_txns = 32;
  workload.arrival_interval_ticks = 1;
  OltpClient client(stack.machine.get(), stack.engine.get(), workload, 5);
  client.Start();
  for (int i = 0; i < 40; ++i) stack.machine->Step();
  EXPECT_EQ(client.submitted(), 32);
  EXPECT_GT(stack.engine->active_txns(), 0);
  EXPECT_GT(stack.engine->latch_waits(), 0);
  stack.machine->RunUntilIdle(1'000'000);
  EXPECT_TRUE(client.AllDone());
  EXPECT_EQ(client.completed(), 32);
}

TEST(TxnEngineTest, SurfacesCcCountersAndRecentAbortFraction) {
  TxnEngineOptions options;
  options.cc.protocol = cc::ProtocolKind::kTicToc;
  options.cc.num_records = 64;
  options.cpu_cycles_per_page = 5'000'000;
  Stack stack = MakeStack(options);

  cc::YcsbConfig ycsb;
  ycsb.num_records = 64;
  ycsb.theta = 0.9;
  const CcRun run = RunYcsb(stack, ycsb, /*total=*/64, /*seed=*/11);
  ASSERT_EQ(run.commits, 64);
  EXPECT_EQ(stack.engine->cc_commits(), 64);
  EXPECT_EQ(stack.engine->cc_aborts(), run.aborts);
  // OCC aborts are validation failures, not lock conflicts.
  EXPECT_GT(stack.engine->cc_validation_failures(), 0);
  EXPECT_EQ(stack.engine->cc_lock_conflicts(), 0);
  // Over a window covering the whole run, the abort fraction is the overall
  // abort share: in (0, 1) since both commits and aborts happened.
  const simcore::Tick now = stack.machine->clock().now();
  const double fraction = stack.engine->RecentAbortFraction(now, now + 1);
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, 1.0);
}

TEST(TxnEngineTest, IslandBoundPlacementPinsEngineSlabs) {
  TxnEngineOptions options;
  options.cc.protocol = cc::ProtocolKind::kTwoPhaseLock;
  options.cc.num_records = 4096;
  options.mem_policy = mem::Policy::kIslandBound;
  options.mem_island = 2;
  Stack stack = MakeStack(options);

  cc::YcsbConfig ycsb;
  ycsb.num_records = 4096;
  ASSERT_EQ(RunYcsb(stack, ycsb, /*total=*/16, /*seed=*/11).commits, 16);

  // Every engine-owned page (log slabs + CC table) is homed on the island,
  // no matter which nodes the workers ran on.
  const std::vector<int64_t> resident = stack.engine->ResidentPagesPerNode();
  ASSERT_EQ(resident.size(), 4u);  // default machine: 4 nodes
  EXPECT_GT(resident[2], 0);
  EXPECT_EQ(resident[0], 0);
  EXPECT_EQ(resident[1], 0);
  EXPECT_EQ(resident[3], 0);
  // Workers on the three other nodes paid remote accesses for them.
  EXPECT_GT(stack.engine->RemotePageFraction(), 0.0);
  EXPECT_LE(stack.engine->RemotePageFraction(), 1.0);
}

TEST(TxnEngineTest, DefaultPlacementLeavesFirstTouchHoming) {
  // Without a memory policy the engine behaves exactly as before the mem::
  // subsystem existed: pages home wherever workers first touch them, so no
  // node ends up with every resident page on a multi-node machine.
  TxnEngineOptions options;
  options.cc.protocol = cc::ProtocolKind::kTwoPhaseLock;
  options.cc.num_records = 4096;
  Stack stack = MakeStack(options);
  EXPECT_EQ(stack.engine->RemotePageFraction(), -1.0);  // no accesses yet

  cc::YcsbConfig ycsb;
  ycsb.num_records = 4096;
  ASSERT_EQ(RunYcsb(stack, ycsb, /*total=*/16, /*seed=*/11).commits, 16);
  const std::vector<int64_t> resident = stack.engine->ResidentPagesPerNode();
  int64_t total = 0;
  for (const int64_t pages : resident) total += pages;
  EXPECT_GT(total, 0);
}

TEST(TxnEngineDeathTest, ClassicSubmitNeedsPartitionLock) {
  // The classic NewOrder/Payment path takes partition latches only. A
  // config that names another protocol must fail loudly instead of
  // silently running its transactions on the latches.
  TxnEngineOptions options;
  options.cc.protocol = cc::ProtocolKind::kTwoPhaseLock;
  Stack stack = MakeStack(options);
  EXPECT_DEATH(stack.engine->Submit(Request(0, TxnType::kPayment, 0),
                                    [](bool) {}),
               "partition_lock");
}

}  // namespace
}  // namespace elastic::oltp
