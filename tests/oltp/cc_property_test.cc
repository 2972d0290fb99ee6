// Property tests over the CC layer: workload-level invariants that must
// hold for every protocol (SmallBank balance conservation) and the
// qualitative contention behaviour the arbiter's signals rely on (OCC abort
// rate rising with skew), plus distribution checks on the generators.

#include "oltp/cc/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/oltp_contention_experiment.h"
#include "oltp/cc/protocol.h"
#include "oltp/cc/stress.h"
#include "oltp/cc/table.h"
#include "simcore/rng.h"

namespace elastic::oltp::cc {
namespace {

const ProtocolKind kAllProtocols[] = {
    ProtocolKind::kPartitionLock,
    ProtocolKind::kTwoPhaseLock,
    ProtocolKind::kTicToc,
};

// Total balance is invariant under the transfers-only SmallBank mix; any
// lost update, dirty read of a transfer in flight, or partial rollback
// shows up as a changed sum. Checked per protocol under real threads...
class SmallBankConservationTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(SmallBankConservationTest, ThreadStressConservesTotalBalance) {
  StressConfig config;
  config.protocol = GetParam();
  config.workload = WorkloadKind::kSmallBank;
  config.smallbank.num_accounts = 128;  // hot: conflicts likely
  config.smallbank.theta = 0.9;
  config.smallbank.transfers_only = true;
  config.smallbank.initial_balance = 1000;
  config.num_threads = 8;
  config.txns_per_thread = 500;
  config.seed = 7;

  const StressResult result = RunCcStress(config);
  EXPECT_EQ(result.initial_sum,
            SmallBankNumRecords(config.smallbank) *
                config.smallbank.initial_balance);
  EXPECT_EQ(result.final_sum, result.initial_sum);
  EXPECT_EQ(result.gave_up, 0);
}

// ...and under the machine simulation, where transactions overlap for whole
// job durations and the abort/retry path is exercised heavily.
TEST_P(SmallBankConservationTest, SimulatedRunConservesTotalBalance) {
  exec::OltpContentionOptions options;
  options.protocol = GetParam();
  options.workload = WorkloadKind::kSmallBank;
  options.smallbank.num_accounts = 128;
  options.smallbank.theta = 0.9;
  options.smallbank.transfers_only = true;
  options.smallbank.initial_balance = 1000;
  options.total_txns = 500;
  options.cores = 8;

  exec::OltpContentionExperiment experiment(options);
  const exec::OltpContentionResult result =
      experiment.Run(/*max_ticks=*/40'000'000);
  EXPECT_EQ(result.commits, options.total_txns);
  EXPECT_EQ(experiment.engine().cc_table().SumValues(),
            SmallBankNumRecords(options.smallbank) *
                options.smallbank.initial_balance);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SmallBankConservationTest,
                         ::testing::ValuesIn(kAllProtocols),
                         [](const auto& info) {
                           return std::string(ProtocolKindName(info.param));
                         });

// The retry loop behind the stress harness must outlast a lock holder that
// keeps its lock for a long time, as one descheduled on a loaded host does:
// another thread holds a write lock on the key for 100 ms, then commits.
class RetryOutlastsLockHolderTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(RetryOutlastsLockHolderTest, CommitsAfterHolderReleases) {
  Table table(/*num_records=*/64, /*num_partitions=*/16);
  std::unique_ptr<Protocol> protocol = MakeProtocol(GetParam(), &table);
  std::atomic<bool> locked{false};
  std::thread holder([&] {
    TxnCtx ctx;
    protocol->Begin(ctx, /*txn_id=*/1);
    EXPECT_TRUE(protocol->Put(ctx, /*key=*/0, /*value=*/10));
    locked.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_TRUE(protocol->Commit(ctx, nullptr));
  });
  while (!locked.load()) std::this_thread::yield();

  CcTxn txn;
  txn.ops = {{/*key=*/0, /*write=*/true}};
  TxnCtx ctx;
  int64_t aborts = 0;
  const bool committed = CommitWithRetry(*protocol, ctx, txn, /*txn_id=*/2,
                                         /*max_attempts=*/10000, nullptr,
                                         &aborts);
  holder.join();
  EXPECT_TRUE(committed) << "gave up after " << aborts << " aborts";
  EXPECT_GT(aborts, 0);
  EXPECT_EQ(table.record(0).value.load(), 11);
}

INSTANTIATE_TEST_SUITE_P(LockProtocols, RetryOutlastsLockHolderTest,
                         ::testing::Values(ProtocolKind::kPartitionLock,
                                           ProtocolKind::kTwoPhaseLock),
                         [](const auto& info) {
                           return std::string(ProtocolKindName(info.param));
                         });

TEST(CcPropertyTest, OccAbortFractionRisesWithSkew) {
  // The contention signal the arbiter feeds on must be monotone in the
  // thing it claims to measure: more skew, same everything else => at least
  // as many validation failures per attempt under OCC.
  double previous = -1.0;
  for (const double theta : {0.0, 0.6, 0.9, 0.99}) {
    exec::OltpContentionOptions options;
    options.protocol = ProtocolKind::kTicToc;
    options.workload = WorkloadKind::kYcsb;
    options.ycsb.num_records = 2048;
    options.ycsb.theta = theta;
    options.total_txns = 600;
    options.cores = 8;
    exec::OltpContentionExperiment experiment(options);
    const exec::OltpContentionResult result =
        experiment.Run(/*max_ticks=*/40'000'000);
    EXPECT_GE(result.abort_fraction, previous)
        << "abort fraction fell when skew rose to theta=" << theta;
    previous = result.abort_fraction;
  }
  EXPECT_GT(previous, 0.0);  // the top of the ramp must actually contend
}

TEST(CcPropertyTest, ZipfianConcentratesMassOnHeadKeys) {
  static constexpr int64_t kKeys = 1024;
  static constexpr int kDraws = 20000;
  static constexpr int64_t kHead = 16;
  auto head_hits = [](double theta) {
    ZipfianGenerator zipf(kKeys, theta);
    simcore::Rng rng(123);
    int hits = 0;
    for (int i = 0; i < kDraws; ++i) {
      const int64_t key = zipf.Next(rng);
      EXPECT_GE(key, 0);
      EXPECT_LT(key, kKeys);
      if (key < kHead) hits++;
    }
    return hits;
  };
  const int uniform = head_hits(0.0);
  const int skewed = head_hits(0.99);
  // Uniform: ~16/1024 of the mass (~312 draws). Theta 0.99: the head keys
  // draw a large multiple of that.
  EXPECT_GT(skewed, 5 * uniform);
  EXPECT_GT(skewed, kDraws / 4);
}

TEST(CcPropertyTest, YcsbTxnsHaveDistinctKeysAndAreDeterministic) {
  YcsbConfig config;
  config.num_records = 64;
  config.ops_per_txn = 8;
  config.theta = 0.99;  // collisions would be frequent without dedup
  YcsbGenerator a(config, 99);
  YcsbGenerator b(config, 99);
  for (int i = 0; i < 200; ++i) {
    const CcTxn txn = a.Next();
    const CcTxn same = b.Next();
    ASSERT_EQ(txn.ops.size(), static_cast<size_t>(config.ops_per_txn));
    ASSERT_EQ(same.ops.size(), txn.ops.size());
    std::vector<uint64_t> keys;
    for (size_t k = 0; k < txn.ops.size(); ++k) {
      EXPECT_EQ(txn.ops[k].key, same.ops[k].key);
      EXPECT_EQ(txn.ops[k].write, same.ops[k].write);
      keys.push_back(txn.ops[k].key);
    }
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
        << "duplicate key within one transaction";
  }
}

TEST(CcPropertyTest, SmallBankGeneratorRespectsTransfersOnlyAndDistinctPair) {
  SmallBankConfig config;
  config.num_accounts = 8;  // tiny: a==b collisions would be common
  config.theta = 0.9;
  config.transfers_only = true;
  SmallBankGenerator gen(config, 5);
  for (int i = 0; i < 500; ++i) {
    const CcTxn txn = gen.Next();
    EXPECT_TRUE(txn.profile == SmallBankProfile::kBalance ||
                txn.profile == SmallBankProfile::kAmalgamate ||
                txn.profile == SmallBankProfile::kSendPayment)
        << "non-conserving profile in transfers-only mix: "
        << SmallBankProfileName(txn.profile);
    if (txn.profile != SmallBankProfile::kBalance) {
      EXPECT_NE(txn.account_a, txn.account_b);
    }
    EXPECT_GE(txn.account_a, 0);
    EXPECT_LT(txn.account_a, config.num_accounts);
    EXPECT_GE(txn.account_b, 0);
    EXPECT_LT(txn.account_b, config.num_accounts);
  }
}

}  // namespace
}  // namespace elastic::oltp::cc
