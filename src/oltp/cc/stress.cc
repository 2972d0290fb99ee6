#include "oltp/cc/stress.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

namespace elastic::oltp::cc {
namespace {

/// Aborts answered with a bare yield before the retry loop starts to sleep.
constexpr int kYieldRetries = 8;
constexpr std::chrono::microseconds kMaxBackoff{1000};

/// Waits after the `aborts`-th abort of one transaction: a yield for the
/// first few, then sleeps doubling from 1 us up to kMaxBackoff. Yields alone
/// give up the CPU only to threads already runnable, so a lock holder that
/// the host has descheduled may still hold its lock after thousands of them.
void BackOff(int aborts) {
  if (aborts <= kYieldRetries) {
    std::this_thread::yield();  // no-wait livelock release valve
    return;
  }
  const int doublings = std::min(aborts - kYieldRetries - 1, 10);
  const std::chrono::microseconds wait(int64_t{1} << doublings);
  std::this_thread::sleep_for(std::min(wait, kMaxBackoff));
}

struct ThreadOutcome {
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t gave_up = 0;
  std::vector<CommittedTxn> history;
};

void RunWorker(const StressConfig& config, Protocol* protocol, int tid,
               ThreadOutcome* out) {
  // Each worker owns an independent, deterministic transaction stream; only
  // the interleaving is left to the scheduler.
  const uint64_t seed = config.seed + 0x9E3779B97F4A7C15ULL * (tid + 1);
  YcsbGenerator ycsb(config.ycsb, seed);
  SmallBankGenerator smallbank(config.smallbank, seed);
  TxnCtx ctx;
  for (int i = 0; i < config.txns_per_thread; ++i) {
    const CcTxn txn = config.workload == WorkloadKind::kSmallBank
                          ? smallbank.Next()
                          : ycsb.Next();
    const uint64_t txn_id =
        static_cast<uint64_t>(tid) * config.txns_per_thread + i;
    CommittedTxn committed;
    if (!CommitWithRetry(*protocol, ctx, txn, txn_id, config.max_attempts,
                         config.record_history ? &committed : nullptr,
                         &out->aborted)) {
      ++out->gave_up;
      continue;
    }
    ++out->committed;
    if (config.record_history) out->history.push_back(std::move(committed));
  }
}

}  // namespace

bool CommitWithRetry(Protocol& protocol, TxnCtx& ctx, const CcTxn& txn,
                     uint64_t txn_id, int max_attempts,
                     CommittedTxn* committed, int64_t* aborts) {
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    protocol.Begin(ctx, txn_id);
    if (ExecuteCcTxn(protocol, ctx, txn, nullptr)) {
      if (protocol.Commit(ctx, committed)) return true;
    } else {
      protocol.Abort(ctx);
    }
    ++*aborts;
    BackOff(attempt);
  }
  return false;
}

StressResult RunCcStress(const StressConfig& config) {
  const int64_t num_records = config.workload == WorkloadKind::kSmallBank
                                  ? SmallBankNumRecords(config.smallbank)
                                  : config.ycsb.num_records;
  Table table(num_records, /*num_partitions=*/16);
  if (config.workload == WorkloadKind::kSmallBank) {
    table.FillValues(config.smallbank.initial_balance);
  }
  std::unique_ptr<Protocol> protocol = MakeProtocol(config.protocol, &table);

  StressResult result;
  result.initial_sum = table.SumValues();

  std::vector<ThreadOutcome> outcomes(
      static_cast<size_t>(config.num_threads));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config.num_threads));
  for (int tid = 0; tid < config.num_threads; ++tid) {
    threads.emplace_back(RunWorker, std::cref(config), protocol.get(), tid,
                         &outcomes[static_cast<size_t>(tid)]);
  }
  for (std::thread& t : threads) t.join();

  for (ThreadOutcome& out : outcomes) {
    result.committed += out.committed;
    result.aborted += out.aborted;
    result.gave_up += out.gave_up;
    for (CommittedTxn& txn : out.history) {
      result.history.push_back(std::move(txn));
    }
  }
  result.final_sum = table.SumValues();
  return result;
}

}  // namespace elastic::oltp::cc
