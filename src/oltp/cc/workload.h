#ifndef ELASTICORE_OLTP_CC_WORKLOAD_H_
#define ELASTICORE_OLTP_CC_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "oltp/cc/protocol.h"
#include "simcore/rng.h"

namespace elastic::oltp::cc {

/// The record-level transaction workloads the OLTP engine can run through
/// the pluggable concurrency-control layer.
enum class WorkloadKind {
  /// YCSB-style read-modify-write transactions over a dense key space with
  /// a Zipfian skew knob.
  kYcsb,
  /// SmallBank: two rows per account (savings = 2a, checking = 2a + 1) and
  /// the classic six transaction profiles. With transfers_only the mix is
  /// restricted to balance-conserving profiles, so the total balance is an
  /// invariant any serializable execution must preserve.
  kSmallBank,
};

const char* WorkloadKindName(WorkloadKind kind);

/// Zipfian-distributed integers in [0, n) following Gray et al.,
/// "Quickly Generating Billion-Record Synthetic Databases" (SIGMOD '94) —
/// the same construction YCSB uses. theta = 0 degenerates to uniform
/// (shortcut, no zeta computation); theta in (0, 1) skews toward low keys.
/// Rank r maps to key r directly, so hot keys are adjacent and concentrate
/// on few partitions of a contiguously partitioned table.
class ZipfianGenerator {
 public:
  ZipfianGenerator(int64_t n, double theta);

  int64_t Next(simcore::Rng& rng);

  double theta() const { return theta_; }

 private:
  int64_t n_;
  double theta_;
  double zeta_n_ = 0;
  double zeta_two_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

/// SmallBank transaction profiles (H-Store/OLTP-Bench naming).
enum class SmallBankProfile : uint8_t {
  kBalance,          // read savings + checking of one account
  kDepositChecking,  // checking += amount (injects money)
  kTransactSavings,  // savings += amount (injects money)
  kAmalgamate,       // move all funds of account a into b's checking
  kWriteCheck,       // read total, checking -= amount (drains money)
  kSendPayment,      // checking a -> checking b (conserves money)
};

const char* SmallBankProfileName(SmallBankProfile profile);

/// One operation of a YCSB transaction.
struct CcOp {
  uint64_t key = 0;
  bool write = false;  // write => read-modify-write (Get then Put(v + 1))
};

/// One generated transaction, interpreted by ExecuteCcTxn. YCSB uses `ops`;
/// SmallBank uses (profile, account_a, account_b, amount).
struct CcTxn {
  WorkloadKind kind = WorkloadKind::kYcsb;
  std::vector<CcOp> ops;
  SmallBankProfile profile = SmallBankProfile::kBalance;
  int64_t account_a = 0;
  int64_t account_b = 0;
  int64_t amount = 0;
};

struct YcsbConfig {
  int64_t num_records = 65536;
  int ops_per_txn = 4;
  /// Fraction of ops that are pure reads; the rest are read-modify-writes.
  double read_fraction = 0.5;
  /// Zipfian skew of key selection; 0 = uniform.
  double theta = 0.0;
};

/// Deterministic YCSB transaction stream: a pure function of (config, seed,
/// draw index). Keys within one transaction are distinct.
class YcsbGenerator {
 public:
  YcsbGenerator(const YcsbConfig& config, uint64_t seed);

  CcTxn Next();

 private:
  YcsbConfig config_;
  ZipfianGenerator zipf_;
  simcore::Rng rng_;
};

struct SmallBankConfig {
  int64_t num_accounts = 32768;
  /// Zipfian skew of account selection; 0 = uniform.
  double theta = 0.0;
  /// Restrict the mix to balance-conserving profiles (Balance, Amalgamate,
  /// SendPayment) so sum-of-balances is a checkable invariant.
  bool transfers_only = false;
  /// Opening balance per row (savings and checking each).
  int64_t initial_balance = 1000;
};

/// Key space required by a SmallBank config: two rows per account.
inline int64_t SmallBankNumRecords(const SmallBankConfig& config) {
  return 2 * config.num_accounts;
}
inline uint64_t SmallBankSavingsKey(int64_t account) {
  return static_cast<uint64_t>(2 * account);
}
inline uint64_t SmallBankCheckingKey(int64_t account) {
  return static_cast<uint64_t>(2 * account + 1);
}

/// Deterministic SmallBank transaction stream, Zipfian over accounts.
class SmallBankGenerator {
 public:
  SmallBankGenerator(const SmallBankConfig& config, uint64_t seed);

  CcTxn Next();

 private:
  SmallBankConfig config_;
  ZipfianGenerator zipf_;
  simcore::Rng rng_;
};

/// Runs one generated transaction's operations through a protocol —
/// everything between Begin and Commit, excluding both. Returns false when
/// an operation hit a no-wait conflict; the caller must then Abort (the
/// operations already applied stay buffered/locked until it does).
///
/// `touched_keys`, when non-null, receives every key the transaction
/// attempted to touch (including the op that failed) — the engine maps
/// these onto simulated page accesses for the cost model.
bool ExecuteCcTxn(Protocol& protocol, TxnCtx& ctx, const CcTxn& txn,
                  std::vector<uint64_t>* touched_keys);

}  // namespace elastic::oltp::cc

#endif  // ELASTICORE_OLTP_CC_WORKLOAD_H_
