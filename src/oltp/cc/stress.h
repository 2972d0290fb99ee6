#ifndef ELASTICORE_OLTP_CC_STRESS_H_
#define ELASTICORE_OLTP_CC_STRESS_H_

#include <cstdint>
#include <vector>

#include "oltp/cc/history.h"
#include "oltp/cc/protocol.h"
#include "oltp/cc/workload.h"

namespace elastic::oltp::cc {

/// Configuration of a multi-threaded concurrency-control stress run: real
/// std::thread workers hammering one protocol instance, each retrying its
/// transactions until commit (or the attempt cap). This is the harness
/// behind the serializability and invariant tests — the machine simulation
/// exercises the protocols deterministically, this exercises them under
/// genuine interleavings (and under ThreadSanitizer in CI).
struct StressConfig {
  ProtocolKind protocol = ProtocolKind::kTwoPhaseLock;
  WorkloadKind workload = WorkloadKind::kYcsb;
  YcsbConfig ycsb;
  SmallBankConfig smallbank;
  int num_threads = 8;
  int txns_per_thread = 1000;
  uint64_t seed = 42;
  /// Per-transaction attempt cap; a transaction still aborted after this
  /// many tries is dropped (counted in gave_up, data left untouched). With
  /// CommitWithRetry's backoff the default spans about ten seconds.
  int max_attempts = 10000;
  bool record_history = true;
};

struct StressResult {
  int64_t committed = 0;
  /// Abort events (a transaction retried N times contributes N).
  int64_t aborted = 0;
  /// Transactions dropped after max_attempts.
  int64_t gave_up = 0;
  int64_t initial_sum = 0;
  int64_t final_sum = 0;
  /// Merged commit footprints of all threads (when record_history).
  std::vector<CommittedTxn> history;
};

StressResult RunCcStress(const StressConfig& config);

/// Runs `txn` as transaction `txn_id` until it commits or `max_attempts`
/// attempts have aborted, adding one to *aborts per abort. After an abort it
/// yields for the first few attempts, then sleeps with exponentially growing
/// waits capped at 1 ms, so the attempts span seconds of wall time and a
/// descheduled lock holder gets to finish however loaded the host is. On
/// commit fills `committed` (when non-null) and returns true.
bool CommitWithRetry(Protocol& protocol, TxnCtx& ctx, const CcTxn& txn,
                     uint64_t txn_id, int max_attempts,
                     CommittedTxn* committed, int64_t* aborts);

}  // namespace elastic::oltp::cc

#endif  // ELASTICORE_OLTP_CC_STRESS_H_
