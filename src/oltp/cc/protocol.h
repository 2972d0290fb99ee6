#ifndef ELASTICORE_OLTP_CC_PROTOCOL_H_
#define ELASTICORE_OLTP_CC_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "oltp/cc/history.h"
#include "oltp/cc/table.h"

namespace elastic::oltp::cc {

/// The pluggable concurrency-control protocols of the transaction engine.
enum class ProtocolKind {
  /// The baseline: coarse partition-granularity locking. Inside the machine
  /// simulation with the classic NewOrder/Payment workload this is the
  /// original partition-*latch* path (FIFO queueing, never aborts); driven
  /// through the generic protocol interface (multi-partition transactions,
  /// real threads) it becomes no-wait exclusive partition locks — the same
  /// discipline, abort instead of queue on conflict.
  kPartitionLock,
  /// Strict two-phase locking over per-record reader-writer locks with
  /// no-wait deadlock avoidance: any lock conflict (including a failed
  /// read->write upgrade) aborts the requester immediately, so waits-for
  /// cycles cannot form. Locks are held to commit/abort (strictness), which
  /// is what makes recorded histories conflict-serializable.
  kTwoPhaseLock,
  /// TicToc-style timestamp OCC: reads record the observed (wts, rts)
  /// interval, writes are buffered, and commit locks the write set (in key
  /// order), derives a commit timestamp, and validates the read set —
  /// extending read timestamps where possible, aborting where a validated
  /// interval cannot contain the commit timestamp.
  kTicToc,
};

const char* ProtocolKindName(ProtocolKind kind);
/// Parses "partition_lock" / "two_phase_lock" / "tictoc". Returns false on
/// unknown names.
bool ProtocolKindFromName(const std::string& name, ProtocolKind* kind);

/// Configuration of the CC layer carried inside TxnEngineOptions.
struct CcConfig {
  ProtocolKind protocol = ProtocolKind::kPartitionLock;
  /// Size of the dense CC key space (records of the Table).
  int64_t num_records = 65536;
  /// Partition count of the PartitionLock protocol (contiguous key ranges).
  int num_partitions = 16;
  /// Record CommittedTxn footprints for every commit (serializability
  /// checking; costs memory proportional to the run).
  bool record_history = false;
};

/// Per-transaction context: read/write sets and held locks. Owned by the
/// executor (one per in-flight transaction or per worker thread), reused
/// across transactions via Begin().
struct TxnCtx {
  struct ReadEntry {
    uint64_t key = 0;
    /// Version observed (lock protocols) or wts (TicToc).
    uint64_t version = 0;
    /// TicToc: rts of the observed interval.
    uint64_t rts = 0;
    int64_t value = 0;
  };
  struct WriteEntry {
    uint64_t key = 0;
    int64_t value = 0;
  };
  enum class LockMode : uint8_t { kRead, kWrite };
  struct LockEntry {
    /// Record key (2PL) or partition index (PartitionLock).
    uint64_t target = 0;
    LockMode mode = LockMode::kRead;
  };

  uint64_t txn_id = 0;
  bool active = false;
  std::vector<ReadEntry> reads;
  std::vector<WriteEntry> writes;
  std::vector<LockEntry> locks;

  WriteEntry* FindWrite(uint64_t key) {
    for (WriteEntry& w : writes) {
      if (w.key == key) return &w;
    }
    return nullptr;
  }
  const ReadEntry* FindRead(uint64_t key) const {
    for (const ReadEntry& r : reads) {
      if (r.key == key) return &r;
    }
    return nullptr;
  }
};

/// A concurrency-control protocol over one Table. Implementations are
/// thread-safe: the same object is driven single-threaded by the machine
/// simulation and by concurrent std::thread workers in the stress harness.
///
/// Contract: Begin, then any sequence of Get/Put, then exactly one of
/// Commit or Abort. Get/Put returning false means the transaction must be
/// aborted by the caller (no-wait conflict); Commit returning false means
/// validation failed and the protocol already rolled the transaction back —
/// either way the caller retries with a fresh Begin. Get sees the
/// transaction's own buffered writes.
class Protocol {
 public:
  explicit Protocol(Table* table) : table_(table) {}
  virtual ~Protocol() = default;

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  virtual ProtocolKind kind() const = 0;
  const char* name() const { return ProtocolKindName(kind()); }

  virtual void Begin(TxnCtx& ctx, uint64_t txn_id);
  virtual bool Get(TxnCtx& ctx, uint64_t key, int64_t* value) = 0;
  virtual bool Put(TxnCtx& ctx, uint64_t key, int64_t value) = 0;
  /// On success fills `committed` (when non-null) with the transaction's
  /// footprint for serializability checking.
  virtual bool Commit(TxnCtx& ctx, CommittedTxn* committed) = 0;
  virtual void Abort(TxnCtx& ctx) = 0;

  Table& table() { return *table_; }

 protected:
  Table* table_;
};

std::unique_ptr<Protocol> MakeProtocol(ProtocolKind kind, Table* table);

}  // namespace elastic::oltp::cc

#endif  // ELASTICORE_OLTP_CC_PROTOCOL_H_
