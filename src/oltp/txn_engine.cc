#include "oltp/txn_engine.h"

#include <algorithm>
#include <utility>

#include "mem/sim_placement.h"
#include "simcore/check.h"

namespace elastic::oltp {
namespace {

/// Rows of the customer neighbourhood both transaction profiles read.
constexpr int64_t kCustomerRows = 64;
/// Pages of the engine-owned write area each partition appends order and
/// line rows into (cycled deterministically, modelling a redo log slab).
constexpr int64_t kLogPagesPerPartition = 32;
static_assert(kLogPagesPerPartition >= 2,
              "log slab needs >= 2 pages per partition");
/// Keys per simulated page when mapping CC operations onto page-access
/// jobs (the simulator's cost model).
constexpr int64_t kCcRowsPerPage = 64;
static_assert(kCcRowsPerPage >= 1, "need >= 1 row per page");

}  // namespace

const char* TxnTypeName(TxnType type) {
  switch (type) {
    case TxnType::kNewOrder: return "new_order";
    case TxnType::kPayment: return "payment";
  }
  return "?";
}

TxnEngine::TxnEngine(ossim::Machine* machine,
                     const exec::BaseCatalog* catalog,
                     const TxnEngineOptions& options)
    : machine_(machine), catalog_(catalog), options_(options) {
  ELASTIC_CHECK(options_.num_partitions >= 1, "need at least one partition");
  const int pool = options_.pool_size > 0
                       ? options_.pool_size
                       : machine_->topology().total_cores();
  ELASTIC_CHECK(pool >= 1, "worker pool must not be empty");

  log_buffer_ = machine_->page_table().CreateBuffer(
      static_cast<int64_t>(options_.num_partitions) * kLogPagesPerPartition,
      "oltp.log");
  mem::ApplyPlacement(&machine_->page_table(), log_buffer_,
                      options_.mem_policy, options_.mem_island);
  log_cursor_.assign(static_cast<size_t>(options_.num_partitions), 0);
  latch_busy_.assign(static_cast<size_t>(options_.num_partitions), false);
  latch_queue_.resize(static_cast<size_t>(options_.num_partitions));

  auto on_job_done = [this](ossim::ThreadId worker) { OnJobDone(worker); };
  for (int w = 0; w < pool; ++w) {
    const ossim::ThreadId id = machine_->scheduler().SpawnWorker(
        std::nullopt, on_job_done, options_.cpuset);
    workers_.push_back(id);
    idle_workers_.push_back(id);
  }
}

ossim::PageRange TxnEngine::BaseRange(const std::string& table_column,
                                      int partition, double offset,
                                      int64_t rows) const {
  ELASTIC_CHECK(catalog_ != nullptr,
                "the classic latch path needs a base catalog (CC-only "
                "deployments may pass none)");
  const int64_t total_rows = catalog_->RowsOf(table_column);
  const int64_t total_pages = catalog_->PagesOf(table_column);
  const int64_t part_rows =
      std::max<int64_t>(1, total_rows / options_.num_partitions);
  const int64_t row_begin =
      partition * part_rows +
      static_cast<int64_t>(offset * static_cast<double>(part_rows));
  const int64_t rows_per_page = std::max<int64_t>(
      1, total_rows / std::max<int64_t>(1, total_pages));
  ossim::PageRange range;
  range.buffer = catalog_->BufferOf(table_column);
  range.begin = std::min(row_begin / rows_per_page, total_pages - 1);
  range.end = std::min(range.begin + std::max<int64_t>(1, rows / rows_per_page + 1),
                       total_pages);
  return range;
}

ossim::Job TxnEngine::JobFor(const TxnRequest& request) {
  ossim::Job job;
  const int p = request.partition;
  const int64_t slab_base =
      static_cast<int64_t>(p) * kLogPagesPerPartition;
  auto log_range = [&](int64_t pages) {
    // Append-style cycling cursor inside the partition's slab; a write that
    // would run past the slab end wraps to the start instead (every
    // transaction profile appends its full page count).
    int64_t& cursor = log_cursor_[static_cast<size_t>(p)];
    if (cursor + pages > kLogPagesPerPartition) cursor = 0;
    ossim::PageRange range;
    range.buffer = log_buffer_;
    range.begin = slab_base + cursor;
    range.end = range.begin + pages;
    range.write = true;
    cursor = (cursor + pages) % kLogPagesPerPartition;
    return range;
  };

  switch (request.type) {
    case TxnType::kNewOrder:
      // Stock check over a partsupp neighbourhood, customer read, then the
      // order + line append (two log pages).
      job.ranges.push_back(BaseRange("partsupp.ps_availqty", p,
                                     request.stock_offset,
                                     options_.neworder_stock_rows));
      job.ranges.push_back(BaseRange("customer.c_acctbal", p,
                                     request.customer_offset, kCustomerRows));
      job.ranges.push_back(log_range(2));
      break;
    case TxnType::kPayment:
      // Balance read + rewrite of one customer neighbourhood page.
      job.ranges.push_back(BaseRange("customer.c_acctbal", p,
                                     request.customer_offset, kCustomerRows));
      job.ranges.push_back(log_range(1));
      break;
  }
  job.cpu_cycles_per_page = options_.cpu_cycles_per_page;
  return job;
}

void TxnEngine::Submit(const TxnRequest& request,
                       std::function<void(bool)> on_complete) {
  ELASTIC_CHECK(request.partition >= 0 &&
                    request.partition < options_.num_partitions,
                "partition out of range");
  ELASTIC_CHECK(options_.cc.protocol == cc::ProtocolKind::kPartitionLock,
                "classic NewOrder/Payment runs on the partition latches only: "
                "cc.protocol must be partition_lock");
  active_++;
  PendingTxn txn;
  txn.request = request;
  txn.on_complete = std::move(on_complete);
  const auto p = static_cast<size_t>(request.partition);
  if (latch_busy_[p]) {
    latch_waits_++;
    latch_queue_[p].push_back(std::move(txn));
    return;
  }
  latch_busy_[p] = true;
  Dispatch(std::move(txn));
}

void TxnEngine::Submit(const TxnRequest& request, const cc::CcTxn& txn,
                       std::function<void(bool)> on_complete) {
  EnsureCcState();
  PendingTxn pending;
  pending.request = request;
  pending.on_complete = std::move(on_complete);
  pending.is_cc = true;
  pending.cc = txn;
  active_++;
  Dispatch(std::move(pending));
}

void TxnEngine::EnsureCcState() {
  if (cc_state_) return;
  ELASTIC_CHECK(options_.cc.num_records >= 1, "CC table must not be empty");
  cc_state_ = std::make_unique<CcState>(options_.cc.num_records,
                                        options_.cc.num_partitions);
  cc_state_->protocol =
      cc::MakeProtocol(options_.cc.protocol, &cc_state_->table);
  const int64_t pages =
      (options_.cc.num_records + kCcRowsPerPage - 1) / kCcRowsPerPage;
  cc_state_->buffer = machine_->page_table().CreateBuffer(pages, "oltp.cc");
  mem::ApplyPlacement(&machine_->page_table(), cc_state_->buffer,
                      options_.mem_policy, options_.mem_island);
}

double TxnEngine::RemotePageFraction() const {
  int64_t pages = 0;
  int64_t remote = 0;
  const ossim::Scheduler& scheduler = machine_->scheduler();
  for (const ossim::ThreadId id : workers_) {
    const ossim::Thread& worker = scheduler.thread(id);
    pages += worker.pages_processed;
    remote += worker.remote_pages;
  }
  if (pages == 0) return -1.0;
  return static_cast<double>(remote) / static_cast<double>(pages);
}

std::vector<int64_t> TxnEngine::ResidentPagesPerNode() const {
  const numasim::PageTable& pages = machine_->page_table();
  std::vector<int64_t> resident(static_cast<size_t>(pages.num_nodes()), 0);
  for (int node = 0; node < pages.num_nodes(); ++node) {
    resident[static_cast<size_t>(node)] =
        pages.ResidentPagesOfBuffer(log_buffer_, node) +
        (cc_state_ ? pages.ResidentPagesOfBuffer(cc_state_->buffer, node) : 0);
  }
  return resident;
}

ossim::Job TxnEngine::ExecuteCc(PendingTxn& txn) {
  cc::Protocol& protocol = *cc_state_->protocol;
  protocol.Begin(txn.ctx, static_cast<uint64_t>(txn.request.id));
  std::vector<uint64_t> touched;
  if (!cc::ExecuteCcTxn(protocol, txn.ctx, txn.cc, &touched)) {
    // No-wait conflict mid-transaction: roll back now; the job below still
    // charges the attempted operations (the wasted work of the abort).
    protocol.Abort(txn.ctx);
    txn.pre_aborted = true;
    cc_lock_conflicts_++;
  }

  // Map the touched keys onto pages of the CC buffer: sorted, deduplicated,
  // adjacent pages merged into ranges. The whole job is marked as writing
  // when the transaction buffered any write (log + install traffic).
  std::vector<int64_t> pages;
  pages.reserve(touched.size());
  for (const uint64_t key : touched) {
    pages.push_back(static_cast<int64_t>(key) / kCcRowsPerPage);
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  if (pages.empty()) pages.push_back(0);

  ossim::Job job;
  job.cpu_cycles_per_page = options_.cpu_cycles_per_page;
  const bool writes = !txn.ctx.writes.empty();
  ossim::PageRange range;
  range.buffer = cc_state_->buffer;
  range.begin = pages.front();
  range.end = pages.front() + 1;
  range.write = writes;
  for (size_t i = 1; i < pages.size(); ++i) {
    if (pages[i] == range.end) {
      range.end++;
      continue;
    }
    job.ranges.push_back(range);
    range.begin = pages[i];
    range.end = pages[i] + 1;
  }
  job.ranges.push_back(range);
  return job;
}

bool TxnEngine::ThrottledByCpuset() const {
  if (!options_.concurrency_follow_cpuset) return false;
  const int width =
      machine_->scheduler().cpuset_mask(options_.cpuset).Count();
  // A zero-width cpuset still admits one transaction: the arbiter never
  // installs an empty tenant mask, but a transient reading must not
  // deadlock the engine.
  return static_cast<int>(running_.size()) >= std::max(1, width);
}

void TxnEngine::Dispatch(PendingTxn txn) {
  if (idle_workers_.empty() || ThrottledByCpuset()) {
    runnable_.push_back(std::move(txn));
    return;
  }
  const ossim::ThreadId worker = idle_workers_.front();
  idle_workers_.pop_front();
  ossim::Job job = txn.is_cc ? ExecuteCc(txn) : JobFor(txn.request);
  running_.emplace(worker, std::move(txn));
  machine_->scheduler().AssignJob(worker, std::move(job));
}

void TxnEngine::OnJobDone(ossim::ThreadId worker) {
  auto it = running_.find(worker);
  ELASTIC_CHECK(it != running_.end(), "completion from unknown worker");
  PendingTxn done = std::move(it->second);
  running_.erase(it);
  idle_workers_.push_back(worker);

  if (done.is_cc) {
    // Commit at job completion: the job's duration was the transaction's
    // lifetime, i.e. the window in which others could conflict with it.
    bool committed = false;
    if (!done.pre_aborted) {
      cc::CommittedTxn footprint;
      committed = cc_state_->protocol->Commit(
          done.ctx, options_.cc.record_history ? &footprint : nullptr);
      if (committed) {
        if (options_.cc.record_history) {
          cc_state_->history.push_back(std::move(footprint));
        }
      } else {
        cc_validation_failures_++;
      }
    }
    const simcore::Tick now = machine_->clock().now();
    if (committed) {
      completed_++;
      cc_commits_++;
      cc_window_.RecordCommit(now);
    } else {
      cc_window_.RecordAbort(now);
    }
    active_--;

    while (!runnable_.empty() && !idle_workers_.empty() &&
           !ThrottledByCpuset()) {
      PendingTxn next = std::move(runnable_.front());
      runnable_.pop_front();
      Dispatch(std::move(next));
    }

    if (done.on_complete) done.on_complete(committed);
    return;
  }

  completed_++;
  active_--;

  // Release the partition latch; the next waiter (if any) takes it
  // immediately and becomes runnable.
  const auto p = static_cast<size_t>(done.request.partition);
  ELASTIC_CHECK(latch_busy_[p], "completion on an unlatched partition");
  if (latch_queue_[p].empty()) {
    latch_busy_[p] = false;
  } else {
    PendingTxn next = std::move(latch_queue_[p].front());
    latch_queue_[p].pop_front();
    runnable_.push_back(std::move(next));
  }

  // Drain runnable transactions onto idle workers (the just-freed worker
  // plus any others parked while latches were busy).
  while (!runnable_.empty() && !idle_workers_.empty() &&
         !ThrottledByCpuset()) {
    PendingTxn next = std::move(runnable_.front());
    runnable_.pop_front();
    Dispatch(std::move(next));
  }

  if (done.on_complete) done.on_complete(true);
}

double TxnEngine::RecentAbortFraction(simcore::Tick now,
                                      simcore::Tick window_ticks) const {
  return cc_window_.Fraction(now, window_ticks);
}

double TxnEngine::RecentCommitRate(simcore::Tick now,
                                   simcore::Tick window_ticks) const {
  return cc_window_.CommitRate(now, window_ticks);
}

int64_t TxnEngine::RecentAttempts(simcore::Tick now,
                                  simcore::Tick window_ticks) const {
  return cc_window_.AttemptsInWindow(now, window_ticks);
}

cc::Table& TxnEngine::cc_table() {
  EnsureCcState();
  return cc_state_->table;
}

const std::vector<cc::CommittedTxn>& TxnEngine::cc_history() const {
  static const std::vector<cc::CommittedTxn> kEmpty;
  return cc_state_ ? cc_state_->history : kEmpty;
}

}  // namespace elastic::oltp
