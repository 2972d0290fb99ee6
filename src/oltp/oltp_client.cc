#include "oltp/oltp_client.h"

#include <algorithm>

#include "simcore/check.h"

namespace elastic::oltp {

OltpClient::OltpClient(ossim::Machine* machine, TxnEngine* engine,
                       const OltpWorkload& workload, uint64_t seed,
                       const AdmissionConfig& admission)
    : machine_(machine),
      engine_(engine),
      workload_(workload),
      mix_(seed, engine->options().num_partitions,
           workload.new_order_fraction),
      arrival_rng_(seed ^ 0xA5A5A5A5ULL),
      admission_(admission, [this](simcore::Tick now) {
        return TailSignalSeconds(now, admission_.config().probe_window_ticks);
      }) {
  ELASTIC_CHECK(workload_.total_txns >= 1, "need at least one transaction");
  ELASTIC_CHECK(workload_.arrival_interval_ticks >= 1,
                "arrival interval must be >= 1 tick");
  ELASTIC_CHECK(workload_.burst_interval_ticks >= 0,
                "burst interval must be >= 0 ticks (0 = ~2 arrivals/tick)");

  // Record-level workloads: build the deterministic generator and (for
  // SmallBank) seed the opening balances. The classic mix touches none of
  // this — its TxnMix and arrival streams stay bit-for-bit unchanged.
  if (workload_.kind == cc::WorkloadKind::kYcsb) {
    ELASTIC_CHECK(
        engine->options().cc.num_records >= workload_.ycsb.num_records,
        "engine CC table smaller than the YCSB key space");
    ycsb_gen_ = std::make_unique<cc::YcsbGenerator>(workload_.ycsb,
                                                    seed ^ 0xC001D00DULL);
  } else if (workload_.kind == cc::WorkloadKind::kSmallBank) {
    ELASTIC_CHECK(engine->options().cc.num_records >=
                      cc::SmallBankNumRecords(workload_.smallbank),
                  "engine CC table smaller than the SmallBank key space");
    smallbank_gen_ = std::make_unique<cc::SmallBankGenerator>(
        workload_.smallbank, seed ^ 0xC001D00DULL);
    engine->cc_table().FillValues(workload_.smallbank.initial_balance);
  }

  // Precompute the open-loop schedule: a fixed-rate stream with ±50%
  // deterministic jitter per gap, switching to the burst rate inside burst
  // windows. The schedule depends only on the seed and the workload shape.
  arrivals_.reserve(static_cast<size_t>(workload_.total_txns));
  simcore::Tick at = 0;
  for (int64_t i = 0; i < workload_.total_txns; ++i) {
    arrivals_.push_back(at);
    int64_t interval = workload_.arrival_interval_ticks;
    if (workload_.burst_period_ticks > 0 &&
        at % workload_.burst_period_ticks >=
            workload_.burst_period_ticks - workload_.burst_length_ticks) {
      interval = workload_.burst_interval_ticks;
    }
    if (interval == 0) {
      // Past-saturation burst: gaps drawn from {0, 1} (~2 arrivals/tick).
      // A plain gap of 0 would freeze `at` inside the burst window forever.
      at += static_cast<int64_t>(arrival_rng_.NextBounded(2));
    } else {
      // Jitter in [interval/2, interval*3/2]; floor at one tick.
      const int64_t jitter = static_cast<int64_t>(
          arrival_rng_.NextBounded(static_cast<uint64_t>(interval) + 1));
      at += std::max<int64_t>(1, interval / 2 + jitter);
    }
  }
}

void OltpClient::Start() {
  ELASTIC_CHECK(!started_, "client started twice");
  started_ = true;
  started_at_ = machine_->clock().now();
  machine_->AddTickHook([this](simcore::Tick now) { PumpArrivals(now); });
  PumpArrivals(machine_->clock().now());
}

void OltpClient::PumpArrivals(simcore::Tick now) {
  const simcore::Tick rel = now - started_at_;
  // Due post-abort resubmissions first: that work was admitted before
  // anything arriving this tick. The queue is not due-ordered (backoff
  // scales with attempts), so scan it.
  for (size_t i = 0; i < cc_retry_queue_.size();) {
    if (cc_retry_queue_[i].due > rel) {
      ++i;
      continue;
    }
    const CcRetryEntry entry = std::move(cc_retry_queue_[i]);
    cc_retry_queue_.erase(cc_retry_queue_.begin() +
                          static_cast<std::ptrdiff_t>(i));
    cc_retries_++;
    SubmitToEngine(entry.request, entry.cc, entry.first_submit,
                   entry.attempts);
  }
  // Then due admission retries: offered (and rejected) before the arrivals
  // that are due this tick.
  while (!retry_queue_.empty() && retry_queue_.front().due <= rel) {
    const RetryEntry entry = retry_queue_.front();
    retry_queue_.pop_front();
    retries_++;
    Offer(now, entry.request, entry.cc, entry.attempts);
  }
  while (arrived_ < workload_.total_txns &&
         arrivals_[static_cast<size_t>(arrived_)] <= rel) {
    TxnRequest request;
    cc::CcTxn cc;
    if (ycsb_gen_) {
      request.id = arrived_;
      cc = ycsb_gen_->Next();
    } else if (smallbank_gen_) {
      request.id = arrived_;
      cc = smallbank_gen_->Next();
    } else {
      request = mix_.Next();
    }
    arrived_++;
    Offer(now, request, cc, /*attempts=*/0);
  }
}

void OltpClient::Offer(simcore::Tick now, const TxnRequest& request,
                       const cc::CcTxn& cc, int attempts) {
  if (admission_.Admit(now, static_cast<int64_t>(in_flight_.size()))) {
    SubmitToEngine(request, cc, /*first_submit=*/now, /*cc_attempts=*/0);
    return;
  }
  // Shed. The request keeps its identity (row neighbourhoods, partition)
  // across retries — a retried transaction is the same work arriving later,
  // not a fresh draw from the mix.
  if (admission_.config().retry_rejected &&
      attempts + 1 <= admission_.config().max_retries) {
    RetryEntry entry;
    entry.due = (now - started_at_) + admission_.config().retry_backoff_ticks;
    entry.request = request;
    entry.cc = cc;
    entry.attempts = attempts + 1;
    retry_queue_.push_back(entry);
    return;
  }
  failed_++;
}

void OltpClient::SubmitToEngine(const TxnRequest& request,
                                const cc::CcTxn& cc,
                                simcore::Tick first_submit, int cc_attempts) {
  submitted_++;
  // The in-flight entry is keyed by the FIRST submission tick and survives
  // aborts: an aborted-then-retried transaction has been in flight since it
  // was first admitted, and both its recorded latency and the oldest-
  // in-flight age signal must measure from there.
  if (cc_attempts == 0) in_flight_.insert(first_submit);
  auto on_complete = [this, request, cc, first_submit,
                      cc_attempts](bool committed) {
    const simcore::Tick done = machine_->clock().now();
    if (committed) {
      last_completion_ = done;
      in_flight_.erase(in_flight_.find(first_submit));
      latencies_.Record(done, done - first_submit);
      return;
    }
    // CC abort: resubmit after a backoff, bypassing admission (the work was
    // admitted once already). The backoff grows with the attempt count and
    // is staggered per transaction id — two transactions that aborted on
    // each other and share a due tick would otherwise re-collide forever,
    // a deterministic livelock the single-threaded simulation cannot break
    // by chance.
    cc_aborts_++;
    const int64_t backoff =
        std::max<int64_t>(1, engine_->options().cc.retry_backoff_ticks);
    const int attempts = cc_attempts + 1;
    CcRetryEntry entry;
    entry.due = (done - started_at_) +
                backoff * std::min<int64_t>(attempts, 8) +
                request.id % backoff;
    entry.request = request;
    entry.cc = cc;
    entry.first_submit = first_submit;
    entry.attempts = attempts;
    cc_retry_queue_.push_back(std::move(entry));
  };
  if (workload_.kind == cc::WorkloadKind::kNewOrderPayment) {
    engine_->Submit(request, std::move(on_complete));
  } else {
    engine_->Submit(request, cc, std::move(on_complete));
  }
}

}  // namespace elastic::oltp
