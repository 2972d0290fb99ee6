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
  // Due admission retries first: offered (and rejected) before the arrivals
  // that are due this tick.
  while (!retry_queue_.empty() && retry_queue_.front().due <= rel) {
    const RetryEntry entry = retry_queue_.front();
    retry_queue_.pop_front();
    retries_++;
    Offer(now, entry.request, entry.attempts);
  }
  while (arrived_ < workload_.total_txns &&
         arrivals_[static_cast<size_t>(arrived_)] <= rel) {
    arrived_++;
    Offer(now, mix_.Next(), /*attempts=*/0);
  }
}

void OltpClient::Offer(simcore::Tick now, const TxnRequest& request,
                       int attempts) {
  if (admission_.Admit(now, static_cast<int64_t>(in_flight_.size()))) {
    submitted_++;
    in_flight_.insert(now);
    engine_->Submit(request, [this, now](bool) {
      const simcore::Tick done = machine_->clock().now();
      in_flight_.erase(in_flight_.find(now));
      latencies_.Record(done, done - now);
    });
    return;
  }
  // Shed. The request keeps its identity (row neighbourhoods, partition)
  // across retries — a retried transaction is the same work arriving later,
  // not a fresh draw from the mix.
  if (attempts + 1 <= admission_.config().max_retries) {
    RetryEntry entry;
    entry.due = (now - started_at_) + admission_.config().retry_backoff_ticks;
    entry.request = request;
    entry.attempts = attempts + 1;
    retry_queue_.push_back(entry);
    return;
  }
  failed_++;
}

}  // namespace elastic::oltp
