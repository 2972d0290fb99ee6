#ifndef ELASTICORE_OLTP_OLTP_CLIENT_H_
#define ELASTICORE_OLTP_OLTP_CLIENT_H_

#include <deque>
#include <set>
#include <vector>

#include "oltp/admission.h"
#include "oltp/latency.h"
#include "oltp/txn.h"
#include "oltp/txn_engine.h"
#include "ossim/machine.h"

namespace elastic::oltp {

/// Arrival schedule of the open-loop OLTP workload. Unlike the closed-loop
/// exec::ClientDriver (a client waits for its completion before resubmitting),
/// arrivals here are a fixed function of time: when the engine falls behind,
/// requests queue and the latency tail grows instead of the offered load
/// shrinking — the regime in which an SLO is meaningful at all.
struct OltpWorkload {
  /// Total transactions to submit.
  int64_t total_txns = 1000;
  /// Mean inter-arrival gap in ticks during normal operation.
  int64_t arrival_interval_ticks = 4;
  /// NewOrder fraction of the mix (the rest are Payments).
  double new_order_fraction = 0.5;

  /// Optional periodic bursts: during the LAST `burst_length_ticks` of every
  /// `burst_period_ticks` window, arrivals speed up to
  /// `burst_interval_ticks`. `burst_period_ticks` 0 disables bursts. Bursts
  /// are what force the arbiter to *react* — a static split sized for the
  /// average rate drowns during them — and they sit at the window's end so
  /// the first one only fires after the co-located tenants have settled into
  /// steady state. `burst_interval_ticks` 0 is the past-saturation extreme:
  /// ~2 arrivals per tick, an offered load no max_cores allocation can serve
  /// — the regime where admission control, not core motion, must protect
  /// the tail.
  int64_t burst_period_ticks = 0;
  int64_t burst_length_ticks = 0;
  int64_t burst_interval_ticks = 1;
};

/// Open-loop NewOrder/Payment submitter with per-transaction latency
/// recording and an admission gate. The full arrival schedule and the
/// request stream are precomputed from the seed, so two runs with equal
/// seeds offer byte-identical workloads at identical ticks regardless of how
/// the engine behaves in between. Every arrival passes through the
/// AdmissionController before touching the engine; a rejected arrival
/// retries after a backoff until AdmissionConfig::max_retries is spent and
/// then counts as failed, so shed work is first-class in the accounting:
/// offered = completed + failed + still-pending, and goodput is the
/// completed count. Admitted transactions take the engine's partition-latch
/// path, which never aborts, so each completes exactly once.
class OltpClient {
 public:
  OltpClient(ossim::Machine* machine, TxnEngine* engine,
             const OltpWorkload& workload, uint64_t seed,
             const AdmissionConfig& admission = AdmissionConfig{});

  OltpClient(const OltpClient&) = delete;
  OltpClient& operator=(const OltpClient&) = delete;

  /// Registers the arrival tick hook. Call once before stepping the machine.
  void Start();

  /// True when every transaction has been accounted for: completed or
  /// (shed with retries exhausted) failed, with no admission retry still
  /// pending.
  bool AllDone() const {
    return arrived_ == workload_.total_txns && retry_queue_.empty() &&
           latencies_.count() + failed_ == workload_.total_txns;
  }

  const LatencyRecorder& latencies() const { return latencies_; }
  const AdmissionController& admission() const { return admission_; }
  /// Arrivals drawn from the schedule so far (admitted or not).
  int64_t arrived() const { return arrived_; }
  /// Transactions handed to the engine (admitted arrivals + admitted
  /// retries).
  int64_t submitted() const { return submitted_; }
  int64_t completed() const { return latencies_.count(); }
  /// Transactions dropped after exhausting their retries (immediately when
  /// max_retries is 0). completed() + failed() converges on total_txns;
  /// goodput is completed() over the run time.
  int64_t failed() const { return failed_; }
  /// Shed *events* (one arrival shed n times counts n; the admission
  /// controller's view of how often the gate closed).
  int64_t shed_events() const { return admission_.shed(); }
  /// Rejected arrivals that re-entered the schedule after backoff.
  int64_t retries() const { return retries_; }

  /// Age of the oldest still-unfinished transaction in simulated seconds
  /// (-1 when none is in flight). The *leading* tail signal: a completed-
  /// latency percentile cannot report a violation until the delayed
  /// transactions finally finish, which during queue buildup is exactly too
  /// late; the oldest in-flight age is a lower bound on the p100 that the
  /// current queue will eventually produce.
  double OldestInFlightAgeSeconds(simcore::Tick now) const {
    if (in_flight_.empty()) return -1.0;
    return simcore::Clock::ToSeconds(now - *in_flight_.begin());
  }

  /// The tail signal admission and arbitration both feed on: the worse of
  /// the recent completed p99 and the oldest in-flight age.
  double TailSignalSeconds(simcore::Tick now, simcore::Tick window) const {
    return std::max(latencies_.WindowPercentileSeconds(0.99, now, window),
                    OldestInFlightAgeSeconds(now));
  }

  /// Sheds per simulated second over the trailing window (see
  /// AdmissionController::RecentShedRate); the slo_aware arbiter's kShed
  /// telemetry signal.
  double RecentShedRate(simcore::Tick now, simcore::Tick window_ticks) const {
    return admission_.RecentShedRate(now, window_ticks);
  }

 private:
  struct RetryEntry {
    simcore::Tick due = 0;
    TxnRequest request;
    int attempts = 1;  // shed count so far for this transaction
  };

  void PumpArrivals(simcore::Tick now);
  /// Admission decision + submit/retry/fail bookkeeping for one request.
  void Offer(simcore::Tick now, const TxnRequest& request, int attempts);

  ossim::Machine* machine_;
  TxnEngine* engine_;
  OltpWorkload workload_;
  TxnMix mix_;
  simcore::Rng arrival_rng_;
  AdmissionController admission_;

  /// Precomputed arrival schedule (ascending ticks), one per transaction.
  std::vector<simcore::Tick> arrivals_;
  /// Rejected arrivals waiting out their backoff (ascending due ticks:
  /// retries are appended with a fixed backoff, so later rejections are due
  /// later).
  std::deque<RetryEntry> retry_queue_;
  /// Submit ticks of in-flight transactions (multiset: several can share a
  /// tick).
  std::multiset<simcore::Tick> in_flight_;
  int64_t arrived_ = 0;
  int64_t submitted_ = 0;
  int64_t failed_ = 0;
  int64_t retries_ = 0;
  simcore::Tick started_at_ = 0;
  LatencyRecorder latencies_;
  bool started_ = false;
};

}  // namespace elastic::oltp

#endif  // ELASTICORE_OLTP_OLTP_CLIENT_H_
