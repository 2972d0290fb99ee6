#ifndef ELASTICORE_OLTP_ADMISSION_H_
#define ELASTICORE_OLTP_ADMISSION_H_

#include <functional>
#include <string>
#include <vector>

#include "simcore/clock.h"

namespace elastic::oltp {

/// How the admission controller decides whether a newly arrived transaction
/// may enter the engine. Admission is the lever *after* core allocation: once
/// an SLO tenant holds its max_cores, the arbiter has nothing left to move,
/// and the only way to protect the tail is to refuse a little work early —
/// the SEDA / Breakwater overload-control insight that shedding a few
/// arrivals preserves goodput and the p99 far better than queueing them all.
enum class AdmissionPolicy {
  /// Admit everything (the pre-admission behaviour; the baseline every
  /// sweep compares against).
  kNone,
  /// Fixed threshold on the in-flight count (queued + running): arrivals
  /// beyond `max_in_flight` are shed. Simple and predictable, but the right
  /// threshold depends on the service rate, which changes whenever the
  /// arbiter moves a core.
  kQueueDepth,
  /// AIMD on the tail signal: an admission *window* (an in-flight cap, like
  /// a congestion window) grows additively while the observed tail signal —
  /// the same max(windowed p99, oldest in-flight age) the slo_aware arbiter
  /// consumes — sits below the backoff threshold, and shrinks
  /// multiplicatively when the signal crosses it. The window therefore
  /// converges onto whatever in-flight level the *current* core allocation
  /// can serve within the SLO, with no manual threshold to retune.
  kAdaptive,
};

const char* AdmissionPolicyName(AdmissionPolicy policy);
AdmissionPolicy AdmissionPolicyFromName(const std::string& name);

struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kNone;

  // -- kQueueDepth --

  /// Arrivals are shed while in-flight (queued + running) >= this.
  int64_t max_in_flight = 64;

  // -- kAdaptive (AIMD) --

  /// Tail budget the controller defends, in simulated seconds. In an HTAP
  /// deployment this is the tenant's slo_p99_s.
  double target_tail_s = 0.060;
  /// Multiplicative-decrease trigger: back off once the tail signal exceeds
  /// `backoff_ratio * target_tail_s`. Below the arbiter's own boost
  /// threshold (0.75) so shedding engages just before the arbiter starts
  /// moving cores — refusing one arrival is cheaper than migrating a core,
  /// and the arbiter still escalates if shedding alone cannot hold the tail.
  double backoff_ratio = 0.7;
  /// Window bounds and the AIMD step sizes.
  int64_t initial_window = 64;
  int64_t min_window = 4;
  int64_t max_window = 4096;
  int64_t additive_increase = 1;
  double multiplicative_decrease = 0.5;
  /// The tail signal is re-evaluated at most once per this many ticks (an
  /// arrival-driven controller would otherwise multiply-decrease on every
  /// arrival of one burst, collapsing the window to min_window instantly).
  int64_t update_period_ticks = 50;
  /// Window over which OltpClient's built-in tail probe computes the recent
  /// completed p99 (the probe itself is max(windowed p99, oldest in-flight
  /// age), mirroring the slo_aware arbiter's signal).
  int64_t probe_window_ticks = 400;

  // -- Rejection handling (consumed by OltpClient, any policy) --

  /// A rejected arrival retries after `retry_backoff_ticks`, up to
  /// `max_retries` times, and then counts as failed (at once when
  /// max_retries is 0).
  int64_t retry_backoff_ticks = 100;
  int max_retries = 3;
};

/// Per-arrival admission decisions plus shed/goodput accounting. The
/// controller is pure decision logic over two externally supplied signals —
/// the in-flight count and a tail-latency probe — so it is deterministic
/// and unit-testable without a machine simulation behind it.
class AdmissionController {
 public:
  /// Recent tail signal in simulated seconds (< 0 = no signal yet); same
  /// contract as the kTail field of a core::TelemetrySource snapshot.
  using TailProbe = std::function<double(simcore::Tick now)>;

  /// `probe` may be empty for kNone / kQueueDepth; kAdaptive requires it.
  AdmissionController(const AdmissionConfig& config, TailProbe probe);

  /// Decides one arrival. `in_flight` is the submitter's current queued +
  /// running count. Records the decision in the shed/admit counters.
  bool Admit(simcore::Tick now, int64_t in_flight);

  /// Current AIMD window (kAdaptive; max_in_flight under kQueueDepth,
  /// unbounded under kNone).
  int64_t window() const { return window_; }

  int64_t admitted() const { return admitted_; }
  int64_t shed() const { return shed_; }
  /// Ticks at which arrivals were shed (ascending; one entry per shed).
  const std::vector<simcore::Tick>& shed_ticks() const { return shed_ticks_; }

  /// Sheds per simulated second over (now - window_ticks, now]. The
  /// slo_aware arbiter consumes this: a tenant that is shedding has demand
  /// its admitted-only latency signal cannot see, and a tenant shedding at
  /// max_cores is past the point where more cores can help.
  double RecentShedRate(simcore::Tick now, simcore::Tick window_ticks) const;

  const AdmissionConfig& config() const { return config_; }

 private:
  AdmissionConfig config_;
  TailProbe probe_;

  int64_t window_ = 0;
  simcore::Tick last_update_ = -1;
  int64_t admitted_ = 0;
  int64_t shed_ = 0;
  std::vector<simcore::Tick> shed_ticks_;
};

}  // namespace elastic::oltp

#endif  // ELASTICORE_OLTP_ADMISSION_H_
