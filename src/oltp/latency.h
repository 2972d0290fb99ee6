#ifndef ELASTICORE_OLTP_LATENCY_H_
#define ELASTICORE_OLTP_LATENCY_H_

#include <algorithm>
#include <vector>

#include "simcore/clock.h"

namespace elastic::oltp {

/// Per-transaction latency log with percentile queries. OLTP SLOs are stated
/// over the latency *tail* (p95/p99), which means-only reporting hides; the
/// recorder therefore keeps every sample (completion tick + latency ticks)
/// so both full-run and recent-window percentiles are exact, not sketched.
/// Sample counts are small (one entry per transaction), so exactness is
/// cheaper than maintaining a quantile sketch would be.
class LatencyRecorder {
 public:
  struct Sample {
    simcore::Tick completed = 0;
    simcore::Tick latency_ticks = 0;
  };

  void Record(simcore::Tick completed, simcore::Tick latency_ticks) {
    samples_.push_back(Sample{completed, latency_ticks});
  }

  int64_t count() const { return static_cast<int64_t>(samples_.size()); }
  const std::vector<Sample>& samples() const { return samples_; }

  /// Completions whose latency stayed within `budget_s` — the *goodput*
  /// numerator of the overload-control literature: under load shedding the
  /// interesting count is not how many transactions finished but how many
  /// finished inside their latency budget (a completion that blew the SLO
  /// delivered no value to its caller).
  int64_t CountWithinSeconds(double budget_s) const {
    int64_t within = 0;
    for (const Sample& s : samples_) {
      if (simcore::Clock::ToSeconds(s.latency_ticks) <= budget_s) within++;
    }
    return within;
  }

  double MeanSeconds() const {
    if (samples_.empty()) return -1.0;
    int64_t total = 0;
    for (const Sample& s : samples_) total += s.latency_ticks;
    return simcore::Clock::ToSeconds(total) /
           static_cast<double>(samples_.size());
  }

  /// Nearest-rank percentile over every recorded sample, in ticks.
  /// `p` in (0, 1]; returns -1 when no samples exist.
  simcore::Tick PercentileTicks(double p) const {
    return PercentileOf(AllLatencies(), p);
  }

  double PercentileSeconds(double p) const {
    const simcore::Tick ticks = PercentileTicks(p);
    return ticks < 0 ? -1.0 : simcore::Clock::ToSeconds(ticks);
  }

  /// Nearest-rank percentile over samples completed in (now - window, now].
  /// This is the arbiter's feedback signal: the *recent* tail, so a burst
  /// that ended long ago stops inflating the p99 the controller reacts to.
  /// Returns -1 when the window holds no samples.
  simcore::Tick WindowPercentileTicks(double p, simcore::Tick now,
                                      simcore::Tick window) const {
    std::vector<simcore::Tick> recent;
    for (auto it = samples_.rbegin(); it != samples_.rend(); ++it) {
      if (it->completed <= now - window) break;  // completion ticks ascend
      if (it->completed <= now) recent.push_back(it->latency_ticks);
    }
    return PercentileOf(std::move(recent), p);
  }

  double WindowPercentileSeconds(double p, simcore::Tick now,
                                 simcore::Tick window) const {
    const simcore::Tick ticks = WindowPercentileTicks(p, now, window);
    return ticks < 0 ? -1.0 : simcore::Clock::ToSeconds(ticks);
  }

 private:
  std::vector<simcore::Tick> AllLatencies() const {
    std::vector<simcore::Tick> all;
    all.reserve(samples_.size());
    for (const Sample& s : samples_) all.push_back(s.latency_ticks);
    return all;
  }

  static simcore::Tick PercentileOf(std::vector<simcore::Tick> values,
                                    double p) {
    if (values.empty() || p <= 0.0) return -1;
    if (p > 1.0) p = 1.0;
    std::sort(values.begin(), values.end());
    // Nearest-rank: the smallest value with at least p of the mass at or
    // below it (rank ceil(p * n), 1-based).
    const auto n = static_cast<double>(values.size());
    auto rank = static_cast<size_t>(p * n);
    if (static_cast<double>(rank) < p * n) rank++;  // ceil
    if (rank < 1) rank = 1;
    return values[rank - 1];
  }

  std::vector<Sample> samples_;
};

}  // namespace elastic::oltp

#endif  // ELASTICORE_OLTP_LATENCY_H_
