#include "oltp/admission.h"

#include <algorithm>

#include "simcore/check.h"

namespace elastic::oltp {

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kNone: return "none";
    case AdmissionPolicy::kQueueDepth: return "queue_depth";
    case AdmissionPolicy::kAdaptive: return "adaptive";
  }
  return "?";
}

AdmissionPolicy AdmissionPolicyFromName(const std::string& name) {
  if (name == "none") return AdmissionPolicy::kNone;
  if (name == "queue_depth" || name == "queue") {
    return AdmissionPolicy::kQueueDepth;
  }
  if (name == "adaptive" || name == "aimd") return AdmissionPolicy::kAdaptive;
  ELASTIC_CHECK(false, "unknown admission policy name");
  return AdmissionPolicy::kNone;
}

AdmissionController::AdmissionController(const AdmissionConfig& config,
                                         TailProbe probe)
    : config_(config), probe_(std::move(probe)) {
  switch (config_.policy) {
    case AdmissionPolicy::kNone:
      break;
    case AdmissionPolicy::kQueueDepth:
      ELASTIC_CHECK(config_.max_in_flight >= 1, "max_in_flight must be >= 1");
      window_ = config_.max_in_flight;
      break;
    case AdmissionPolicy::kAdaptive:
      ELASTIC_CHECK(static_cast<bool>(probe_),
                    "adaptive admission needs a tail probe");
      ELASTIC_CHECK(config_.min_window >= 1 &&
                        config_.initial_window >= config_.min_window &&
                        config_.max_window >= config_.initial_window,
                    "need 1 <= min_window <= initial_window <= max_window");
      ELASTIC_CHECK(config_.multiplicative_decrease > 0.0 &&
                        config_.multiplicative_decrease < 1.0,
                    "multiplicative_decrease must be in (0, 1)");
      ELASTIC_CHECK(config_.additive_increase >= 1 &&
                        config_.update_period_ticks >= 1,
                    "AIMD steps must be positive");
      window_ = config_.initial_window;
      break;
  }
}

bool AdmissionController::Admit(simcore::Tick now, int64_t in_flight) {
  bool admit = true;
  switch (config_.policy) {
    case AdmissionPolicy::kNone:
      break;
    case AdmissionPolicy::kQueueDepth:
      admit = in_flight < window_;
      break;
    case AdmissionPolicy::kAdaptive: {
      // Re-evaluate the AIMD window on its own cadence, not per arrival: one
      // burst carries many arrivals inside a single probe window, and
      // reacting to each would collapse the window to min_window before the
      // signal could possibly change.
      if (last_update_ < 0 || now - last_update_ >= config_.update_period_ticks) {
        last_update_ = now;
        const double tail = probe_ ? probe_(now) : -1.0;
        if (tail >= config_.backoff_ratio * config_.target_tail_s) {
          window_ = std::max<int64_t>(
              config_.min_window,
              static_cast<int64_t>(static_cast<double>(window_) *
                                   config_.multiplicative_decrease));
        } else if (tail >= 0.0) {
          window_ =
              std::min(config_.max_window, window_ + config_.additive_increase);
        }
        // No signal yet (< 0): hold — the window opens only on evidence.
      }
      admit = in_flight < window_;
      break;
    }
  }
  if (admit) {
    admitted_++;
  } else {
    shed_++;
    shed_ticks_.push_back(now);
  }
  return admit;
}

double AdmissionController::RecentShedRate(simcore::Tick now,
                                           simcore::Tick window_ticks) const {
  if (window_ticks <= 0) return 0.0;
  int64_t recent = 0;
  for (auto it = shed_ticks_.rbegin(); it != shed_ticks_.rend(); ++it) {
    if (*it <= now - window_ticks) break;  // shed ticks ascend
    if (*it <= now) recent++;
  }
  return static_cast<double>(recent) /
         simcore::Clock::ToSeconds(window_ticks);
}

}  // namespace elastic::oltp
