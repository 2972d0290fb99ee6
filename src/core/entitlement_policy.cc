#include "core/entitlement_policy.h"

#include <algorithm>
#include <cmath>

#include "core/arbiter.h"
#include "simcore/check.h"

namespace elastic::core {

namespace {

/// slo_aware band: boost the SLO tenant's entitlement when its recent tail
/// runs past 3/4 of the target (reacting at the target itself is reacting
/// one violated transaction too late), shed slack below half the target,
/// hold in between.
constexpr double kSloBoostRatio = 0.75;
constexpr double kSloShedRatio = 0.5;
/// Ratio a shedding tenant (below its cap) is lifted to: rejected work is
/// invisible to the admitted-only p99, so active shedding is read as a
/// just-past-target violation even when the measured tail looks healthy.
constexpr double kShedViolationRatio = 1.01;
/// Ratio a shedding tenant *at* its cap is clamped to: mid hold-band. More
/// cores are impossible, admission is the active lever, and the tenant must
/// not read as violating (no boost, no preemption on its behalf).
constexpr double kShedHoldRatio = (kSloBoostRatio + kSloShedRatio) / 2.0;
/// SLO-vs-SLO preemption margin: an SLO grower in actual violation
/// (ratio > 1) may take a core from another SLO tenant only when it is
/// suffering at least this factor more, proportionally (p99/target vs
/// p99/target). Equal suffering moves nothing — without the margin two
/// tenants would trade the same core back and forth every round.
constexpr double kSloTieBreakMargin = 1.25;

// contention_aware hill climber (see docs/POLICIES.md). It evaluates once
// every kSettleRounds + 1 rounds, so every evaluation sees a probe window
// measured mostly at the current allocation.

/// Abort fraction at or above which a shrink probe is allowed: the marginal
/// core is presumed to be burning in conflict churn.
constexpr double kHighAbort = 0.5;
/// Abort fraction at or below which the mechanism's grow demand passes
/// through: conflicts are rare, parallelism still buys commits.
constexpr double kLowAbort = 0.2;
/// Rounds the climber holds after each target move before judging it (the
/// hysteresis that keeps a noisy goodput reading from thrashing the
/// allocation).
constexpr int kSettleRounds = 2;
/// Evaluations a direction stays blocked after a move in it was reverted
/// for costing goodput.
constexpr int kBackoffEvals = 8;
/// Relative goodput drop below which a move is judged harmless (noise band
/// of the accept/revert decision).
constexpr double kGoodputTolerance = 0.05;

struct PolicyName {
  ArbitrationPolicy policy;
  const char* name;
  const char* alias;
};
constexpr PolicyName kPolicyNames[] = {
    {ArbitrationPolicy::kFairShare, "fair_share", "fair"},
    {ArbitrationPolicy::kPriorityWeighted, "priority_weighted", "priority"},
    {ArbitrationPolicy::kDemandProportional, "demand_proportional", "demand"},
    {ArbitrationPolicy::kSloAware, "slo_aware", "slo"},
    {ArbitrationPolicy::kContentionAware, "contention_aware", "contention"},
};

/// The tenant's growth cap: max_cores, or the whole domain when unset.
int CapOf(const ArbiterTenantConfig& config, int domain_cores) {
  return config.mechanism.max_cores > 0 ? config.mechanism.max_cores
                                        : domain_cores;
}

/// The feedback policies' split: tenants marked `controlled` keep the
/// entitlement already in their claim, and the other active tenants share
/// what remains of the domain equally.
void SplitRemainder(const std::vector<TenantView>& views, int domain_cores,
                    const std::vector<bool>& controlled,
                    std::vector<Claim>& claims) {
  double remaining = domain_cores;
  int others = 0;
  for (size_t i = 0; i < views.size(); ++i) {
    if (!views[i].active) continue;
    if (controlled[i]) {
      remaining -= claims[i].entitlement;
    } else {
      others++;
    }
  }
  if (others == 0) return;
  const double share = std::max(0.0, remaining) / others;
  for (size_t i = 0; i < views.size(); ++i) {
    if (views[i].active && !controlled[i]) claims[i].entitlement = share;
  }
}

/// fair_share, priority_weighted and demand_proportional: the domain split
/// in proportion to a per-tenant weight.
class WeightedSharePolicy final : public EntitlementPolicy {
 public:
  using Weight = double (*)(const TenantView& view);
  explicit WeightedSharePolicy(Weight weight) : weight_(weight) {}

  std::vector<Claim> Plan(const std::vector<TenantView>& views,
                          int domain_cores) override {
    const double total = static_cast<double>(domain_cores);
    std::vector<double> weights(views.size(), 0.0);
    double sum = 0.0;
    for (size_t i = 0; i < views.size(); ++i) {
      if (!views[i].active) continue;
      weights[i] = weight_(views[i]);
      sum += weights[i];
    }
    std::vector<Claim> claims(views.size());
    for (size_t i = 0; i < views.size(); ++i) {
      if (!views[i].active) continue;
      claims[i].entitlement = total * weights[i] / std::max(sum, 1e-12);
    }
    return claims;
  }

 private:
  Weight weight_;
};

class SloAwarePolicy final : public EntitlementPolicy {
 public:
  void Validate(const ArbiterTenantConfig& config) const override {
    if (config.slo_p99_s < 0.0) return;
    ELASTIC_CHECK((config.telemetry_caps & TelemetrySnapshot::kTail) != 0,
                  "SLO tenant needs tail telemetry under slo_aware");
  }

  bool reads_telemetry() const override { return true; }

  /// An SLO tenant's floor is provisioned standby capacity, not just a
  /// preemption bound: lulls in an open-loop arrival stream must not strip
  /// the cores the next burst will need before the tail signal can
  /// possibly react.
  bool HoldsFloor(const ArbiterTenantConfig& config) const override {
    return config.slo_p99_s >= 0.0;
  }

  std::vector<Claim> Plan(const std::vector<TenantView>& views,
                          int domain_cores) override {
    shed_rates_.assign(views.size(), 0.0);
    ratios_.assign(views.size(), -1.0);
    std::vector<Claim> claims(views.size());
    std::vector<bool> controlled(views.size(), false);
    for (size_t i = 0; i < views.size(); ++i) {
      const TenantView& view = views[i];
      if (!view.active) continue;
      const ArbiterTenantConfig& config = *view.config;
      const TelemetrySnapshot& snap = *view.telemetry;
      if (snap.has(TelemetrySnapshot::kShed)) shed_rates_[i] = snap.shed_rate;
      if (config.slo_p99_s < 0.0) {
        // Best-effort tenants split what the SLO tenants leave: they
        // absorb slack when the SLO tenants are happy and become the
        // preemption victims when one is not.
        claims[i].yields = true;
        continue;
      }
      controlled[i] = true;
      const double held = view.mask->Count();
      const double cap = CapOf(config, domain_cores);
      if (snap.has(TelemetrySnapshot::kTail)) {
        const double p99 = snap.p99_s;
        double ratio =
            p99 < 0.0 ? -1.0 : p99 / std::max(config.slo_p99_s, 1e-12);
        // Shed feedback: rejected arrivals never reach the
        // completed-latency percentiles, so a tenant actively shedding is
        // under more pressure than its p99 admits — unless it already
        // holds its cap, where extra cores are unobtainable and reading
        // the shedding as a violation would only burn preemptions on
        // demands that cannot be granted.
        if (shed_rates_[i] > 0.0) {
          ratio = held >= cap ? kShedHoldRatio
                              : std::max(ratio, kShedViolationRatio);
        }
        ratios_[i] = ratio;
      }
      // Entitlement tracks the tail-latency error. Past the boost
      // threshold the tenant is owed headroom — one core early on,
      // proportional to the error once in violation; a controller that
      // waits for ratio > 1 reacts only after transactions have already
      // blown the budget. Comfortably below target it sheds one core of
      // slack; in between it holds. No signal yet = hold.
      const double ratio = ratios_[i];
      double e = held;
      if (ratio > kSloBoostRatio) {
        e = std::min(
            cap, held + std::max(1.0, std::ceil((ratio - 1.0) * held) + 1.0));
      } else if (ratio >= 0.0 && ratio < kSloShedRatio) {
        e = std::max(static_cast<double>(config.floor_cores()), held - 1.0);
      }
      claims[i].entitlement = e;
      // Past the boost threshold the tenant may take a core from an
      // overloaded best-effort tenant: a scan-heavy best-effort workload is
      // overloaded by construction (it can absorb any number of cores),
      // and honouring its overload would let it starve the latency SLO
      // indefinitely.
      claims[i].urgent = ratio > kSloBoostRatio;
    }
    SplitRemainder(views, domain_cores, controlled, claims);
    return claims;
  }

  /// SLO-vs-SLO tie-break: two violating SLO tenants boost each other's
  /// entitlements past their holdings, so neither ever shows "excess" —
  /// the starvation deadlock. A grower in actual violation (ratio > 1, not
  /// merely boosted) may instead take one core from the SLO tenant
  /// suffering proportionally least, margin kSloTieBreakMargin, floors
  /// absolute. Shedding tenants are never victims: active shedding proves
  /// unmet demand regardless of what their (possibly clamped) ratio reads,
  /// and raiding a shedding-at-cap tenant would ping-pong the same core
  /// every round as the victim drops below its cap, reads as violating,
  /// and raids right back. Preferring the *least* violating victim spreads
  /// the pain instead of compounding the worst.
  int TieBreakVictim(int grower,
                     const std::vector<TenantView>& views) const override {
    const double grower_ratio = ratios_[static_cast<size_t>(grower)];
    if (grower_ratio <= 1.0) return -1;
    int victim = -1;
    double best_victim_ratio = 0.0;
    for (size_t v = 0; v < views.size(); ++v) {
      if (static_cast<int>(v) == grower) continue;
      const TenantView& candidate = views[v];
      if (!candidate.active || candidate.frozen) continue;
      if (candidate.config->slo_p99_s < 0.0) continue;  // best-effort
      if (shed_rates_[v] > 0.0) continue;
      const double victim_ratio = ratios_[v];
      if (victim_ratio < 0.0) continue;  // no signal: hold untouched
      if (grower_ratio <= victim_ratio * kSloTieBreakMargin) continue;
      if (candidate.mask->Count() <= candidate.config->floor_cores()) continue;
      if (victim < 0 || victim_ratio < best_victim_ratio) {
        victim = static_cast<int>(v);
        best_victim_ratio = victim_ratio;
      }
    }
    return victim;
  }

 private:
  /// This round's recent shed rate per tenant (0 without a shed signal).
  std::vector<double> shed_rates_;
  /// This round's recent-p99 / target ratio per tenant; < 0 for
  /// best-effort tenants and SLO tenants without a tail signal. Shedding
  /// reshapes it: below max_cores it reads as violating, at max_cores as
  /// holding.
  std::vector<double> ratios_;
};

class ContentionAwarePolicy final : public EntitlementPolicy {
 public:
  void Validate(const ArbiterTenantConfig& config) const override {
    ELASTIC_CHECK(
        ((config.telemetry_caps & TelemetrySnapshot::kAbort) != 0) ==
            ((config.telemetry_caps & TelemetrySnapshot::kGoodput) != 0),
        "contention_aware needs both contention signals or neither");
  }

  bool reads_telemetry() const override { return true; }

  /// Probe tenants are entitled to their climber's operating point — the
  /// goodput-maximizing core count, which under heavy conflict is far
  /// below what a utilization-driven demand signal would claim — and it is
  /// also their ceiling: above it they walk down one core per round (a
  /// thrashing tenant's cores look busy, burning aborts, so the mechanism
  /// never volunteers a shrink), at it they do not grow, and their
  /// "overload" above it is the thrash itself, so it shields nothing.
  /// Probe-less tenants split the remainder, so every core a collapsing
  /// tenant walks away from lands on a tenant that can convert it into
  /// goodput.
  std::vector<Claim> Plan(const std::vector<TenantView>& views,
                          int domain_cores) override {
    climbers_.resize(views.size());
    std::vector<Claim> claims(views.size());
    std::vector<bool> controlled(views.size(), false);
    for (size_t i = 0; i < views.size(); ++i) {
      const TenantView& view = views[i];
      if (!view.active || !HasSignalPair(*view.config)) continue;
      Climber& climber = climbers_[i];
      Step(view, domain_cores, climber);
      controlled[i] = true;
      claims[i].entitlement = climber.target;
      claims[i].ceiling = climber.target;
    }
    SplitRemainder(views, domain_cores, controlled, claims);
    return claims;
  }

 private:
  struct Climber {
    /// Core count the climber wants the tenant at; 0 = uninitialised.
    int target = 0;
    /// Goodput and holding at the last evaluation: the delta to the next
    /// reading is the measured marginal goodput of the last move.
    double last_goodput = -1.0;
    int last_cores = 0;
    /// Rounds left before the next evaluation (settle hysteresis).
    int settle = 0;
    /// Evaluations left during which a direction that cost goodput stays
    /// blocked.
    int shrink_block = 0;
    int grow_block = 0;
  };

  static bool HasSignalPair(const ArbiterTenantConfig& config) {
    return (config.telemetry_caps & TelemetrySnapshot::kAbort) != 0 &&
           (config.telemetry_caps & TelemetrySnapshot::kGoodput) != 0;
  }

  /// One round of the tenant's climber: climb, hold or revert.
  static void Step(const TenantView& view, int domain_cores,
                   Climber& climber) {
    const int held = view.mask->Count();
    const int floor = view.config->floor_cores();
    const int cap = CapOf(*view.config, domain_cores);
    const auto clamp = [floor, cap](int cores) {
      return std::min(cap, std::max(floor, cores));
    };
    if (climber.target == 0) {
      // First round with probes attached: adopt the current holding as the
      // operating point so the climber starts from reality, not from 0.
      climber.target = clamp(held);
    }
    const TelemetrySnapshot& snap = *view.telemetry;
    if (!snap.has(TelemetrySnapshot::kAbort) || snap.abort_fraction < 0.0) {
      return;  // no traffic in the window: hold
    }
    const double fraction = snap.abort_fraction;
    if (climber.settle > 0) {
      // The last move has not had a full probe window to show up in the
      // goodput signal yet; measuring now would attribute the old
      // allocation's goodput to the new one.
      climber.settle--;
      return;
    }
    if (!snap.has(TelemetrySnapshot::kGoodput)) return;  // dropout: hold
    const double goodput = snap.goodput;
    // Evaluate the previous move: if the allocation actually changed and
    // goodput dropped beyond tolerance, revert to the old operating point
    // and block that direction for a while — this is what makes the climber
    // settle at the goodput knee instead of oscillating across it.
    if (climber.last_goodput >= 0.0 && held != climber.last_cores &&
        goodput < climber.last_goodput * (1.0 - kGoodputTolerance)) {
      if (held > climber.last_cores) {
        climber.grow_block = kBackoffEvals;
      } else {
        climber.shrink_block = kBackoffEvals;
      }
      climber.target = clamp(climber.last_cores);
      climber.last_goodput = goodput;
      climber.last_cores = held;
      climber.settle = kSettleRounds;
      return;
    }
    if (climber.grow_block > 0) climber.grow_block--;
    if (climber.shrink_block > 0) climber.shrink_block--;
    const ElasticMechanism::Decision& decision = *view.decision;
    int target = held;
    if (fraction >= kHighAbort && held > floor && climber.shrink_block == 0) {
      // High abort fraction: most added work is burning in aborts, so probe
      // one core down — the freed core goes to a tenant that can use it.
      target = held - 1;
    } else if (fraction <= kLowAbort && held < cap &&
               climber.grow_block == 0 &&
               decision.desired > decision.current) {
      // Low contention and the mechanism wants more cores: let it grow.
      target = held + 1;
    }
    climber.target = clamp(target);
    climber.last_goodput = goodput;
    climber.last_cores = held;
    climber.settle = kSettleRounds;
  }

  /// Per-tenant climbers, indexed like the views.
  std::vector<Climber> climbers_;
};

}  // namespace

const char* ArbitrationPolicyName(ArbitrationPolicy policy) {
  for (const PolicyName& entry : kPolicyNames) {
    if (entry.policy == policy) return entry.name;
  }
  return "?";
}

ArbitrationPolicy ArbitrationPolicyFromName(const std::string& name) {
  for (const PolicyName& entry : kPolicyNames) {
    if (name == entry.name || name == entry.alias) return entry.policy;
  }
  ELASTIC_CHECK(false, "unknown arbitration policy name");
  return ArbitrationPolicy::kFairShare;
}

std::unique_ptr<EntitlementPolicy> MakeEntitlementPolicy(
    ArbitrationPolicy policy) {
  switch (policy) {
    case ArbitrationPolicy::kFairShare:
      return std::make_unique<WeightedSharePolicy>(
          [](const TenantView&) { return 1.0; });
    case ArbitrationPolicy::kPriorityWeighted:
      return std::make_unique<WeightedSharePolicy>(
          [](const TenantView& view) { return view.config->weight; });
    case ArbitrationPolicy::kDemandProportional:
      // Demand in busy-core equivalents; the epsilon keeps an all-idle
      // machine at equal entitlements instead of 0/0.
      return std::make_unique<WeightedSharePolicy>([](const TenantView& view) {
        const ElasticMechanism::Decision& d = *view.decision;
        return std::max(d.u, 0.0) / 100.0 * d.current + 1e-6;
      });
    case ArbitrationPolicy::kSloAware:
      return std::make_unique<SloAwarePolicy>();
    case ArbitrationPolicy::kContentionAware:
      return std::make_unique<ContentionAwarePolicy>();
  }
  ELASTIC_CHECK(false, "unknown arbitration policy");
  return nullptr;
}

}  // namespace elastic::core
