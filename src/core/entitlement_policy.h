#ifndef ELASTICORE_CORE_ENTITLEMENT_POLICY_H_
#define ELASTICORE_CORE_ENTITLEMENT_POLICY_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "core/telemetry.h"
#include "platform/cpu_mask.h"

namespace elastic::core {

/// How the arbiter divides its domain among competing tenants. Every policy
/// defines a per-tenant *entitlement* — the share of the machine the tenant
/// is notionally owed — and the arbiter grants and reclaims cores towards
/// it. docs/POLICIES.md is the operator's guide.
enum class ArbitrationPolicy {
  /// Equal entitlement: N / num_tenants cores each.
  kFairShare,
  /// Entitlement proportional to the tenant's configured weight:
  /// N * w_i / sum(w).
  kPriorityWeighted,
  /// Entitlement proportional to measured demand (busy-core equivalents,
  /// u_i * nalloc_i, from the last monitoring window). Assumes the tenants
  /// run the kCpuLoad transition strategy.
  kDemandProportional,
  /// Tail-latency feedback: an SLO tenant's entitlement follows its recent
  /// p99 / target ratio, and past the boost threshold it may preempt an
  /// overloaded best-effort tenant (the one relaxation of
  /// never-preempt-overloaded). Best-effort tenants split the rest;
  /// SLO-vs-SLO contention breaks ties by proportional violation.
  kSloAware,
  /// Contention feedback: tenants reporting the abort-fraction + goodput
  /// pair are held at the goodput-maximizing core count by a hill climber
  /// that shrinks them when aborts burn the added cores; tenants without
  /// the pair split the rest.
  kContentionAware,
};

const char* ArbitrationPolicyName(ArbitrationPolicy policy);
ArbitrationPolicy ArbitrationPolicyFromName(const std::string& name);

struct ArbiterTenantConfig;  // core/arbiter.h

/// One tenant as the policy sees it during an arbitration round.
struct TenantView {
  const ArbiterTenantConfig* config = nullptr;
  /// The tenant's live mask: a read sees every handoff the round has made
  /// so far, including earlier preemptions of the same round.
  const platform::CpuMask* mask = nullptr;
  /// This round's decision of the tenant's own net.
  const ElasticMechanism::Decision* decision = nullptr;
  /// This round's telemetry (valid_mask 0 unless the arbiter pulled it).
  const TelemetrySnapshot* telemetry = nullptr;
  /// False once detached: the tenant holds nothing and is owed nothing.
  bool active = true;
  /// Cpuset quarantined or mid-backoff: the round never moves its cores.
  bool frozen = false;
};

/// Claim::ceiling of a tenant the policy does not cap.
inline constexpr int kNoCeiling = std::numeric_limits<int>::max();

/// The policy's answer for one tenant for one round.
struct Claim {
  /// Cores the tenant is notionally owed: grants go to the largest deficit
  /// first, preemption takes from the largest excess, and a tenant whose
  /// telemetry stays stale past the TTL decays towards it.
  double entitlement = 0.0;
  /// Above the ceiling the tenant walks down one core per round, at it the
  /// tenant does not grow, and its overload shield does not cover cores
  /// above it.
  int ceiling = kNoCeiling;
  /// The tenant may preempt a yielding tenant even when that tenant is
  /// overloaded.
  bool urgent = false;
  /// The tenant gives up its overload shield to an urgent grower.
  bool yields = false;
};

/// Everything an arbitration policy knows. CoreArbiter::Poll runs the
/// mechanics of a round — shrinks, stale decay, grants, preemption,
/// installs — and asks the policy only for per-tenant answers: one Claim
/// per tenant each round, plus the hooks below. Per-tenant policy state
/// (the contention hill climbers) lives in the policy, indexed like the
/// views.
class EntitlementPolicy {
 public:
  EntitlementPolicy() = default;
  EntitlementPolicy(const EntitlementPolicy&) = delete;
  EntitlementPolicy& operator=(const EntitlementPolicy&) = delete;
  virtual ~EntitlementPolicy() = default;

  /// Checks a tenant's declared telemetry against what the policy needs;
  /// called for every tenant at Install().
  virtual void Validate(const ArbiterTenantConfig& /*config*/) const {}

  /// Whether Plan() reads TenantView::telemetry. When false (and the
  /// island-affinity term is off) the arbiter never pulls telemetry.
  virtual bool reads_telemetry() const { return false; }

  /// Whether the tenant's initial_cores floor is standby capacity that its
  /// own shrinks may not release.
  virtual bool HoldsFloor(const ArbiterTenantConfig& /*config*/) const {
    return false;
  }

  /// One Claim per view, in view order; inactive tenants get the default
  /// Claim (entitlement 0). `domain_cores` is the arbitrated domain's size.
  virtual std::vector<Claim> Plan(const std::vector<TenantView>& views,
                                  int domain_cores) = 0;

  /// Victim for an unmet grower that found no tenant above its entitlement,
  /// or -1. Reads masks live, so it sees the round's earlier preemptions.
  virtual int TieBreakVictim(int /*grower*/,
                             const std::vector<TenantView>& /*views*/) const {
    return -1;
  }
};

/// The policy object behind each ArbitrationPolicy value.
std::unique_ptr<EntitlementPolicy> MakeEntitlementPolicy(
    ArbitrationPolicy policy);

}  // namespace elastic::core

#endif  // ELASTICORE_CORE_ENTITLEMENT_POLICY_H_
