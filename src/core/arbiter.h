#ifndef ELASTICORE_CORE_ARBITER_H_
#define ELASTICORE_CORE_ARBITER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/allocation_mode.h"
#include "core/entitlement_policy.h"
#include "core/mechanism.h"
#include "core/telemetry.h"
#include "platform/platform.h"
#include "simcore/rng.h"

namespace elastic::core {

/// One tenant registered with the arbiter.
struct ArbiterTenantConfig {
  std::string name = "tenant";
  /// Per-tenant thresholds/strategy. monitor_period_ticks is ignored (the
  /// arbiter polls every tenant from one hook at its own period);
  /// initial_cores doubles as the preemption floor; max_cores caps growth.
  MechanismConfig mechanism;
  /// Allocation mode ("sparse", "dense" or "adaptive"): where the tenant's
  /// grows land — sparse spreads over the nodes, adaptive follows its
  /// node-priority queue, dense clusters through PickCoreFor — and which
  /// core a shrink releases.
  std::string mode = "adaptive";
  /// Share under kPriorityWeighted (ignored by the other policies).
  double weight = 1.0;

  /// Target p99 latency in simulated seconds; < 0 marks a best-effort
  /// tenant (no SLO). Consumed by kSloAware only.
  double slo_p99_s = -1.0;

  /// Unified pull-based telemetry: evaluated at most once per round (only
  /// when the policy or the island-affinity term reads it), returning every
  /// feedback signal the tenant can report in one TelemetrySnapshot. How
  /// the fields steer arbitration:
  ///   - p99_s (kTail): required for SLO tenants under kSloAware; the
  ///     recent-p99 / target ratio drives entitlement boost/shed/hold.
  ///   - shed_rate (kShed): reshapes the kSloAware latency signal — below
  ///     max_cores active shedding counts as a violation even when the
  ///     admitted-only p99 looks fine (shed work is invisible to completed
  ///     -latency percentiles); at max_cores it switches the tenant to
  ///     *hold* (cores cannot help, admission is the active lever).
  ///   - abort_fraction + goodput (kAbort|kGoodput): the kContentionAware
  ///     hill climber's inputs; publish both or neither.
  TelemetrySource telemetry;
  /// Static capability mask (TelemetrySnapshot bits) declaring which fields
  /// `telemetry` can ever report. Install() validates policy requirements
  /// and classifies best-effort tenants from this mask without invoking the
  /// source; a round's valid_mask is intersected with it.
  uint32_t telemetry_caps = 0;

  /// Cores no arbitration action takes the tenant below: initial_cores,
  /// and never less than one.
  int floor_cores() const { return std::max(1, mechanism.initial_cores); }
};

struct ArbiterConfig {
  ArbitrationPolicy policy = ArbitrationPolicy::kFairShare;
  /// Monitoring period of the single arbiter hook, in simulated ticks.
  int monitor_period_ticks = 20;
  /// Keep the round log (log()), one ArbiterRound per Poll. stats() is
  /// kept either way.
  bool log_rounds = true;
  /// Register the self-driving monitoring hook at Install(). A caller that
  /// times or paces the rounds itself sets false and calls Poll().
  bool register_tick_hook = true;

  // -- Degraded-telemetry policy (counts are arbitration rounds). A tenant
  // whose window is implausible (probe dropout, garbage counters) holds its
  // allocation for stale_ttl_rounds; past the TTL it decays one core per
  // round towards its entitlement (never below the initial_cores floor).
  // Stale tenants never initiate preemption, and a victim's overload shield
  // is honoured only while its signal is fresher than the TTL. --
  int stale_ttl_rounds = 3;

  // -- Cpuset install failure handling. A failed SetCpusetMask freezes the
  // tenant's mask (the OS still runs the old one) and retries with
  // exponential backoff (doubling from one round, capped at eight) plus
  // seeded jitter; after quarantine_after_failures consecutive failures the
  // cpuset is quarantined — the arbiter stops touching it except for one
  // probe write every quarantine_probe_rounds, and keeps arbitrating the
  // remaining tenants. --
  int quarantine_after_failures = 4;
  int quarantine_probe_rounds = 16;
  /// Seed of the backoff-jitter stream. Drawn only on failures, so a
  /// fault-free run never consumes it (determinism of the healthy path).
  uint64_t fault_seed = 0x5EEDULL;

  // -- Island-affinity term (NUMA memory as an arbitrated resource). --

  /// Strength of the memory-affinity steer, in units of "owned cores": in
  /// the handout score (PickCoreFor, so dense tenants' grows) a node holding
  /// the tenant's whole resident set counts like this many already-owned
  /// cores, and the grant order favours growers whose pages sit on a node
  /// with a free core. Tenants feed the signal through kMemory telemetry
  /// (remote-access fraction + per-node residency). 0 — the default —
  /// disables the term entirely: no telemetry is pulled for it and every
  /// trace reproduces the affinity-oblivious arbiter byte-identically.
  double numa_affinity_weight = 0.0;
};

/// The arbiter's running totals (all monotonic), summed over every round
/// whether or not the round log is kept. stale/held/quarantined counts are
/// tenant-rounds: one tenant degraded for one round adds one.
struct ArbiterStats {
  /// Cores that changed owner (ArbiterRound::handoffs summed).
  int64_t handoffs = 0;
  /// Handoffs taken from a tenant that had not offered the core.
  int64_t preemptions = 0;
  /// Rounds that left at least one grow demand unmet.
  int64_t starved_rounds = 0;
  /// Rounds a tenant's telemetry was implausible (dropout or garbage).
  int64_t stale_rounds = 0;
  /// Stale rounds absorbed by hold-last-allocation (within the TTL).
  int64_t held_rounds = 0;
  /// Cores released by decay-to-entitlement past the TTL.
  int64_t decayed_cores = 0;
  /// SetCpusetMask attempts the platform rejected.
  int64_t failed_installs = 0;
  /// Times a cpuset crossed the consecutive-failure threshold.
  int64_t quarantine_entries = 0;
  /// Rounds a tenant spent quarantined.
  int64_t quarantined_rounds = 0;
  /// Tenants detached (dead pid / explicit DetachTenant).
  int64_t detached_tenants = 0;
};

/// Per-tenant outcome of one arbitration round.
struct TenantRound {
  /// What the tenant's net decided: its state, measured u, the cores it
  /// asked for (desired), the fired rule-condition-action (label, as Fig. 7
  /// prints it) and whether the window was plausible (valid; an invalid
  /// round is a stale one). A detached tenant's entry keeps the default.
  ElasticMechanism::Decision decision;
  /// Cores the tenant actually holds after the round.
  int granted = 0;
  /// Degraded-state flags of the round (all false on the healthy path).
  bool install_failed = false;
  bool quarantined = false;
  /// True once the tenant was detached (dead process).
  bool detached = false;
};

/// One arbitration round across all tenants.
struct ArbiterRound {
  simcore::Tick tick = 0;
  std::vector<TenantRound> tenants;
  /// Cores that changed owner (tenant <-> free pool or tenant -> tenant).
  int handoffs = 0;
  /// Handoffs taken from a tenant that had not offered the core.
  int preemptions = 0;
  /// Grow demands left unmet this round.
  int starved = 0;
};

/// Multi-tenant elastic core arbitration (the step beyond the paper): N
/// independent ElasticMechanism instances — one per tenant DBMS — run their
/// PrT nets against a shared machine, and the arbiter resolves conflicting
/// grow/shrink demands into disjoint per-tenant cpusets.
///
/// Each monitoring round:
///   1. every tenant's net classifies its own window (Decide) and demands
///      nalloc-1, nalloc or nalloc+1 cores;
///   2. shrinks release cores into the free pool (the shrinking tenant's
///      allocation mode picks which core);
///   3. the EntitlementPolicy plans one Claim per tenant (entitlement,
///      ceiling, urgency); stale tenants decay towards their entitlement
///      and tenants above their ceiling walk down one core;
///   4. grows are granted from the pool in order of entitlement deficit,
///      each on the core the tenant's allocation mode picks (sparse spreads
///      across sockets, adaptive follows the working set); dense tenants,
///      and adaptive ones before any traffic is seen, take PickCoreFor's
///      NUMA-aware handout: the free core of the node that scores highest
///      on the tenant's per-node core counts (ties towards free capacity,
///      then the lower node id), which keeps the cpuset clustered on as few
///      sockets as possible;
///   5. unmet grows may preempt one core from the tenant furthest above its
///      entitlement, provided that tenant is not itself overloaded and
///      stays at or above its initial_cores floor;
///   6. the resulting masks are installed as platform cpusets (simulated
///      scheduler groups or real cgroups) and committed back into each
///      tenant's net.
///
/// Tenant masks are always pairwise disjoint and never empty.
class CoreArbiter {
 public:
  CoreArbiter(platform::Platform* platform, const ArbiterConfig& config);

  CoreArbiter(const CoreArbiter&) = delete;
  CoreArbiter& operator=(const CoreArbiter&) = delete;

  /// Registers a tenant (before Install) and creates its platform cpuset.
  /// Returns the tenant index. The cpuset starts as the whole machine and
  /// is narrowed to the tenant's initial mask at Install().
  int AddTenant(const ArbiterTenantConfig& config);

  /// Assigns the initial disjoint masks (initial_cores each, spread across
  /// sockets) and registers the single monitoring hook. Call once, after
  /// every AddTenant and before running workloads.
  void Install();

  /// One arbitration round; runs automatically every monitor_period_ticks
  /// once installed. Public for unit tests.
  void Poll(simcore::Tick now);

  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  const std::string& tenant_name(int tenant) const;
  ElasticMechanism& mechanism(int tenant);
  platform::CpusetId tenant_cpuset(int tenant) const;
  const platform::CpuMask& tenant_mask(int tenant) const;
  int nalloc(int tenant) const;

  /// Cores not owned by any tenant.
  platform::CpuMask FreePool() const;

  int64_t core_handoffs() const { return stats_.handoffs; }
  int64_t preemptions() const { return stats_.preemptions; }
  int64_t starved_rounds() const { return stats_.starved_rounds; }

  /// Running totals: handoffs, preemptions, starved rounds and the
  /// control-plane health counters (stale/held rounds, failed installs,
  /// quarantines, detaches).
  const ArbiterStats& stats() const { return stats_; }

  /// Removes a tenant from arbitration (its process died): the tenant's
  /// cores return to the free pool next round, its mechanism is no longer
  /// polled, and its platform cpuset is left as-is (it confines nothing).
  /// Idempotent.
  void DetachTenant(int tenant);

  /// Whether the tenant is still arbitrated (not detached).
  bool tenant_active(int tenant) const;

  /// Whether the tenant's cpuset is quarantined after repeated failed
  /// installs.
  bool tenant_quarantined(int tenant) const;

  /// Last-resort shutdown path: best-effort write of the full machine mask
  /// into every tenant cpuset (quarantine and backoff are ignored), so no
  /// workload stays confined to a sliver when the arbiter stops. Terminal —
  /// do not Poll afterwards.
  void InstallFallbackMasks();

  /// Jain's fairness index over the current per-tenant core counts
  /// normalised by entitlement-free equal shares: 1.0 = perfectly even.
  double FairnessIndex() const;
  /// Jain's index (sum x)^2 / (n * sum x^2) over arbitrary non-negative
  /// values (benches use it over per-tenant throughput too).
  static double JainIndex(const std::vector<double>& values);

  const ArbiterConfig& config() const { return config_; }
  /// Every round's decisions and grants, oldest first; empty unless
  /// ArbiterConfig::log_rounds.
  const std::vector<ArbiterRound>& log() const { return log_; }

 private:
  struct Tenant {
    ArbiterTenantConfig config;
    std::unique_ptr<ElasticMechanism> mechanism;
    platform::CpusetId cpuset = platform::kNoCpuset;
    platform::CpuMask mask;

    /// False once detached (dead process); the tenant holds no cores.
    bool active = true;
    /// Consecutive rounds of implausible telemetry; 0 = fresh signal.
    int stale_rounds = 0;
    /// Consecutive failed SetCpusetMask attempts; > 0 freezes the mask.
    int install_failures = 0;
    /// First round index a backed-off retry may run.
    int64_t next_retry_round = 0;
    bool quarantined = false;
    /// Round index of the next quarantine probe write.
    int64_t probe_round = 0;

    /// Share of the tenant's resident pages per NUMA node (sums to 1 when
    /// any page is resident), cached from the last kMemory snapshot. Empty
    /// until memory telemetry reports — the affinity term then adds
    /// nothing, like weight 0.
    std::vector<double> mem_fraction;
  };

  /// A frozen tenant's mask must not change: its cpuset is quarantined or
  /// mid-backoff, so the OS still runs the previous mask and any rebalance
  /// would silently diverge from reality.
  bool Frozen(const Tenant& tenant) const {
    return tenant.quarantined || tenant.install_failures > 0;
  }

  /// The round flags of one install attempt (TenantRound's).
  struct InstallResult {
    bool failed = false;
    bool quarantined = false;
  };

  /// Phase 4 helper: one SetCpusetMask attempt with failure bookkeeping
  /// (backoff scheduling, quarantine entry/exit).
  InstallResult TryInstall(Tenant& tenant);

  /// Evaluates every active tenant's TelemetrySource once for this round
  /// (only when the policy reads telemetry or the island-affinity term
  /// needs the kMemory signal; the static policies at affinity weight 0
  /// never pull telemetry). Each snapshot's valid_mask is intersected with
  /// the tenant's declared caps and sanitised (NaN/inf readings drop their
  /// valid bit — the centralised plausibility check).
  std::vector<TelemetrySnapshot> CollectTelemetry(simcore::Tick now) const;

  /// Caches each tenant's per-node resident-page share from this round's
  /// kMemory snapshots (Tenant::mem_fraction). No-op at affinity weight 0.
  void UpdateMemoryResidency(const std::vector<TelemetrySnapshot>& snapshots);

  /// NUMA-aware pick of a free-pool core for a tenant: prefer the node where
  /// the tenant already holds the most cores, then the node with the most
  /// free cores, then the lowest node id; lowest core id within the node.
  /// Places every tenant's initial cores and dense tenants' grows.
  numasim::CoreId PickCoreFor(const Tenant& tenant,
                              const platform::CpuMask& pool) const;

  platform::Platform* platform_;
  ArbiterConfig config_;
  /// Everything that depends on config_.policy.
  std::unique_ptr<EntitlementPolicy> policy_;
  /// Cores this arbiter may hand out: the whole machine.
  platform::CpuMask domain_;
  std::vector<Tenant> tenants_;
  bool installed_ = false;

  std::vector<ArbiterRound> log_;
  ArbiterStats stats_;
  /// Completed Poll() rounds; the clock of backoff/quarantine scheduling.
  int64_t round_counter_ = 0;
  /// Backoff jitter; drawn only on install failures.
  simcore::Rng jitter_rng_;
};

}  // namespace elastic::core

#endif  // ELASTICORE_CORE_ARBITER_H_
