#ifndef ELASTICORE_CORE_SHARDED_ARBITER_H_
#define ELASTICORE_CORE_SHARDED_ARBITER_H_

#include <memory>
#include <vector>

#include "core/arbiter.h"

namespace elastic::core {

/// Hierarchical arbitration for many-tenant machines.
struct ShardedArbiterConfig {
  /// Template applied to every shard-level arbiter (policy, periods,
  /// degraded-telemetry / quarantine knobs). instance_label and
  /// register_tick_hook are managed per shard by the coordinator; the
  /// template's register_tick_hook governs the coordinator's own hook.
  ArbiterConfig arbiter;
  /// Shard-level arbiters under the one machine-level coordinator.
  int num_shards = 4;
};

/// Two-level core arbitration: tenants are assigned round-robin into
/// `num_shards` shard-level CoreArbiters, each owning a disjoint node-aligned
/// slice of the machine (its *domain*); the machine-level coordinator polls
/// one shard per monitoring period and only rebalances entitlement budgets
/// *between* shards — it moves free (unowned) cores from shards with free
/// -pool slack towards shards whose tenants starved since the last sweep.
///
/// The point is round cost: a flat arbiter's Poll touches all N tenants
/// every period; here one round touches O(N / num_shards), so decision
/// latency stays bounded as tenant count grows (bench/arbiter_scale.cc
/// quantifies the trade). Within a shard the full CoreArbiter semantics
/// apply unchanged — policies, floors, preemption, quarantine — and each
/// shard keeps its own ArbiterStats and trace namespace ("shard3:..."), so
/// chaos accounting stays attributable under the hierarchy.
class ShardedArbiter {
 public:
  ShardedArbiter(platform::Platform* platform,
                 const ShardedArbiterConfig& config);

  ShardedArbiter(const ShardedArbiter&) = delete;
  ShardedArbiter& operator=(const ShardedArbiter&) = delete;

  /// Registers a tenant (before Install), assigning it to shard
  /// (count % num_shards) — deterministic round-robin keeps shard loads
  /// within one tenant of each other. Returns the global tenant index.
  int AddTenant(const ArbiterTenantConfig& config);

  /// Carves the machine into per-shard domains (node-aligned when the
  /// machine has at least one node per shard, contiguous core ranges
  /// otherwise), installs every shard and registers the coordinator's
  /// monitoring hook. Every shard must have at least one tenant.
  void Install();

  /// One machine round: polls the next shard (round-robin) and, every
  /// four full sweeps, rebalances free cores between shard domains. Runs
  /// automatically every monitor_period_ticks once installed; public for
  /// benches and unit tests.
  void Poll(simcore::Tick now);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_tenants() const { return static_cast<int>(slots_.size()); }
  const CoreArbiter& shard(int s) const { return *shards_[static_cast<size_t>(s)]; }
  CoreArbiter& shard_mutable(int s) { return *shards_[static_cast<size_t>(s)]; }

  /// Which shard / local index a global tenant landed in.
  int shard_of(int tenant) const { return slots_[static_cast<size_t>(tenant)].shard; }
  int local_index(int tenant) const { return slots_[static_cast<size_t>(tenant)].local; }

  // Per-tenant views by global index (forwarded to the owning shard).
  const std::string& tenant_name(int tenant) const;
  const platform::CpuMask& tenant_mask(int tenant) const;
  platform::CpusetId tenant_cpuset(int tenant) const;
  int nalloc(int tenant) const;
  bool tenant_active(int tenant) const;
  bool tenant_quarantined(int tenant) const;
  void DetachTenant(int tenant);

  /// Health counters summed across every shard; per-shard counters stay
  /// available through shard(s).stats().
  ArbiterStats AggregateStats() const;

  /// Jain's fairness index over every active tenant's core count, machine
  /// -wide (the flat-arbiter FairnessIndex generalised across shards).
  double FairnessIndex() const;

  /// Machine-level rebalance activity (monotonic).
  int64_t rebalances() const { return rebalances_; }
  int64_t cores_rebalanced() const { return cores_rebalanced_; }

  /// Last-resort shutdown: every shard widens every tenant cpuset to the
  /// whole machine (see CoreArbiter::InstallFallbackMasks). Terminal.
  void InstallFallbackMasks();

 private:
  struct Slot {
    int shard = 0;
    int local = 0;
  };

  /// Moves free cores from slack shards to starved shards (one core per
  /// starved shard per invocation — gentle, deterministic pressure).
  void Rebalance();

  platform::Platform* platform_;
  ShardedArbiterConfig config_;
  std::vector<std::unique_ptr<CoreArbiter>> shards_;
  std::vector<Slot> slots_;
  bool installed_ = false;
  /// Poll invocations; selects the next shard and the rebalance cadence.
  int64_t fires_ = 0;
  /// starved_rounds() of each shard at the last rebalance (delta = fresh
  /// starvation pressure).
  std::vector<int64_t> last_starved_;
  int64_t rebalances_ = 0;
  int64_t cores_rebalanced_ = 0;
};

}  // namespace elastic::core

#endif  // ELASTICORE_CORE_SHARDED_ARBITER_H_
