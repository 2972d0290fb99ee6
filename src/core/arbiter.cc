#include "core/arbiter.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "simcore/check.h"

namespace elastic::core {

namespace {

/// Install retry backoff: the first retry waits one round, each further
/// failure doubles the wait, capped at kInstallMaxBackoffRounds (plus
/// jitter).
constexpr int kInstallRetryBaseRounds = 1;
constexpr int kInstallMaxBackoffRounds = 8;

/// Whether the tenant holds more cores than its claim's ceiling. Most claims
/// have none, and then the mask is not counted: Poll asks for every tenant,
/// and at a thousand tenants the counts show in the round time.
bool AboveCeiling(const platform::CpuMask& mask, const Claim& claim) {
  return claim.ceiling != kNoCeiling && mask.Count() > claim.ceiling;
}

/// Takes one core out of `mask`, the one the tenant's allocation mode
/// releases first, and returns it.
numasim::CoreId ReleaseOne(AllocationMode& mode, platform::CpuMask& mask) {
  const numasim::CoreId core = mode.NextToRelease(mask);
  ELASTIC_CHECK(core != numasim::kInvalidCore, "release from a 1-core tenant");
  mask.Clear(core);
  return core;
}

}  // namespace

CoreArbiter::CoreArbiter(platform::Platform* platform,
                         const ArbiterConfig& config)
    : platform_(platform),
      config_(config),
      policy_(MakeEntitlementPolicy(config.policy)),
      domain_(platform::CpuMask::AllOf(platform->topology())),
      jitter_rng_(config.fault_seed) {
  ELASTIC_CHECK(config_.monitor_period_ticks >= 1, "monitoring period >= 1");
  ELASTIC_CHECK(config_.stale_ttl_rounds >= 0, "stale TTL >= 0");
  ELASTIC_CHECK(config_.quarantine_after_failures >= 1 &&
                    config_.quarantine_probe_rounds >= 1,
                "quarantine thresholds >= 1");
}

int CoreArbiter::AddTenant(const ArbiterTenantConfig& config) {
  ELASTIC_CHECK(!installed_, "AddTenant after Install");
  ELASTIC_CHECK(config.weight > 0.0, "tenant weight must be positive");
  Tenant tenant;
  tenant.config = config;
  tenant.mechanism = std::make_unique<ElasticMechanism>(
      platform_, MakeMode(config.mode, &platform_->topology()),
      config.mechanism);
  // Placeholder mask; Install() narrows it to the tenant's initial cores.
  tenant.cpuset = platform_->CreateCpuset(
      config.name, platform::CpuMask::AllOf(platform_->topology()));
  tenants_.push_back(std::move(tenant));
  return num_tenants() - 1;
}

const std::string& CoreArbiter::tenant_name(int tenant) const {
  return tenants_[static_cast<size_t>(tenant)].config.name;
}

ElasticMechanism& CoreArbiter::mechanism(int tenant) {
  return *tenants_[static_cast<size_t>(tenant)].mechanism;
}

platform::CpusetId CoreArbiter::tenant_cpuset(int tenant) const {
  return tenants_[static_cast<size_t>(tenant)].cpuset;
}

const platform::CpuMask& CoreArbiter::tenant_mask(int tenant) const {
  return tenants_[static_cast<size_t>(tenant)].mask;
}

int CoreArbiter::nalloc(int tenant) const {
  return tenants_[static_cast<size_t>(tenant)].mask.Count();
}

platform::CpuMask CoreArbiter::FreePool() const {
  platform::CpuMask owned;
  for (const Tenant& tenant : tenants_) owned = owned.Union(tenant.mask);
  return domain_.Difference(owned);
}

numasim::CoreId CoreArbiter::PickCoreFor(const Tenant& tenant,
                                         const platform::CpuMask& pool) const {
  const numasim::Topology& topo = platform_->topology();
  const int cores_per_node = topo.config().cores_per_node;
  // The NUMA-aware handout: a node's score is dominated by how many cores
  // the tenant already holds there (cluster the cpuset), with free capacity
  // as the tie breaker. The core comes from the best-scoring node with a
  // free core; equal scores go to the lower node id, so handout is fully
  // deterministic.
  const double weight = static_cast<double>(domain_.Count() + 1);
  numasim::NodeId best = numasim::kInvalidNode;
  double best_score = 0.0;
  for (numasim::NodeId node = 0; node < topo.num_nodes(); ++node) {
    int own = 0;
    int free = 0;
    for (int j = 0; j < cores_per_node; ++j) {
      const numasim::CoreId core = topo.CoreAt(node, j);
      if (tenant.mask.Has(core)) own++;
      if (pool.Has(core)) free++;
    }
    if (free == 0) continue;
    double score = own * weight + free;
    if (config_.numa_affinity_weight > 0.0 &&
        node < static_cast<numasim::NodeId>(tenant.mem_fraction.size())) {
      // Island-affinity term: a node holding the tenant's whole resident
      // set scores like numa_affinity_weight already-owned cores, so fresh
      // grants land where the pages are instead of wherever the free pool
      // happens to start.
      score += config_.numa_affinity_weight * weight *
               tenant.mem_fraction[static_cast<size_t>(node)];
    }
    if (best == numasim::kInvalidNode || score > best_score) {
      best = node;
      best_score = score;
    }
  }
  if (best == numasim::kInvalidNode) return numasim::kInvalidCore;
  for (int j = 0; j < cores_per_node; ++j) {
    const numasim::CoreId core = topo.CoreAt(best, j);
    if (pool.Has(core)) return core;
  }
  return numasim::kInvalidCore;
}

void CoreArbiter::Install() {
  ELASTIC_CHECK(!installed_, "arbiter installed twice");
  ELASTIC_CHECK(!tenants_.empty(), "arbiter needs at least one tenant");
  int initial_total = 0;
  for (const Tenant& tenant : tenants_) {
    initial_total += tenant.config.mechanism.initial_cores;
    policy_->Validate(tenant.config);
  }
  ELASTIC_CHECK(initial_total <= domain_.Count(),
                "initial cores of all tenants exceed the machine");
  installed_ = true;

  // Hand out the initial disjoint masks; PickCoreFor naturally spreads
  // fresh tenants across sockets (a new tenant prefers the emptiest node).
  platform::CpuMask pool = domain_;
  for (Tenant& tenant : tenants_) {
    for (int i = 0; i < tenant.config.mechanism.initial_cores; ++i) {
      const numasim::CoreId core = PickCoreFor(tenant, pool);
      ELASTIC_CHECK(core != numasim::kInvalidCore, "initial handout failed");
      tenant.mask.Set(core);
      pool.Clear(core);
    }
    platform_->SetCpusetMask(tenant.cpuset, tenant.mask);
    tenant.mechanism->InstallManaged(tenant.mask);
  }

  if (config_.register_tick_hook) {
    platform_->AddTickHook([this](simcore::Tick now) {
      if (now % config_.monitor_period_ticks == 0 && now > 0) Poll(now);
    });
  }
}

std::vector<TelemetrySnapshot> CoreArbiter::CollectTelemetry(
    simcore::Tick now) const {
  std::vector<TelemetrySnapshot> snapshots(
      static_cast<size_t>(num_tenants()));
  // Static policies never pull telemetry — unless the island-affinity term
  // is armed, which needs the kMemory signal regardless of policy.
  if (!policy_->reads_telemetry() && config_.numa_affinity_weight <= 0.0) {
    return snapshots;
  }
  for (int i = 0; i < num_tenants(); ++i) {
    const Tenant& tenant = tenants_[static_cast<size_t>(i)];
    if (!tenant.active || !tenant.config.telemetry) continue;
    TelemetrySnapshot& snap = snapshots[static_cast<size_t>(i)];
    snap = tenant.config.telemetry(now);
    snap.valid_mask &= tenant.config.telemetry_caps;
    snap.Sanitize();
  }
  return snapshots;
}

void CoreArbiter::UpdateMemoryResidency(
    const std::vector<TelemetrySnapshot>& snapshots) {
  if (config_.numa_affinity_weight <= 0.0) return;
  const int num_nodes = platform_->topology().num_nodes();
  for (int i = 0; i < num_tenants(); ++i) {
    Tenant& tenant = tenants_[static_cast<size_t>(i)];
    const TelemetrySnapshot& snap = snapshots[static_cast<size_t>(i)];
    if (!tenant.active || !snap.has(TelemetrySnapshot::kMemory)) continue;
    // A residency vector that does not match the machine is garbage — keep
    // the last good reading rather than steering on it.
    if (static_cast<int>(snap.resident_pages_per_node.size()) != num_nodes) {
      continue;
    }
    int64_t total = 0;
    for (const int64_t pages : snap.resident_pages_per_node) total += pages;
    if (total <= 0) continue;  // nothing resident yet: no preference
    tenant.mem_fraction.assign(static_cast<size_t>(num_nodes), 0.0);
    for (int node = 0; node < num_nodes; ++node) {
      tenant.mem_fraction[static_cast<size_t>(node)] =
          static_cast<double>(
              snap.resident_pages_per_node[static_cast<size_t>(node)]) /
          static_cast<double>(total);
    }
  }
}

void CoreArbiter::Poll(simcore::Tick now) {
  ELASTIC_CHECK(installed_, "Poll before Install");
  const int count = num_tenants();

  std::vector<ElasticMechanism::Decision> decisions;
  decisions.reserve(static_cast<size_t>(count));
  for (Tenant& tenant : tenants_) {
    if (!tenant.active) {
      // Detached tenants are no longer polled; a hold-at-zero placeholder
      // keeps the per-index vectors aligned.
      decisions.push_back(ElasticMechanism::Decision{});
      continue;
    }
    ElasticMechanism::Decision d = tenant.mechanism->Decide();
    if (!d.valid) {
      tenant.stale_rounds++;
      stats_.stale_rounds++;
      if (tenant.stale_rounds <= config_.stale_ttl_rounds) {
        stats_.held_rounds++;
      }
    } else {
      tenant.stale_rounds = 0;
    }
    decisions.push_back(std::move(d));
  }

  ArbiterRound round;
  round.tick = now;
  // Per-tenant entries exist only for the log to keep.
  if (config_.log_rounds) round.tenants.resize(static_cast<size_t>(count));

  // Phase 1: shrinks release one core each into the free pool. A tenant
  // collapsing towards its floor frees capacity in the very round another
  // tenant may claim it — unless the policy holds that floor as standby.
  for (int i = 0; i < count; ++i) {
    Tenant& tenant = tenants_[static_cast<size_t>(i)];
    const ElasticMechanism::Decision& d = decisions[static_cast<size_t>(i)];
    if (!tenant.active || Frozen(tenant)) continue;
    if (d.desired >= d.current) continue;
    if (policy_->HoldsFloor(tenant.config) &&
        tenant.mask.Count() <= tenant.config.floor_cores()) {
      continue;
    }
    ReleaseOne(tenant.mechanism->mode(), tenant.mask);
    round.handoffs++;
  }

  // Phase 2: the policy plans this round's claims, then grows are granted
  // from the pool, most-entitled-deficit first. All telemetry of the round
  // is pulled here, once per tenant, through the unified snapshot.
  const std::vector<TelemetrySnapshot> snapshots = CollectTelemetry(now);
  UpdateMemoryResidency(snapshots);
  std::vector<TenantView> views(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const Tenant& tenant = tenants_[static_cast<size_t>(i)];
    views[static_cast<size_t>(i)] = TenantView{
        &tenant.config, &tenant.mask, &decisions[static_cast<size_t>(i)],
        &snapshots[static_cast<size_t>(i)], tenant.active, Frozen(tenant)};
  }
  const std::vector<Claim> claims = policy_->Plan(views, domain_.Count());

  // Decay, one core per round per tenant, then collect the growers. A
  // tenant blind past the stale TTL stops holding its last allocation and
  // releases towards its entitlement (a stale signal earns no more than the
  // tenant is notionally owed), never below the initial_cores floor; held
  // rounds within the TTL change nothing. A tenant above its ceiling walks
  // down towards it, and at its ceiling it does not grow, whatever its
  // utilization-driven demand says.
  struct Grower {
    /// Entitlement minus held cores, plus the island-affinity bonus.
    double deficit;
    int held;
    int index;
  };
  std::vector<Grower> growers;
  for (int i = 0; i < count; ++i) {
    Tenant& tenant = tenants_[static_cast<size_t>(i)];
    const Claim& claim = claims[static_cast<size_t>(i)];
    const ElasticMechanism::Decision& d = decisions[static_cast<size_t>(i)];
    if (!tenant.active || Frozen(tenant)) continue;
    if (tenant.stale_rounds > config_.stale_ttl_rounds) {
      const int target =
          std::max(tenant.config.floor_cores(),
                   static_cast<int>(std::ceil(claim.entitlement)));
      if (tenant.mask.Count() > target) {
        ReleaseOne(tenant.mechanism->mode(), tenant.mask);
        round.handoffs++;
        stats_.decayed_cores++;
      }
    }
    if (AboveCeiling(tenant.mask, claim)) {
      ReleaseOne(tenant.mechanism->mode(), tenant.mask);
      round.handoffs++;
    }
    if (d.desired <= d.current) continue;
    const int held = tenant.mask.Count();
    if (held < claim.ceiling) {
      growers.push_back(Grower{claim.entitlement - held, held, i});
    }
  }
  platform::CpuMask pool = FreePool();
  // Island-affinity bonus on the grant ordering: the locality a tenant can
  // realize from the current pool (the largest resident-page share among
  // nodes with a free core). Nothing is added at affinity weight 0, so the
  // legacy deficit ordering is reproduced exactly.
  if (config_.numa_affinity_weight > 0.0) {
    const numasim::Topology& topo = platform_->topology();
    std::vector<bool> node_has_free(static_cast<size_t>(topo.num_nodes()));
    for (numasim::NodeId node = 0; node < topo.num_nodes(); ++node) {
      for (int j = 0; j < topo.config().cores_per_node; ++j) {
        if (pool.Has(topo.CoreAt(node, j))) {
          node_has_free[static_cast<size_t>(node)] = true;
          break;
        }
      }
    }
    for (Grower& grower : growers) {
      const Tenant& tenant = tenants_[static_cast<size_t>(grower.index)];
      if (tenant.mem_fraction.empty()) continue;
      const size_t nodes =
          std::min(node_has_free.size(), tenant.mem_fraction.size());
      double best = 0.0;
      for (size_t node = 0; node < nodes; ++node) {
        if (node_has_free[node]) {
          best = std::max(best, tenant.mem_fraction[node]);
        }
      }
      grower.deficit += config_.numa_affinity_weight * best;
    }
  }
  // Larger deficit first, then fewer held cores, then the lower index.
  std::sort(growers.begin(), growers.end(),
            [](const Grower& a, const Grower& b) {
              if (a.deficit != b.deficit) return a.deficit > b.deficit;
              if (a.held != b.held) return a.held < b.held;
              return a.index < b.index;
            });

  std::vector<int> unmet;
  for (const Grower& grower : growers) {
    Tenant& tenant = tenants_[static_cast<size_t>(grower.index)];
    if (pool.Empty()) {
      unmet.push_back(grower.index);
      continue;
    }
    // The tenant's mode places the core when it has a grow order of its own
    // (sparse; adaptive once a window showed traffic), else PickCoreFor.
    numasim::CoreId core =
        tenant.mechanism->mode().NextToAllocate(domain_.Difference(pool));
    if (core == numasim::kInvalidCore) core = PickCoreFor(tenant, pool);
    ELASTIC_CHECK(core != numasim::kInvalidCore, "grant from empty pool");
    tenant.mask.Set(core);
    pool.Clear(core);
    round.handoffs++;
  }

  // Phase 3: unmet grows may preempt one core from the tenant furthest
  // above its entitlement — never from an overloaded tenant (unless the
  // grower is urgent and the victim yields, or the core sits above the
  // victim's ceiling) and never below the victim's initial_cores floor.
  //
  // The overload shield is only honoured while the victim's signal is
  // fresh: a stale tenant's "overload" is a replay of its last good
  // window, and holding cores on its strength would let a dead probe pin
  // capacity indefinitely.
  auto shielded = [&](int v) {
    return decisions[static_cast<size_t>(v)].state == PerfState::kOverload &&
           tenants_[static_cast<size_t>(v)].stale_rounds <=
               config_.stale_ttl_rounds &&
           !AboveCeiling(tenants_[static_cast<size_t>(v)].mask,
                         claims[static_cast<size_t>(v)]);
  };
  // The victim candidates, in index order: the tenants that pass every test
  // no grower changes (active, not frozen, above floor and entitlement) and
  // are not shielded against every grower (a shielded tenant counts only
  // if it yields to urgent growers). Only a preemption changes the masks
  // these tests read, so only a preemption rebuilds the list.
  std::vector<int> candidates;
  bool candidates_stale = true;
  for (int grower : unmet) {
    if (candidates_stale) {
      candidates.clear();
      for (int v = 0; v < count; ++v) {
        const Tenant& candidate = tenants_[static_cast<size_t>(v)];
        const Claim& claim = claims[static_cast<size_t>(v)];
        if (!candidate.active || Frozen(candidate)) continue;
        if (shielded(v) && !claim.yields) continue;
        const int held = candidate.mask.Count();
        if (held <= candidate.config.floor_cores()) continue;
        if (held - claim.entitlement <= 0.0) continue;
        candidates.push_back(v);
      }
      candidates_stale = false;
    }
    const bool urgent = claims[static_cast<size_t>(grower)].urgent;
    int victim = -1;
    double worst_excess = 0.0;
    for (int v : candidates) {
      if (v == grower) continue;
      const Tenant& candidate = tenants_[static_cast<size_t>(v)];
      const Claim& claim = claims[static_cast<size_t>(v)];
      if (shielded(v) && !(urgent && claim.yields)) continue;
      const double excess = candidate.mask.Count() - claim.entitlement;
      if (victim < 0 || excess > worst_excess) {
        victim = v;
        worst_excess = excess;
      }
    }
    if (victim < 0) victim = policy_->TieBreakVictim(grower, views);
    if (victim < 0) {
      round.starved++;
      continue;
    }
    Tenant& loser = tenants_[static_cast<size_t>(victim)];
    tenants_[static_cast<size_t>(grower)].mask.Set(
        ReleaseOne(loser.mechanism->mode(), loser.mask));
    round.handoffs++;
    round.preemptions++;
    candidates_stale = true;
  }

  // Phase 4: install the rebalanced cpusets and commit the grants into the
  // tenants' nets so next round's t4..t7 guards see the real counts. A
  // rejected install freezes the tenant's mask behind backoff/quarantine
  // (TryInstall) while the remaining tenants keep arbitrating normally.
  for (int i = 0; i < count; ++i) {
    Tenant& tenant = tenants_[static_cast<size_t>(i)];
    if (!tenant.active) {
      if (config_.log_rounds) {
        round.tenants[static_cast<size_t>(i)].detached = true;
      }
      continue;
    }
    const InstallResult install = TryInstall(tenant);
    tenant.mechanism->CommitGrant(tenant.mask);
    if (!config_.log_rounds) continue;
    TenantRound& tr = round.tenants[static_cast<size_t>(i)];
    tr.install_failed = install.failed;
    tr.quarantined = install.quarantined;
    tr.decision = std::move(decisions[static_cast<size_t>(i)]);
    tr.granted = tenant.mask.Count();
  }

  stats_.handoffs += round.handoffs;
  stats_.preemptions += round.preemptions;
  if (round.starved > 0) stats_.starved_rounds++;
  if (config_.log_rounds) log_.push_back(std::move(round));
  round_counter_++;
}

CoreArbiter::InstallResult CoreArbiter::TryInstall(Tenant& tenant) {
  InstallResult result;
  if (tenant.quarantined) {
    stats_.quarantined_rounds++;
    result.quarantined = true;
    if (round_counter_ < tenant.probe_round) return result;
    // Periodic probe write: one attempt per quarantine_probe_rounds. On
    // success the cpuset rejoins normal arbitration next round.
    if (platform_->SetCpusetMask(tenant.cpuset, tenant.mask)) {
      tenant.quarantined = false;
      tenant.install_failures = 0;
      return result;
    }
    stats_.failed_installs++;
    result.failed = true;
    tenant.probe_round = round_counter_ + config_.quarantine_probe_rounds;
    return result;
  }
  if (tenant.install_failures > 0 && round_counter_ < tenant.next_retry_round) {
    return result;  // mid-backoff: the mask is frozen, nothing to write yet
  }
  if (platform_->SetCpusetMask(tenant.cpuset, tenant.mask)) {
    tenant.install_failures = 0;
    return result;
  }
  stats_.failed_installs++;
  result.failed = true;
  tenant.install_failures++;
  if (tenant.install_failures >= config_.quarantine_after_failures) {
    tenant.quarantined = true;
    stats_.quarantine_entries++;
    tenant.probe_round = round_counter_ + config_.quarantine_probe_rounds;
    return result;
  }
  // Exponential backoff with seeded jitter; capped so a flapping cgroup
  // never pushes the retry horizon past kInstallMaxBackoffRounds + jitter.
  const int64_t base = kInstallRetryBaseRounds;
  int64_t backoff = base << std::min(tenant.install_failures - 1, 30);
  backoff = std::min<int64_t>(backoff, kInstallMaxBackoffRounds);
  backoff += static_cast<int64_t>(
      jitter_rng_.NextBounded(static_cast<uint64_t>(base) + 1));
  tenant.next_retry_round = round_counter_ + backoff;
  return result;
}

void CoreArbiter::DetachTenant(int tenant) {
  Tenant& t = tenants_[static_cast<size_t>(tenant)];
  if (!t.active) return;
  t.active = false;
  stats_.detached_tenants++;
  // The cores return to the free pool immediately (FreePool unions only the
  // tenants' masks); the platform cpuset is left as-is — it confines nothing.
  t.mask = platform::CpuMask();
}

bool CoreArbiter::tenant_active(int tenant) const {
  return tenants_[static_cast<size_t>(tenant)].active;
}

bool CoreArbiter::tenant_quarantined(int tenant) const {
  return tenants_[static_cast<size_t>(tenant)].quarantined;
}

void CoreArbiter::InstallFallbackMasks() {
  const platform::CpuMask all =
      platform::CpuMask::AllOf(platform_->topology());
  for (Tenant& tenant : tenants_) {
    // Best-effort by design: a quarantined cpuset may still reject the
    // write, but widening to the whole machine can never make confinement
    // worse than whatever mask is already installed.
    platform_->SetCpusetMask(tenant.cpuset, all);
  }
}

double CoreArbiter::JainIndex(const std::vector<double>& values) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (values.empty() || sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

double CoreArbiter::FairnessIndex() const {
  std::vector<double> counts;
  counts.reserve(tenants_.size());
  for (const Tenant& tenant : tenants_) {
    if (!tenant.active) continue;  // a detached tenant holds 0 by definition
    counts.push_back(static_cast<double>(tenant.mask.Count()));
  }
  return JainIndex(counts);
}

}  // namespace elastic::core
