#include "core/sharded_arbiter.h"

#include <string>
#include <utility>

#include "simcore/check.h"

namespace elastic::core {

/// Machine-level rebalance cadence, in full sweeps (one sweep = every shard
/// polled once).
constexpr int64_t kRebalancePeriodSweeps = 4;

ShardedArbiter::ShardedArbiter(platform::Platform* platform,
                               const ShardedArbiterConfig& config)
    : platform_(platform), config_(config) {
  ELASTIC_CHECK(config_.num_shards >= 1, "at least one shard");
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int s = 0; s < config_.num_shards; ++s) {
    ArbiterConfig shard_config = config_.arbiter;
    shard_config.register_tick_hook = false;  // the coordinator is the clock
    const std::string shard_name = "shard" + std::to_string(s);
    shard_config.instance_label = config_.arbiter.instance_label.empty()
                                      ? shard_name
                                      : config_.arbiter.instance_label + "." +
                                            shard_name;
    // Distinct backoff-jitter streams per shard; still drawn only on
    // install failures, so fault-free runs stay deterministic.
    shard_config.fault_seed =
        config_.arbiter.fault_seed + static_cast<uint64_t>(s);
    shards_.push_back(
        std::make_unique<CoreArbiter>(platform_, shard_config));
  }
  last_starved_.assign(shards_.size(), 0);
}

int ShardedArbiter::AddTenant(const ArbiterTenantConfig& config) {
  ELASTIC_CHECK(!installed_, "AddTenant after Install");
  Slot slot;
  slot.shard = num_tenants() % num_shards();
  slot.local = shards_[static_cast<size_t>(slot.shard)]->AddTenant(config);
  slots_.push_back(slot);
  return num_tenants() - 1;
}

void ShardedArbiter::Install() {
  ELASTIC_CHECK(!installed_, "sharded arbiter installed twice");
  ELASTIC_CHECK(num_tenants() >= num_shards(),
                "every shard needs at least one tenant");
  installed_ = true;

  // Carve the machine into disjoint per-shard domains. With at least one
  // node per shard the split is node-aligned (contiguous node ranges, so a
  // shard's tenants stay NUMA-clustered); on smaller machines it falls back
  // to contiguous core ranges.
  const numasim::Topology& topo = platform_->topology();
  const int num_shards_i = num_shards();
  std::vector<platform::CpuMask> domains(static_cast<size_t>(num_shards_i));
  if (topo.num_nodes() >= num_shards_i) {
    for (int s = 0; s < num_shards_i; ++s) {
      const int begin = s * topo.num_nodes() / num_shards_i;
      const int end = (s + 1) * topo.num_nodes() / num_shards_i;
      platform::CpuMask domain;
      for (int node = begin; node < end; ++node) {
        domain = domain.Union(platform::CpuMask::NodeCores(topo, node));
      }
      domains[static_cast<size_t>(s)] = domain;
    }
  } else {
    const int total = topo.total_cores();
    for (int s = 0; s < num_shards_i; ++s) {
      const int begin = s * total / num_shards_i;
      const int end = (s + 1) * total / num_shards_i;
      platform::CpuMask domain;
      for (int core = begin; core < end; ++core) domain.Set(core);
      domains[static_cast<size_t>(s)] = domain;
    }
  }
  for (int s = 0; s < num_shards_i; ++s) {
    shards_[static_cast<size_t>(s)]->SetDomain(
        domains[static_cast<size_t>(s)]);
    shards_[static_cast<size_t>(s)]->Install();
  }

  if (config_.arbiter.register_tick_hook) {
    platform_->AddTickHook([this](simcore::Tick now) {
      if (now % config_.arbiter.monitor_period_ticks == 0 && now > 0) {
        Poll(now);
      }
    });
  }
}

void ShardedArbiter::Poll(simcore::Tick now) {
  ELASTIC_CHECK(installed_, "Poll before Install");
  const int s = static_cast<int>(fires_ % num_shards());
  shards_[static_cast<size_t>(s)]->Poll(now);
  fires_++;
  if (fires_ % (num_shards() * kRebalancePeriodSweeps) == 0) Rebalance();
}

void ShardedArbiter::Rebalance() {
  rebalances_++;
  const int num_shards_i = num_shards();
  // Fresh starvation pressure since the last rebalance: the shard-level
  // arbiter counts a starved round whenever a grow demand goes unmet with
  // nothing left to preempt — exactly the "my domain budget is too small"
  // signal the machine level can act on.
  std::vector<int64_t> pressure(static_cast<size_t>(num_shards_i), 0);
  for (int s = 0; s < num_shards_i; ++s) {
    pressure[static_cast<size_t>(s)] =
        shards_[static_cast<size_t>(s)]->starved_rounds() -
        last_starved_[static_cast<size_t>(s)];
    last_starved_[static_cast<size_t>(s)] =
        shards_[static_cast<size_t>(s)]->starved_rounds();
  }
  for (int s = 0; s < num_shards_i; ++s) {
    if (pressure[static_cast<size_t>(s)] <= 0) continue;
    // Donor: the pressure-free shard with the most free-pool slack (ties
    // towards the lowest shard id — fully deterministic).
    int donor = -1;
    int donor_free = 0;
    for (int d = 0; d < num_shards_i; ++d) {
      if (d == s || pressure[static_cast<size_t>(d)] > 0) continue;
      const int free = shards_[static_cast<size_t>(d)]->FreePool().Count();
      if (free > donor_free) {
        donor = d;
        donor_free = free;
      }
    }
    if (donor < 0) continue;
    CoreArbiter& from = *shards_[static_cast<size_t>(donor)];
    CoreArbiter& to = *shards_[static_cast<size_t>(s)];
    const numasim::CoreId core = from.FreePool().First();
    platform::CpuMask shrunk = from.domain();
    shrunk.Clear(core);
    platform::CpuMask grown = to.domain();
    grown.Set(core);
    // The moved core is free in the donor, so the owned-subset invariant
    // holds by construction and neither resize can fail.
    ELASTIC_CHECK(from.TryResizeDomain(shrunk) && to.TryResizeDomain(grown),
                  "rebalance moved an owned core");
    cores_rebalanced_++;
  }
}

const std::string& ShardedArbiter::tenant_name(int tenant) const {
  const Slot& slot = slots_[static_cast<size_t>(tenant)];
  return shards_[static_cast<size_t>(slot.shard)]->tenant_name(slot.local);
}

const platform::CpuMask& ShardedArbiter::tenant_mask(int tenant) const {
  const Slot& slot = slots_[static_cast<size_t>(tenant)];
  return shards_[static_cast<size_t>(slot.shard)]->tenant_mask(slot.local);
}

platform::CpusetId ShardedArbiter::tenant_cpuset(int tenant) const {
  const Slot& slot = slots_[static_cast<size_t>(tenant)];
  return shards_[static_cast<size_t>(slot.shard)]->tenant_cpuset(slot.local);
}

int ShardedArbiter::nalloc(int tenant) const {
  const Slot& slot = slots_[static_cast<size_t>(tenant)];
  return shards_[static_cast<size_t>(slot.shard)]->nalloc(slot.local);
}

bool ShardedArbiter::tenant_active(int tenant) const {
  const Slot& slot = slots_[static_cast<size_t>(tenant)];
  return shards_[static_cast<size_t>(slot.shard)]->tenant_active(slot.local);
}

bool ShardedArbiter::tenant_quarantined(int tenant) const {
  const Slot& slot = slots_[static_cast<size_t>(tenant)];
  return shards_[static_cast<size_t>(slot.shard)]->tenant_quarantined(
      slot.local);
}

void ShardedArbiter::DetachTenant(int tenant) {
  const Slot& slot = slots_[static_cast<size_t>(tenant)];
  shards_[static_cast<size_t>(slot.shard)]->DetachTenant(slot.local);
}

ArbiterStats ShardedArbiter::AggregateStats() const {
  ArbiterStats total;
  for (const auto& shard : shards_) {
    const ArbiterStats& s = shard->stats();
    total.stale_rounds += s.stale_rounds;
    total.held_rounds += s.held_rounds;
    total.decayed_cores += s.decayed_cores;
    total.failed_installs += s.failed_installs;
    total.quarantine_entries += s.quarantine_entries;
    total.quarantined_rounds += s.quarantined_rounds;
    total.detached_tenants += s.detached_tenants;
  }
  return total;
}

double ShardedArbiter::FairnessIndex() const {
  std::vector<double> counts;
  counts.reserve(slots_.size());
  for (int t = 0; t < num_tenants(); ++t) {
    if (!tenant_active(t)) continue;
    counts.push_back(static_cast<double>(nalloc(t)));
  }
  return CoreArbiter::JainIndex(counts);
}

void ShardedArbiter::InstallFallbackMasks() {
  for (const auto& shard : shards_) shard->InstallFallbackMasks();
}

}  // namespace elastic::core
