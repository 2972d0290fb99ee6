#include "core/arbiter.h"

#include <gtest/gtest.h>

#include "ossim/machine.h"
#include "platform/sim_platform.h"
#include "simcore/rng.h"

namespace elastic::core {
namespace {

/// A small 2-node / 4-core machine keeps the contention arithmetic obvious.
std::unique_ptr<ossim::Machine> SmallMachine() {
  ossim::MachineOptions options;
  options.config.num_nodes = 2;
  options.config.cores_per_node = 2;
  return std::make_unique<ossim::Machine>(options);
}

ArbiterTenantConfig Tenant(const std::string& name, int initial_cores,
                           double weight = 1.0) {
  ArbiterTenantConfig config;
  config.name = name;
  config.mechanism.initial_cores = initial_cores;
  config.weight = weight;
  return config;
}

/// Makes the cores of `mask` look `percent` busy over `ticks` ticks by
/// writing counters directly; the caller advances the clock once per batch.
void FakeLoad(ossim::Machine* machine, const platform::CpuMask& mask,
              double percent, int ticks) {
  const int64_t cycles_per_tick = machine->scheduler().cycles_per_tick();
  for (numasim::CoreId core : mask.ToCores()) {
    machine->counters().core_busy_cycles[static_cast<size_t>(core)] +=
        static_cast<int64_t>(percent / 100.0 * cycles_per_tick * ticks);
  }
}

void ExpectDisjointCover(const CoreArbiter& arbiter, int total_cores) {
  uint64_t seen = 0;
  for (int t = 0; t < arbiter.num_tenants(); ++t) {
    const platform::CpuMask& mask = arbiter.tenant_mask(t);
    EXPECT_GE(mask.Count(), 1) << "tenant " << t << " lost its last core";
    EXPECT_EQ(seen & mask.bits(), 0u) << "tenant masks overlap";
    seen |= mask.bits();
  }
  EXPECT_EQ(seen & ~((uint64_t{1} << total_cores) - 1), 0u)
      << "mask beyond the machine";
}

TEST(ArbiterTest, InstallAssignsDisjointSpreadMasks) {
  auto machine = SmallMachine();
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, ArbiterConfig{});
  arbiter.AddTenant(Tenant("a", 2));
  arbiter.AddTenant(Tenant("b", 1));
  arbiter.Install();
  // Tenant a clusters on node 0; the fresh tenant b prefers the emptier
  // node 1.
  EXPECT_EQ(arbiter.tenant_mask(0), platform::CpuMask::Of({0, 1}));
  EXPECT_EQ(arbiter.tenant_mask(1), platform::CpuMask::Of({2}));
  EXPECT_EQ(arbiter.FreePool(), platform::CpuMask::Of({3}));
  ExpectDisjointCover(arbiter, 4);
  // Scheduler cpusets mirror the masks.
  EXPECT_EQ(machine->scheduler().cpuset_mask(arbiter.tenant_cpuset(0)),
            arbiter.tenant_mask(0));
  EXPECT_EQ(machine->scheduler().cpuset_mask(arbiter.tenant_cpuset(1)),
            arbiter.tenant_mask(1));
}

TEST(ArbiterTest, BothOverloadedOneFreeCoreFairShare) {
  auto machine = SmallMachine();
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, ArbiterConfig{});
  arbiter.AddTenant(Tenant("a", 2));
  arbiter.AddTenant(Tenant("b", 1));
  arbiter.Install();

  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());

  // Both demand +1 with one free core. Fair share (2 each): tenant b is
  // further below its entitlement and wins the core; tenant a's demand is
  // starved (b is overloaded, so no preemption from it either).
  EXPECT_EQ(arbiter.nalloc(0), 2);
  EXPECT_EQ(arbiter.nalloc(1), 2);
  EXPECT_EQ(arbiter.starved_rounds(), 1);
  EXPECT_EQ(arbiter.preemptions(), 0);
  ExpectDisjointCover(arbiter, 4);
  ASSERT_EQ(arbiter.log().size(), 1u);
  EXPECT_EQ(arbiter.log()[0].tenants[0].state, PerfState::kOverload);
  EXPECT_EQ(arbiter.log()[0].tenants[1].state, PerfState::kOverload);
  EXPECT_EQ(arbiter.log()[0].tenants[0].demanded, 3);
  EXPECT_EQ(arbiter.log()[0].tenants[0].granted, 2);
}

TEST(ArbiterTest, BothOverloadedPriorityWeightedPrefersHeavyTenant) {
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kPriorityWeighted;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  arbiter.AddTenant(Tenant("heavy", 2, /*weight=*/3.0));
  arbiter.AddTenant(Tenant("light", 1, /*weight=*/1.0));
  arbiter.Install();

  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());

  // Entitlements 3:1 — the heavy tenant is below its share and takes the
  // free core even though it already holds more.
  EXPECT_EQ(arbiter.nalloc(0), 3);
  EXPECT_EQ(arbiter.nalloc(1), 1);
  ExpectDisjointCover(arbiter, 4);
}

TEST(ArbiterTest, DemandProportionalFollowsBusyCoreEquivalents) {
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kDemandProportional;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  arbiter.AddTenant(Tenant("a", 2));
  arbiter.AddTenant(Tenant("b", 1));
  arbiter.Install();

  // a: 99% of 2 cores (~2 busy-core equivalents), b: 99% of 1 (~1).
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());

  // Entitlements ~2.67 vs ~1.33: a's deficit is larger and a gets the core.
  EXPECT_EQ(arbiter.nalloc(0), 3);
  EXPECT_EQ(arbiter.nalloc(1), 1);
  ExpectDisjointCover(arbiter, 4);
}

TEST(ArbiterTest, ShrinkReleasesCoreAnotherTenantClaims) {
  auto machine = SmallMachine();
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, ArbiterConfig{});
  arbiter.AddTenant(Tenant("idle", 3));
  arbiter.AddTenant(Tenant("busy", 1));
  arbiter.Install();
  ASSERT_EQ(arbiter.FreePool().Count(), 0);

  FakeLoad(machine.get(), arbiter.tenant_mask(0), 2.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());

  // The idle tenant shrinks; its released core lands in the pool and the
  // overloaded tenant claims it in the very same round.
  EXPECT_EQ(arbiter.nalloc(0), 2);
  EXPECT_EQ(arbiter.nalloc(1), 2);
  EXPECT_EQ(arbiter.core_handoffs(), 2);
  EXPECT_EQ(arbiter.preemptions(), 0);
  ExpectDisjointCover(arbiter, 4);
}

TEST(ArbiterTest, PreemptionTakesFromOverEntitledStableTenant) {
  auto machine = SmallMachine();
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, ArbiterConfig{});
  arbiter.AddTenant(Tenant("hog", 1));
  arbiter.AddTenant(Tenant("starved", 1));
  arbiter.Install();

  // Grow the hog to 3 cores while the other tenant idles at its 1-core
  // floor (it cannot shrink below 1, so the pool drains).
  for (int round = 0; round < 2; ++round) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
    FakeLoad(machine.get(), arbiter.tenant_mask(1), 50.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
  }
  ASSERT_EQ(arbiter.nalloc(0), 3);
  ASSERT_EQ(arbiter.FreePool().Count(), 0);

  // Now the roles flip: the hog goes stable, the other tenant overloads.
  // No free core exists, so the arbiter preempts one from the hog (above
  // its fair entitlement of 2, not overloaded, above its floor of 1).
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 50.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());

  EXPECT_EQ(arbiter.nalloc(0), 2);
  EXPECT_EQ(arbiter.nalloc(1), 2);
  EXPECT_EQ(arbiter.preemptions(), 1);
  ExpectDisjointCover(arbiter, 4);
}

TEST(ArbiterTest, PreemptionRespectsInitialCoresFloor) {
  auto machine = SmallMachine();
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, ArbiterConfig{});
  // The "protected" tenant's floor is its whole holding: 2 initial cores.
  arbiter.AddTenant(Tenant("protected", 2));
  arbiter.AddTenant(Tenant("grower", 2));
  arbiter.Install();
  ASSERT_EQ(arbiter.FreePool().Count(), 0);

  FakeLoad(machine.get(), arbiter.tenant_mask(0), 50.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());

  // No victim: the stable tenant sits at its initial_cores floor.
  EXPECT_EQ(arbiter.nalloc(0), 2);
  EXPECT_EQ(arbiter.nalloc(1), 2);
  EXPECT_EQ(arbiter.preemptions(), 0);
  EXPECT_EQ(arbiter.starved_rounds(), 1);
}

TEST(ArbiterTest, PolicyDeterminismUnderFixedRngSeed) {
  // Identical machines driven by identical simcore-RNG load sequences must
  // produce byte-identical arbitration histories, for every policy.
  for (ArbitrationPolicy policy :
       {ArbitrationPolicy::kFairShare, ArbitrationPolicy::kPriorityWeighted,
        ArbitrationPolicy::kDemandProportional}) {
    auto run = [policy]() {
      auto machine = SmallMachine();
      ArbiterConfig config;
      config.policy = policy;
      platform::SimPlatform platform(machine.get());
      CoreArbiter arbiter(&platform, config);
      arbiter.AddTenant(Tenant("a", 1, 2.0));
      arbiter.AddTenant(Tenant("b", 1, 1.0));
      arbiter.Install();
      simcore::Rng rng(4242);
      std::vector<std::pair<uint64_t, uint64_t>> history;
      for (int round = 0; round < 40; ++round) {
        FakeLoad(machine.get(), arbiter.tenant_mask(0),
                 static_cast<double>(rng.NextBounded(100)), 20);
        FakeLoad(machine.get(), arbiter.tenant_mask(1),
                 static_cast<double>(rng.NextBounded(100)), 20);
        machine->clock().Advance(20);
        arbiter.Poll(machine->clock().now());
        history.emplace_back(arbiter.tenant_mask(0).bits(),
                             arbiter.tenant_mask(1).bits());
      }
      return history;
    };
    EXPECT_EQ(run(), run()) << ArbitrationPolicyName(policy);
  }
}

TEST(ArbiterTest, MasksStayDisjointUnderRandomLoads) {
  auto machine = std::make_unique<ossim::Machine>(ossim::MachineOptions{});
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kDemandProportional;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  arbiter.AddTenant(Tenant("a", 1));
  arbiter.AddTenant(Tenant("b", 2));
  arbiter.AddTenant(Tenant("c", 1));
  arbiter.Install();
  simcore::Rng rng(7);
  for (int round = 0; round < 60; ++round) {
    for (int t = 0; t < arbiter.num_tenants(); ++t) {
      FakeLoad(machine.get(), arbiter.tenant_mask(t),
               static_cast<double>(rng.NextBounded(100)), 20);
    }
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
    ExpectDisjointCover(arbiter, 16);
  }
}

TEST(ArbiterTest, MaxCoresCapsTenantGrowth) {
  auto machine = SmallMachine();
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, ArbiterConfig{});
  ArbiterTenantConfig capped = Tenant("capped", 1);
  capped.mechanism.max_cores = 2;
  arbiter.AddTenant(capped);
  arbiter.Install();
  for (int round = 0; round < 5; ++round) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
  }
  // The net's t6 guard saturates at max_cores, not at the machine size.
  EXPECT_EQ(arbiter.nalloc(0), 2);
}

TEST(ArbiterTest, JainIndexBounds) {
  EXPECT_DOUBLE_EQ(CoreArbiter::JainIndex({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(CoreArbiter::JainIndex({4.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(CoreArbiter::JainIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(CoreArbiter::JainIndex({0.0, 0.0}), 1.0);
}

TEST(ArbiterTest, PolicyNamesRoundTrip) {
  for (ArbitrationPolicy policy :
       {ArbitrationPolicy::kFairShare, ArbitrationPolicy::kPriorityWeighted,
        ArbitrationPolicy::kDemandProportional,
        ArbitrationPolicy::kSloAware}) {
    EXPECT_EQ(ArbitrationPolicyFromName(ArbitrationPolicyName(policy)), policy);
  }
}

/// An SLO tenant whose telemetry source returns a controllable p99.
ArbiterTenantConfig SloTenant(const std::string& name, int initial_cores,
                              double slo_s, const double* probe_value) {
  ArbiterTenantConfig config = Tenant(name, initial_cores);
  config.slo_p99_s = slo_s;
  config.telemetry_caps = TelemetrySnapshot::kTail;
  config.telemetry = [probe_value](simcore::Tick) {
    TelemetrySnapshot snap;
    snap.p99_s = *probe_value;
    snap.valid_mask = TelemetrySnapshot::kTail;
    return snap;
  };
  return config;
}

TEST(ArbiterTest, SloAwareViolationPreemptsOverloadedBestEffortTenant) {
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kSloAware;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  double p99 = -1.0;  // no signal while the OLAP tenant grows
  arbiter.AddTenant(SloTenant("oltp", 1, /*slo_s=*/0.050, &p99));
  arbiter.AddTenant(Tenant("olap", 1));
  arbiter.Install();

  // Let the scan tenant absorb the whole free pool first.
  for (int round = 0; round < 2; ++round) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 50.0, 20);
    FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
  }
  ASSERT_EQ(arbiter.nalloc(1), 3);
  ASSERT_EQ(arbiter.FreePool().Count(), 0);

  // Both tenants are overloaded (the OLAP scan tenant always is) and the
  // OLTP tenant's p99 sits 4x above its 50 ms target. Under every other
  // policy the overloaded OLAP tenant could never be a victim; under
  // slo_aware the violating SLO tenant takes one core from it.
  p99 = 0.200;
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());

  EXPECT_EQ(arbiter.nalloc(0), 2);
  EXPECT_EQ(arbiter.nalloc(1), 2);
  EXPECT_EQ(arbiter.preemptions(), 1);
  ExpectDisjointCover(arbiter, 4);
}

TEST(ArbiterTest, SloAwarePreemptionStillRespectsFloor) {
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kSloAware;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  double p99 = 0.200;
  arbiter.AddTenant(SloTenant("oltp", 1, 0.050, &p99));
  // The best-effort tenant's floor covers its whole holding.
  arbiter.AddTenant(Tenant("olap", 3));
  arbiter.Install();

  // First violation round moves one core (floor 3 -> olap still above it?
  // no: olap starts at 3 = its floor, so nothing may move).
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 50.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());

  EXPECT_EQ(arbiter.nalloc(1), 3) << "preemption went below the floor";
  EXPECT_EQ(arbiter.preemptions(), 0);
  EXPECT_EQ(arbiter.starved_rounds(), 1);
}

TEST(ArbiterTest, SloAwareSatisfiedTenantShedsSlackToBestEffort) {
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kSloAware;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  double p99 = 0.005;  // far below the 50 ms target: plenty of slack
  arbiter.AddTenant(SloTenant("oltp", 1, 0.050, &p99));
  arbiter.AddTenant(Tenant("olap", 1));
  arbiter.Install();

  // Grow the SLO tenant to 3 cores first (violating + overloaded).
  p99 = 0.200;
  for (int round = 0; round < 2; ++round) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
    FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
  }
  ASSERT_EQ(arbiter.nalloc(0), 3);

  // Now the SLO is comfortably met and the OLTP tenant goes idle: it
  // releases a core per round, which the (still overloaded) OLAP tenant
  // absorbs — "OLAP absorbs slack cores".
  p99 = 0.005;
  for (int round = 0; round < 2; ++round) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 2.0, 20);
    FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
  }
  EXPECT_EQ(arbiter.nalloc(0), 1);
  EXPECT_EQ(arbiter.nalloc(1), 3);
  ExpectDisjointCover(arbiter, 4);
}

TEST(ArbiterTest, SloAwareHoldsWithoutSignal) {
  // Before the first completion the probe has no data (< 0): entitlements
  // hold and nothing moves on SLO grounds.
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kSloAware;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  double p99 = -1.0;
  arbiter.AddTenant(SloTenant("oltp", 2, 0.050, &p99));
  arbiter.AddTenant(Tenant("olap", 2));
  arbiter.Install();

  FakeLoad(machine.get(), arbiter.tenant_mask(0), 50.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 50.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());
  EXPECT_EQ(arbiter.nalloc(0), 2);
  EXPECT_EQ(arbiter.nalloc(1), 2);
  EXPECT_EQ(arbiter.preemptions(), 0);
}

TEST(ArbiterTest, SloVsSloTieBreaksByProportionalViolation) {
  // Two SLO tenants, both overloaded and both violating: before the
  // proportional tie-break neither could ever preempt the other (the
  // starvation deadlock noted in ROADMAP.md). Now the tenant suffering
  // proportionally more takes one core from the one suffering less.
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kSloAware;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  double p99_a = -1.0;
  double p99_b = -1.0;
  arbiter.AddTenant(SloTenant("worse", 1, /*slo_s=*/0.050, &p99_a));
  arbiter.AddTenant(SloTenant("better", 1, /*slo_s=*/0.050, &p99_b));
  arbiter.Install();

  // Let tenant b grab the two free cores first (it violates, a has no
  // signal yet).
  p99_b = 0.200;
  for (int round = 0; round < 2; ++round) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 50.0, 20);
    FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
  }
  ASSERT_EQ(arbiter.nalloc(1), 3);
  ASSERT_EQ(arbiter.FreePool().Count(), 0);

  // Both violate, a 4x over target, b only 1.2x: a's violation is
  // proportionally worse by more than the tie-break margin, so a takes one
  // core from b even though b is overloaded and above no entitlement.
  p99_a = 0.200;
  p99_b = 0.060;
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());

  EXPECT_EQ(arbiter.nalloc(0), 2);
  EXPECT_EQ(arbiter.nalloc(1), 2);
  EXPECT_EQ(arbiter.preemptions(), 1);
  ExpectDisjointCover(arbiter, 4);
}

TEST(ArbiterTest, SloVsSloEqualViolationHoldsInsteadOfPingPong) {
  // Equal violation ratios sit inside the tie-break margin: nothing moves,
  // the grower is starved — trading the same core back and forth every
  // round would thrash both tails for no net gain.
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kSloAware;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  double p99_a = -1.0;
  double p99_b = -1.0;
  arbiter.AddTenant(SloTenant("a", 1, 0.050, &p99_a));
  arbiter.AddTenant(SloTenant("b", 1, 0.050, &p99_b));
  arbiter.Install();

  p99_b = 0.200;
  for (int round = 0; round < 2; ++round) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 50.0, 20);
    FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
  }
  ASSERT_EQ(arbiter.nalloc(1), 3);

  p99_a = 0.200;
  p99_b = 0.200;
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());

  EXPECT_EQ(arbiter.nalloc(0), 1);
  EXPECT_EQ(arbiter.nalloc(1), 3);
  EXPECT_EQ(arbiter.preemptions(), 0);
  EXPECT_EQ(arbiter.starved_rounds(), 1);
}

TEST(ArbiterTest, SloVsSloTieBreakRespectsFloor) {
  // The less-violating tenant sits at its initial_cores floor: even a 4x
  // violation on the other side may not take its provisioned cores.
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kSloAware;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  double p99_a = 0.200;
  double p99_b = 0.055;
  arbiter.AddTenant(SloTenant("worse", 1, 0.050, &p99_a));
  arbiter.AddTenant(SloTenant("floored", 3, 0.050, &p99_b));
  arbiter.Install();

  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());

  EXPECT_EQ(arbiter.nalloc(1), 3) << "tie-break went below the floor";
  EXPECT_EQ(arbiter.preemptions(), 0);
}

TEST(ArbiterTest, SloVsSloBoostedButMeetingCannotRaid) {
  // A grower past the boost threshold but still *meeting* its SLO
  // (ratio 0.8 < 1) gets headroom from the free pool and from best-effort
  // tenants only — the tie-break needs an actual violation, otherwise two
  // comfortable tenants would churn cores inside their hold bands.
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kSloAware;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  double p99_a = -1.0;
  double p99_b = -1.0;
  arbiter.AddTenant(SloTenant("boosted", 1, 0.050, &p99_a));
  arbiter.AddTenant(SloTenant("holding", 1, 0.050, &p99_b));
  arbiter.Install();

  p99_b = 0.200;
  for (int round = 0; round < 2; ++round) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 50.0, 20);
    FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
  }
  ASSERT_EQ(arbiter.nalloc(1), 3);

  // Grower at 0.8x of target (boosted band), victim at 0.55x (hold band):
  // 0.8 > 0.55 * 1.25 would pass the margin, but the grower is not in
  // violation, so nothing moves.
  p99_a = 0.040;
  p99_b = 0.0275;
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());

  EXPECT_EQ(arbiter.nalloc(0), 1);
  EXPECT_EQ(arbiter.nalloc(1), 3);
  EXPECT_EQ(arbiter.preemptions(), 0);
}

/// An SLO tenant with controllable tail and shed-rate signals.
ArbiterTenantConfig SheddingSloTenant(const std::string& name,
                                      int initial_cores, double slo_s,
                                      const double* p99,
                                      const double* shed_rate) {
  ArbiterTenantConfig config = Tenant(name, initial_cores);
  config.slo_p99_s = slo_s;
  config.telemetry_caps = TelemetrySnapshot::kTail | TelemetrySnapshot::kShed;
  config.telemetry = [p99, shed_rate](simcore::Tick) {
    TelemetrySnapshot snap;
    snap.p99_s = *p99;
    snap.shed_rate = *shed_rate;
    snap.valid_mask = TelemetrySnapshot::kTail | TelemetrySnapshot::kShed;
    return snap;
  };
  return config;
}

TEST(ArbiterTest, SheddingBelowCapReadsAsViolation) {
  // The admitted-only p99 looks healthy (admission keeps it healthy by
  // refusing work), but a positive shed rate means unmet demand: the
  // tenant is treated as violating and may preempt the overloaded
  // best-effort scan tenant it otherwise could not touch.
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kSloAware;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  double p99 = 0.030;  // 0.6x of target: hold band on its own
  double shed_rate = 0.0;
  arbiter.AddTenant(SheddingSloTenant("oltp", 1, 0.050, &p99, &shed_rate));
  arbiter.AddTenant(Tenant("olap", 1));
  arbiter.Install();

  // The scan tenant absorbs the free pool.
  for (int round = 0; round < 2; ++round) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 50.0, 20);
    FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
  }
  ASSERT_EQ(arbiter.nalloc(1), 3);
  ASSERT_EQ(arbiter.FreePool().Count(), 0);

  // Not shedding: a healthy-looking p99 cannot preempt the overloaded
  // scan tenant — the demand is starved.
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());
  EXPECT_EQ(arbiter.preemptions(), 0);
  EXPECT_EQ(arbiter.starved_rounds(), 1);

  // Shedding: same p99, but now the gate is refusing work — the tenant
  // reads as violating and takes a core.
  shed_rate = 25.0;
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());
  EXPECT_EQ(arbiter.nalloc(0), 2);
  EXPECT_EQ(arbiter.preemptions(), 1);
  ExpectDisjointCover(arbiter, 4);
}

TEST(ArbiterTest, SheddingAtCapHoldsInsteadOfSheddingSlack) {
  // A tenant at max_cores whose admitted p99 looks comfortable *because*
  // admission is refusing work must not read as having slack: without the
  // at-cap clamp its entitlement would drop below its holding and the
  // best-effort tenant could preempt the very cores the shedding proves
  // are needed.
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kSloAware;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  double p99 = 0.010;  // 0.2x of target: shed band on its own
  double shed_rate = 25.0;
  ArbiterTenantConfig oltp =
      SheddingSloTenant("oltp", 1, 0.050, &p99, &shed_rate);
  oltp.mechanism.max_cores = 2;
  arbiter.AddTenant(oltp);
  arbiter.AddTenant(Tenant("olap", 1));
  arbiter.Install();

  // Grow the SLO tenant to its 2-core cap (violating while it gets there).
  p99 = 0.200;
  shed_rate = 0.0;
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 50.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());
  ASSERT_EQ(arbiter.nalloc(0), 2);

  // Let the scan tenant drain the pool, then demand more while the capped
  // tenant sheds with a healthy-looking p99: the clamp holds its
  // entitlement at its holding, so there is no "excess" to preempt.
  p99 = 0.010;
  shed_rate = 25.0;
  // (oltp sits at a stable 50% — the point is that the *entitlement* clamp
  // protects it, not the never-preempt-overloaded rule.)
  for (int round = 0; round < 3; ++round) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 50.0, 20);
    FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
  }
  EXPECT_EQ(arbiter.nalloc(0), 2) << "at-cap shedding tenant lost a core";
  EXPECT_EQ(arbiter.preemptions(), 0);
}

TEST(ArbiterTest, SheddingAtCapIsNotATieBreakVictim) {
  // The at-cap clamp reads a shedding tenant as mid hold-band (0.625),
  // which a violating neighbour could nominally out-suffer — but raiding
  // it would drop it below its cap, flip it to read as violating, and
  // ping-pong the core back every round. Shedding tenants are therefore
  // excluded from tie-break victimhood outright.
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kSloAware;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  double p99_a = -1.0;
  double shed_a = 0.0;
  double p99_b = -1.0;
  ArbiterTenantConfig capped =
      SheddingSloTenant("capped", 1, 0.050, &p99_a, &shed_a);
  capped.mechanism.max_cores = 2;
  arbiter.AddTenant(capped);
  arbiter.AddTenant(SloTenant("violating", 1, 0.050, &p99_b));
  arbiter.Install();

  // Grow the capped tenant to its 2-core cap.
  p99_a = 0.200;
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 50.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());
  ASSERT_EQ(arbiter.nalloc(0), 2);

  // Let the other tenant absorb the remaining pool, then violate at 1.3x
  // while the capped tenant sheds: 1.3 > 0.625 * 1.25 passes the margin,
  // but the shedding exclusion keeps the capped tenant whole.
  p99_b = 0.200;
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 50.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());
  ASSERT_EQ(arbiter.nalloc(1), 2);
  ASSERT_EQ(arbiter.FreePool().Count(), 0);

  p99_a = 0.010;
  shed_a = 25.0;
  p99_b = 0.065;
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 50.0, 20);
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());

  EXPECT_EQ(arbiter.nalloc(0), 2) << "shedding-at-cap tenant was raided";
  EXPECT_EQ(arbiter.preemptions(), 0);
  EXPECT_EQ(arbiter.starved_rounds(), 1);
}

// -- contention_aware: the hill climber over synthetic probes. --

/// A probe-carrying tenant whose abort fraction and goodput the test sets
/// directly; the hill climber sees exactly the sequence the test scripts.
ArbiterTenantConfig ProbeTenant(const std::string& name, int initial_cores,
                                double* fraction, double* goodput) {
  ArbiterTenantConfig config = Tenant(name, initial_cores);
  config.telemetry_caps =
      TelemetrySnapshot::kAbort | TelemetrySnapshot::kGoodput;
  config.telemetry = [fraction, goodput](simcore::Tick) {
    TelemetrySnapshot snap;
    snap.abort_fraction = *fraction;
    snap.goodput = *goodput;
    snap.valid_mask = TelemetrySnapshot::kAbort | TelemetrySnapshot::kGoodput;
    return snap;
  };
  return config;
}

/// The climber's pacing (core/entitlement_policy.cc): after every move it
/// settles for kSettleRounds rounds, so it evaluates once every
/// kEvalPeriod rounds, and a direction that cost goodput stays blocked for
/// kBackoffEvals evaluations.
constexpr int kSettleRounds = 2;
constexpr int kEvalPeriod = kSettleRounds + 1;
constexpr int kBackoffEvals = 8;

ArbiterConfig ContentionConfig() {
  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kContentionAware;
  return config;
}

TEST(ArbiterTest, ContentionAwareGrowsWhileAbortFractionLow) {
  auto machine = SmallMachine();
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, ContentionConfig());
  double fraction = 0.05;  // below the climber's low-abort threshold
  double goodput = 100.0;
  arbiter.AddTenant(ProbeTenant("hot", 1, &fraction, &goodput));
  arbiter.Install();

  // Overloaded and conflict-free: the climber raises its target one core
  // per evaluation and the grower follows out of the free pool; between
  // evaluations the target is the tenant's ceiling, so it holds there.
  for (int round = 0; round < 2 * kEvalPeriod + 1; ++round) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
    EXPECT_EQ(arbiter.nalloc(0), 2 + round / kEvalPeriod) << "round " << round;
  }
  ExpectDisjointCover(arbiter, 4);
}

TEST(ArbiterTest, ContentionAwareShrinksOnHighAbortAndNeighborAbsorbs) {
  auto machine = SmallMachine();
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, ContentionConfig());
  double fraction = 0.05;
  double goodput = 100.0;
  arbiter.AddTenant(ProbeTenant("hot", 1, &fraction, &goodput));
  arbiter.AddTenant(Tenant("cool", 1));  // probe-less, utilization-driven
  arbiter.Install();

  auto poll = [&](double cool_load) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
    FakeLoad(machine.get(), arbiter.tenant_mask(1), cool_load, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
  };

  // Grow the hot tenant to 3 cores (two evaluations) while the probe-less
  // tenant idles.
  for (int round = 0; round < kEvalPeriod + 1; ++round) poll(2.0);
  ASSERT_EQ(arbiter.nalloc(0), 3);
  ASSERT_EQ(arbiter.nalloc(1), 1);

  // Contention sets in: the abort fraction crosses the high-abort threshold
  // while the tenant still reads 99% busy — a utilization policy would call
  // this "wants more cores". From its next evaluation on, the climber
  // shrinks one core per evaluation down to the floor (initial_cores = 1),
  // and each released core lands on the now overloaded probe-less
  // neighbour the same round.
  fraction = 0.9;
  for (int round = 0; round < kSettleRounds; ++round) poll(99.0);
  EXPECT_EQ(arbiter.nalloc(0), 3) << "moved before the settle rounds ran out";
  poll(99.0);
  EXPECT_EQ(arbiter.nalloc(0), 2);
  EXPECT_EQ(arbiter.nalloc(1), 2);
  for (int round = 0; round < kEvalPeriod; ++round) poll(99.0);
  EXPECT_EQ(arbiter.nalloc(0), 1);
  EXPECT_EQ(arbiter.nalloc(1), 3);
  ExpectDisjointCover(arbiter, 4);
}

TEST(ArbiterTest, ContentionAwareRevertsOnGoodputRegressionAndBlocksGrowth) {
  auto machine = SmallMachine();
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, ContentionConfig());
  double fraction = 0.05;
  double goodput = 100.0;
  arbiter.AddTenant(ProbeTenant("hot", 1, &fraction, &goodput));
  arbiter.Install();

  auto poll = [&] {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
  };

  poll();  // low abort + overload: grow 1 -> 2
  ASSERT_EQ(arbiter.nalloc(0), 2);

  // The added core made things worse (goodput fell past the tolerance).
  // The next evaluation sees it: revert to the previous operating point
  // and block further growth.
  goodput = 40.0;
  for (int round = 0; round < kSettleRounds; ++round) poll();
  EXPECT_EQ(arbiter.nalloc(0), 2);
  poll();
  EXPECT_EQ(arbiter.nalloc(0), 1);

  // Still overloaded with a low abort fraction — but growth stays blocked
  // while the backoff runs down, so the tenant holds at 1 core instead of
  // re-probing the move that just regressed.
  for (int round = 0; round < kBackoffEvals * kEvalPeriod - 1; ++round) {
    poll();
    EXPECT_EQ(arbiter.nalloc(0), 1) << "round " << round;
  }

  // Backoff expired: the climber may probe upward again.
  poll();
  EXPECT_EQ(arbiter.nalloc(0), 2);
}

TEST(ArbiterTest, InstalledHookPollsOnPeriod) {
  auto machine = SmallMachine();
  ArbiterConfig config;
  config.monitor_period_ticks = 5;
  platform::SimPlatform platform(machine.get());
  CoreArbiter arbiter(&platform, config);
  arbiter.AddTenant(Tenant("a", 1));
  arbiter.Install();
  machine->RunFor(11);  // polls at ticks 5 and 10
  EXPECT_EQ(arbiter.log().size(), 2u);
}

// ---- Island-affinity term (numa_affinity_weight) ----

/// A tenant whose kMemory telemetry reports every resident page on
/// `page_node` — the islanded-slab scenario the affinity term consumes.
ArbiterTenantConfig MemTenant(const std::string& name, int initial_cores,
                              numasim::NodeId page_node) {
  ArbiterTenantConfig config = Tenant(name, initial_cores);
  config.telemetry_caps = TelemetrySnapshot::kMemory;
  config.telemetry = [page_node](simcore::Tick) {
    TelemetrySnapshot snap;
    snap.remote_access_fraction = 0.8;
    snap.resident_pages_per_node.assign(2, 0);
    snap.resident_pages_per_node[static_cast<size_t>(page_node)] = 100;
    snap.valid_mask = TelemetrySnapshot::kMemory;
    return snap;
  };
  return config;
}

std::unique_ptr<ossim::Machine> TwoSocketMachine() {
  ossim::MachineOptions options;
  options.config.num_nodes = 2;
  options.config.cores_per_node = 4;
  return std::make_unique<ossim::Machine>(options);
}

/// One overload round for a single-tenant arbiter on a two-socket machine;
/// returns the tenant's mask after the grant.
platform::CpuMask GrowOnce(double affinity_weight,
                           const ArbiterTenantConfig& tenant) {
  auto machine = TwoSocketMachine();
  platform::SimPlatform platform(machine.get());
  ArbiterConfig config;
  config.numa_affinity_weight = affinity_weight;
  CoreArbiter arbiter(&platform, config);
  arbiter.AddTenant(tenant);
  arbiter.Install();
  EXPECT_EQ(arbiter.tenant_mask(0), platform::CpuMask::Of({0}));
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());
  return arbiter.tenant_mask(0);
}

TEST(ArbiterTest, AffinityWeightZeroReproducesObliviousHandout) {
  // At weight 0 the kMemory signal must be inert: the grower clusters next
  // to its own core on node 0, exactly like a tenant with no telemetry.
  const platform::CpuMask with_signal = GrowOnce(0.0, MemTenant("m", 1, 1));
  const platform::CpuMask without = GrowOnce(0.0, Tenant("m", 1));
  EXPECT_EQ(with_signal, without);
  EXPECT_EQ(with_signal, platform::CpuMask::Of({0, 1}));
}

TEST(ArbiterTest, AffinityWeightSteersGrowthToPageNode) {
  // With the term on, the node holding the tenant's pages outscores the
  // own-core clustering bonus and growth lands on node 1.
  const platform::CpuMask mask = GrowOnce(4.0, MemTenant("m", 1, 1));
  EXPECT_EQ(mask, platform::CpuMask::Of({0, 4}));
  // Pages on node 0 reinforce the cluster instead: no behaviour change.
  EXPECT_EQ(GrowOnce(4.0, MemTenant("m", 1, 0)), platform::CpuMask::Of({0, 1}));
}

TEST(ArbiterTest, AffinityIgnoresImplausibleResidencyVector) {
  // A residency vector whose size does not match the machine's node count
  // fails TelemetrySnapshot::Sanitize / the arbiter's own size check and
  // must leave the handout oblivious even at a large weight.
  ArbiterTenantConfig config = Tenant("m", 1);
  config.telemetry_caps = TelemetrySnapshot::kMemory;
  config.telemetry = [](simcore::Tick) {
    TelemetrySnapshot snap;
    snap.remote_access_fraction = 0.9;
    snap.resident_pages_per_node = {7, 7, 7, 7, 7};  // 5 nodes on a 2-node box
    snap.valid_mask = TelemetrySnapshot::kMemory;
    return snap;
  };
  EXPECT_EQ(GrowOnce(8.0, config), platform::CpuMask::Of({0, 1}));
}

TEST(ArbiterTest, AffinityMultiRoundTraceMatchesAtWeightZero) {
  // Round-for-round parity over a longer two-tenant trace: weight 0 with
  // live kMemory telemetry must reproduce the no-telemetry trace exactly.
  std::vector<std::string> traces[2];
  for (int variant = 0; variant < 2; ++variant) {
    auto machine = TwoSocketMachine();
    platform::SimPlatform platform(machine.get());
    ArbiterConfig config;
    config.numa_affinity_weight = 0.0;
    CoreArbiter arbiter(&platform, config);
    if (variant == 0) {
      arbiter.AddTenant(MemTenant("a", 2, 1));
      arbiter.AddTenant(MemTenant("b", 1, 0));
    } else {
      arbiter.AddTenant(Tenant("a", 2));
      arbiter.AddTenant(Tenant("b", 1));
    }
    arbiter.Install();
    for (int round = 1; round <= 12; ++round) {
      FakeLoad(machine.get(), arbiter.tenant_mask(0),
               round <= 6 ? 99.0 : 5.0, 20);
      FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
      machine->clock().Advance(20);
      arbiter.Poll(machine->clock().now());
      traces[variant].push_back(arbiter.tenant_mask(0).ToString() + "/" +
                                arbiter.tenant_mask(1).ToString());
    }
  }
  EXPECT_EQ(traces[0], traces[1]);
}

}  // namespace
}  // namespace elastic::core
