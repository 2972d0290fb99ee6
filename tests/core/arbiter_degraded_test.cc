// Degraded-mode arbitration: the CoreArbiter against a FaultInjectionPlatform
// over the simulator. Stale telemetry holds then decays, failed cpuset
// installs back off into quarantine while healthy tenants keep arbitrating,
// and dead tenants detach and return their cores.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/arbiter.h"
#include "ossim/machine.h"
#include "platform/fault_injection_platform.h"
#include "platform/sim_platform.h"

namespace elastic::core {
namespace {

std::unique_ptr<ossim::Machine> SmallMachine() {
  ossim::MachineOptions options;
  options.config.num_nodes = 2;
  options.config.cores_per_node = 2;
  return std::make_unique<ossim::Machine>(options);
}

ArbiterTenantConfig Tenant(const std::string& name, int initial_cores) {
  ArbiterTenantConfig config;
  config.name = name;
  config.mechanism.initial_cores = initial_cores;
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

platform::FaultRule Rule(platform::FaultKind kind, simcore::Tick from,
                         simcore::Tick until, int target) {
  platform::FaultRule rule;
  rule.kind = kind;
  rule.from = from;
  rule.until = until;
  rule.target = target;
  return rule;
}

/// One monitoring round: `percent` load on every tenant's current cores.
void LoadAndPoll(ossim::Machine* machine, CoreArbiter* arbiter,
                 double percent) {
  for (int t = 0; t < arbiter->num_tenants(); ++t) {
    if (!arbiter->tenant_active(t)) continue;
    FakeLoad(machine, arbiter->tenant_mask(t), percent, 20);
  }
  machine->clock().Advance(20);
  arbiter->Poll(machine->clock().now());
}

TEST(ArbiterDegradedTest, StaleProbeHoldsThenDecaysToEntitlement) {
  auto machine = SmallMachine();
  platform::SimPlatform inner(machine.get());
  platform::FaultSchedule schedule;
  // Tenant a's sampler (creation index 0) goes dark from tick 40 on.
  schedule.rules.push_back(
      Rule(platform::FaultKind::kSampleDropout, 40, 100000, /*target=*/0));
  platform::FaultInjectionPlatform platform(&inner, schedule);

  ArbiterConfig config;
  config.stale_ttl_rounds = 2;
  CoreArbiter arbiter(&platform, config);
  arbiter.AddTenant(Tenant("a", 2));
  arbiter.AddTenant(Tenant("b", 1));
  arbiter.Install();

  // Round 1 (tick 20, fault-free): only a is overloaded and takes the free
  // core.
  FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());
  ASSERT_EQ(arbiter.nalloc(0), 3);

  // Rounds 2-3 (dropout, within TTL): hold the last allocation even though
  // the fresh windows would have read idle.
  LoadAndPoll(machine.get(), &arbiter, 0.0);
  LoadAndPoll(machine.get(), &arbiter, 0.0);
  EXPECT_EQ(arbiter.nalloc(0), 3);
  EXPECT_EQ(arbiter.stats().stale_rounds, 2);
  EXPECT_EQ(arbiter.stats().held_rounds, 2);
  ASSERT_GE(arbiter.log().size(), 3u);
  EXPECT_TRUE(arbiter.log().back().tenants[0].stale);
  EXPECT_FALSE(arbiter.log().back().tenants[1].stale);

  // Round 4 (past the TTL): decay one core towards the fair-share
  // entitlement (4 cores / 2 tenants = 2), never below the floor.
  LoadAndPoll(machine.get(), &arbiter, 0.0);
  EXPECT_EQ(arbiter.nalloc(0), 2);
  EXPECT_EQ(arbiter.stats().decayed_cores, 1);

  // Further blind rounds: already at entitlement (= floor here), stay put.
  LoadAndPoll(machine.get(), &arbiter, 0.0);
  LoadAndPoll(machine.get(), &arbiter, 0.0);
  EXPECT_EQ(arbiter.nalloc(0), 2);
  EXPECT_EQ(arbiter.stats().decayed_cores, 1);
}

TEST(ArbiterDegradedTest, GarbageCountersAreHeldNotTrusted) {
  auto machine = SmallMachine();
  platform::SimPlatform inner(machine.get());
  platform::FaultSchedule schedule;
  schedule.rules.push_back(
      Rule(platform::FaultKind::kSampleGarbage, 0, 100000, /*target=*/0));
  platform::FaultInjectionPlatform platform(&inner, schedule);

  CoreArbiter arbiter(&platform, ArbiterConfig{});
  arbiter.AddTenant(Tenant("a", 1));
  arbiter.AddTenant(Tenant("b", 1));
  arbiter.Install();

  // Tenant a's counters read as absurd overload every round. Trusting them
  // would grow a forever; the plausibility gate holds it at its floor.
  for (int i = 0; i < 4; ++i) LoadAndPoll(machine.get(), &arbiter, 0.0);
  EXPECT_EQ(arbiter.nalloc(0), 1);
  EXPECT_EQ(arbiter.mechanism(0).last_state(), PerfState::kStable);
  EXPECT_GE(arbiter.stats().stale_rounds, 4);
  EXPECT_EQ(arbiter.preemptions(), 0);
}

TEST(ArbiterDegradedTest, StaleOverloadShieldExpiresWithTheTtl) {
  auto machine = SmallMachine();
  platform::SimPlatform inner(machine.get());
  platform::FaultSchedule schedule;
  schedule.rules.push_back(
      Rule(platform::FaultKind::kSampleDropout, 50, 100000, /*target=*/0));
  platform::FaultInjectionPlatform platform(&inner, schedule);

  ArbiterConfig config;
  config.stale_ttl_rounds = 2;
  CoreArbiter arbiter(&platform, config);
  arbiter.AddTenant(Tenant("a", 1));
  arbiter.AddTenant(Tenant("b", 1));
  arbiter.Install();

  // Rounds 1-2 (fault-free): only a is loaded and grows to 3 of 4 cores,
  // one core above its fair-share entitlement; its last good state is
  // Overload.
  for (int i = 0; i < 2; ++i) {
    FakeLoad(machine.get(), arbiter.tenant_mask(0), 99.0, 20);
    machine->clock().Advance(20);
    arbiter.Poll(machine->clock().now());
  }
  ASSERT_EQ(arbiter.nalloc(0), 3);
  ASSERT_EQ(arbiter.mechanism(0).last_state(), PerfState::kOverload);

  // Rounds 3-4: a is blind and replays that overload; b is genuinely
  // overloaded and wants a's excess core. Within the TTL the stale overload
  // shield still protects a: no preemption, b starves.
  const int64_t starved_before = arbiter.starved_rounds();
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());
  EXPECT_EQ(arbiter.nalloc(0), 3);
  EXPECT_GT(arbiter.starved_rounds(), starved_before);
  EXPECT_EQ(arbiter.preemptions(), 0);

  // Round 5, past the TTL: the shield and the hold expire together — decay
  // releases a's excess core and b absorbs it.
  FakeLoad(machine.get(), arbiter.tenant_mask(1), 99.0, 20);
  machine->clock().Advance(20);
  arbiter.Poll(machine->clock().now());
  EXPECT_EQ(arbiter.nalloc(0), 2);
  EXPECT_EQ(arbiter.nalloc(1), 2);
}

TEST(ArbiterDegradedTest, RepeatedInstallFailuresQuarantineOnlyThatTenant) {
  auto machine = SmallMachine();
  platform::SimPlatform inner(machine.get());
  platform::FaultSchedule schedule;
  // Tenant a's cpuset (id 0) rejects every write for 12 rounds, then heals.
  schedule.rules.push_back(
      Rule(platform::FaultKind::kCpusetWriteFail, 0, 240, /*target=*/0));
  platform::FaultInjectionPlatform platform(&inner, schedule);

  ArbiterConfig config;
  config.quarantine_after_failures = 2;
  config.quarantine_probe_rounds = 3;
  CoreArbiter arbiter(&platform, config);
  arbiter.AddTenant(Tenant("a", 1));
  arbiter.AddTenant(Tenant("b", 1));
  arbiter.Install();

  // Drive rounds through the failure window: a collects consecutive install
  // failures (with backoff between attempts) and crosses into quarantine.
  for (int i = 0; i < 12; ++i) LoadAndPoll(machine.get(), &arbiter, 0.0);
  EXPECT_TRUE(arbiter.tenant_quarantined(0));
  EXPECT_FALSE(arbiter.tenant_quarantined(1));
  EXPECT_EQ(arbiter.stats().quarantine_entries, 1);
  EXPECT_GE(arbiter.stats().failed_installs, 2);
  EXPECT_GT(arbiter.stats().quarantined_rounds, 0);
  // The healthy tenant was never marked failed.
  for (const ArbiterRound& round : arbiter.log()) {
    EXPECT_FALSE(round.tenants[1].install_failed);
    EXPECT_FALSE(round.tenants[1].quarantined);
  }
  // The quarantine event is visible in the trace sink.
  bool traced = false;
  for (const auto& event : machine->trace().events()) {
    if (event.kind == "arbiter_quarantine") traced = true;
  }
  EXPECT_TRUE(traced);

  // Past tick 240 the cpuset heals; the next probe write lands and the
  // tenant rejoins arbitration.
  for (int i = 0; i < 6; ++i) LoadAndPoll(machine.get(), &arbiter, 0.0);
  EXPECT_FALSE(arbiter.tenant_quarantined(0));
}

TEST(ArbiterDegradedTest, DetachedTenantReturnsCoresAndStopsArbitrating) {
  auto machine = SmallMachine();
  platform::SimPlatform inner(machine.get());
  CoreArbiter arbiter(&inner, ArbiterConfig{});
  arbiter.AddTenant(Tenant("dies", 2));
  arbiter.AddTenant(Tenant("survives", 1));
  arbiter.Install();
  ASSERT_EQ(arbiter.nalloc(0), 2);

  arbiter.DetachTenant(0);
  arbiter.DetachTenant(0);  // idempotent
  EXPECT_FALSE(arbiter.tenant_active(0));
  EXPECT_EQ(arbiter.stats().detached_tenants, 1);
  EXPECT_EQ(arbiter.nalloc(0), 0);
  EXPECT_EQ(arbiter.FreePool().Count(), 3);

  // The survivor can now grow into the returned cores.
  LoadAndPoll(machine.get(), &arbiter, 99.0);
  EXPECT_EQ(arbiter.nalloc(1), 2);
  EXPECT_EQ(arbiter.nalloc(0), 0);
  ASSERT_FALSE(arbiter.log().empty());
  EXPECT_TRUE(arbiter.log().back().tenants[0].detached);
  // FairnessIndex ignores the ghost: a lone survivor is perfectly fair.
  EXPECT_EQ(arbiter.FairnessIndex(), 1.0);
}

TEST(ArbiterDegradedTest, DegradedRunsAreDeterministic) {
  platform::FaultSchedule schedule;
  schedule.seed = 7;
  schedule.rules.push_back(
      Rule(platform::FaultKind::kSampleDropout, 40, 400, /*target=*/0));
  schedule.rules.push_back(
      Rule(platform::FaultKind::kCpusetWriteFail, 100, 300, /*target=*/1));

  auto run = [&schedule]() {
    auto machine = SmallMachine();
    platform::SimPlatform inner(machine.get());
    platform::FaultInjectionPlatform platform(&inner, schedule);
    ArbiterConfig config;
    config.quarantine_after_failures = 2;
    CoreArbiter arbiter(&platform, config);
    arbiter.AddTenant(Tenant("a", 2));
    arbiter.AddTenant(Tenant("b", 1));
    arbiter.Install();
    for (int i = 0; i < 20; ++i) {
      LoadAndPoll(machine.get(), &arbiter, i % 3 == 0 ? 99.0 : 30.0);
    }
    std::vector<std::string> fingerprint = platform.injection_log();
    fingerprint.push_back(arbiter.tenant_mask(0).ToCpuList());
    fingerprint.push_back(arbiter.tenant_mask(1).ToCpuList());
    fingerprint.push_back(std::to_string(arbiter.stats().failed_installs));
    fingerprint.push_back(std::to_string(arbiter.stats().stale_rounds));
    return fingerprint;
  };

  const std::vector<std::string> first = run();
  const std::vector<std::string> second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace elastic::core
