#include "core/mechanism.h"

#include <gtest/gtest.h>

#include "core/allocation_mode.h"
#include "ossim/machine.h"
#include "platform/sim_platform.h"

namespace elastic::core {
namespace {

std::unique_ptr<ossim::Machine> MakeMachine() {
  return std::make_unique<ossim::Machine>(ossim::MachineOptions{});
}

/// Test rig bundling the mechanism with the SimPlatform seam it runs on.
struct RiggedMechanism {
  std::unique_ptr<platform::SimPlatform> platform;
  std::unique_ptr<ElasticMechanism> mechanism;
  ElasticMechanism* operator->() { return mechanism.get(); }
};

RiggedMechanism MakeMechanism(ossim::Machine* machine, const std::string& mode,
                              MechanismConfig config) {
  RiggedMechanism rig;
  rig.platform = std::make_unique<platform::SimPlatform>(machine);
  rig.mechanism = std::make_unique<ElasticMechanism>(
      rig.platform.get(), MakeMode(mode, &machine->topology()), config);
  return rig;
}

/// Makes the allocated cores look `percent` busy over `ticks` ticks by
/// writing counters directly; then advances the clock.
void FakeLoad(ossim::Machine* machine, const platform::CpuMask& mask,
              double percent, int ticks) {
  const int64_t cycles_per_tick = machine->scheduler().cycles_per_tick();
  for (numasim::CoreId core : mask.ToCores()) {
    machine->counters().core_busy_cycles[static_cast<size_t>(core)] +=
        static_cast<int64_t>(percent / 100.0 * cycles_per_tick * ticks);
  }
  machine->clock().Advance(ticks);
}

TEST(MechanismTest, InstallsInitialCores) {
  auto machine = MakeMachine();
  MechanismConfig config;
  config.initial_cores = 3;
  auto mech = MakeMechanism(machine.get(), "dense", config);
  mech->Install();
  EXPECT_EQ(mech->nalloc(), 3);
  EXPECT_EQ(machine->scheduler().allowed_mask(), mech->allocated_mask());
  EXPECT_EQ(mech->allocated_mask(), platform::CpuMask::Of({0, 1, 2}));
}

TEST(MechanismTest, OverloadAllocatesOneCore) {
  auto machine = MakeMachine();
  auto mech = MakeMechanism(machine.get(), "dense", MechanismConfig{});
  mech->Install();
  FakeLoad(machine.get(), mech->allocated_mask(), 99.0, 20);
  mech->Poll(machine->clock().now());
  EXPECT_EQ(mech->nalloc(), 2);
  EXPECT_EQ(mech->last_state(), PerfState::kOverload);
  ASSERT_EQ(mech->log().size(), 1u);
  EXPECT_EQ(mech->log().back().label, "t1-Overload-t5");
}

TEST(MechanismTest, IdleReleasesOneCore) {
  auto machine = MakeMachine();
  MechanismConfig config;
  config.initial_cores = 4;
  auto mech = MakeMechanism(machine.get(), "dense", config);
  mech->Install();
  FakeLoad(machine.get(), mech->allocated_mask(), 2.0, 20);
  mech->Poll(machine->clock().now());
  EXPECT_EQ(mech->nalloc(), 3);
  EXPECT_EQ(mech->log().back().label, "t0-Idle-t4");
}

TEST(MechanismTest, IdleAtFloorKeepsOneCore) {
  auto machine = MakeMachine();
  auto mech = MakeMechanism(machine.get(), "dense", MechanismConfig{});
  mech->Install();
  ASSERT_EQ(mech->nalloc(), 1);
  FakeLoad(machine.get(), mech->allocated_mask(), 0.0, 20);
  mech->Poll(machine->clock().now());
  EXPECT_EQ(mech->nalloc(), 1);
  EXPECT_EQ(mech->log().back().label, "t0-Idle-t7");
}

TEST(MechanismTest, StableKeepsAllocation) {
  auto machine = MakeMachine();
  MechanismConfig config;
  config.initial_cores = 2;
  auto mech = MakeMechanism(machine.get(), "dense", config);
  mech->Install();
  FakeLoad(machine.get(), mech->allocated_mask(), 40.0, 20);
  mech->Poll(machine->clock().now());
  EXPECT_EQ(mech->nalloc(), 2);
  EXPECT_EQ(mech->last_state(), PerfState::kStable);
  EXPECT_EQ(mech->log().back().label, "t2-Stable-t3");
}

TEST(MechanismTest, OverloadAtCeilingFiresT6) {
  auto machine = MakeMachine();
  MechanismConfig config;
  config.initial_cores = 16;
  auto mech = MakeMechanism(machine.get(), "dense", config);
  mech->Install();
  FakeLoad(machine.get(), mech->allocated_mask(), 100.0, 20);
  mech->Poll(machine->clock().now());
  EXPECT_EQ(mech->nalloc(), 16);
  EXPECT_EQ(mech->log().back().label, "t1-Overload-t6");
}

TEST(MechanismTest, RepeatedOverloadClimbsToCeiling) {
  auto machine = MakeMachine();
  auto mech = MakeMechanism(machine.get(), "sparse", MechanismConfig{});
  mech->Install();
  for (int round = 0; round < 20; ++round) {
    FakeLoad(machine.get(), mech->allocated_mask(), 95.0, 20);
    mech->Poll(machine->clock().now());
  }
  EXPECT_EQ(mech->nalloc(), 16);
  // Invariant: nalloc within [1, 16] across the whole history.
  for (const StateTransitionEvent& e : mech->log()) {
    EXPECT_GE(e.nalloc, 1);
    EXPECT_LE(e.nalloc, 16);
  }
}

TEST(MechanismTest, SparseModeSpreadsAllocations) {
  auto machine = MakeMachine();
  auto mech = MakeMechanism(machine.get(), "sparse", MechanismConfig{});
  mech->Install();
  for (int round = 0; round < 3; ++round) {
    FakeLoad(machine.get(), mech->allocated_mask(), 95.0, 20);
    mech->Poll(machine->clock().now());
  }
  // 4 cores after 3 allocations: one per node under sparse.
  EXPECT_EQ(mech->allocated_mask(), platform::CpuMask::Of({0, 4, 8, 12}));
}

TEST(MechanismTest, ThresholdBoundariesAreInclusive) {
  // Drive the PrT net directly with exact boundary values: u == thmax fires
  // t1 (guard is >=) and u == thmin fires t0 (guard is <=).
  auto machine = MakeMachine();
  MechanismConfig config;
  config.initial_cores = 4;
  auto mech = MakeMechanism(machine.get(), "dense", config);
  mech->Install();
  petri::Net& net = mech->net();
  const petri::PlaceId checks = net.FindPlace("Checks");

  net.SetSingleToken(checks, 70.0);
  auto fired = net.StepOnce();
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(net.TransitionName(*fired), "t1");
  net.StepOnce();  // drain the action transition
  net.ClearPlace(checks);

  net.SetSingleToken(checks, 10.0);
  fired = net.StepOnce();
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(net.TransitionName(*fired), "t0");
  net.StepOnce();
  net.ClearPlace(checks);

  // Just inside the band: t2.
  net.SetSingleToken(checks, 10.5);
  fired = net.StepOnce();
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(net.TransitionName(*fired), "t2");
}

TEST(MechanismTest, HtImcStrategyUsesRatio) {
  auto machine = MakeMachine();
  MechanismConfig config = DefaultConfigFor(TransitionStrategy::kHtImcRatio);
  config.initial_cores = 2;
  auto mech = MakeMechanism(machine.get(), "adaptive", config);
  mech->Install();
  // Ratio 0.5 > thmax 0.4 -> overload.
  machine->counters().imc_bytes[0] += 1000;
  machine->counters().ht_bytes_total += 500;
  machine->clock().Advance(20);
  mech->Poll(machine->clock().now());
  EXPECT_EQ(mech->last_state(), PerfState::kOverload);
  EXPECT_EQ(mech->nalloc(), 3);
  EXPECT_NEAR(mech->last_u(), 0.5, 1e-9);
}

TEST(MechanismTest, NetMatricesMatchPaperShape) {
  auto machine = MakeMachine();
  auto mech = MakeMechanism(machine.get(), "dense", MechanismConfig{});
  // 7 places (Checks, Provision, Stable, Idle.u/.n, Overload.u/.n) and the
  // eight transitions t0..t7.
  EXPECT_EQ(mech->net().num_places(), 7);
  EXPECT_EQ(mech->net().num_transitions(), 8);
  const auto at = mech->net().IncidenceMatrix();
  const auto pre = mech->net().PreMatrix();
  const auto post = mech->net().PostMatrix();
  for (int p = 0; p < mech->net().num_places(); ++p) {
    for (int t = 0; t < mech->net().num_transitions(); ++t) {
      EXPECT_EQ(at[p][t], post[p][t] - pre[p][t]);
    }
  }
}

TEST(MechanismTest, InstalledHookPollsOnPeriod) {
  auto machine = MakeMachine();
  MechanismConfig config;
  config.monitor_period_ticks = 5;
  auto mech = MakeMechanism(machine.get(), "dense", config);
  mech->Install();
  machine->RunFor(11);  // polls at ticks 5 and 10
  EXPECT_EQ(mech->log().size(), 2u);
}

TEST(MechanismTest, TraceRecordsTransitions) {
  auto machine = MakeMachine();
  auto mech = MakeMechanism(machine.get(), "dense", MechanismConfig{});
  mech->Install();
  FakeLoad(machine.get(), mech->allocated_mask(), 50.0, 20);
  mech->Poll(machine->clock().now());
  const auto events = machine->trace().EventsOfKind("transition");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].text, "t2-Stable-t3");
}

}  // namespace
}  // namespace elastic::core
