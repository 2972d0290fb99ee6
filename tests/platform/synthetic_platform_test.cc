#include "platform/synthetic_platform.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "perf/sampler.h"

namespace elastic::platform {
namespace {

/// Busy cycles one tick credits a core running at `fraction`.
int64_t Credit(const SyntheticPlatform& platform, double fraction) {
  return static_cast<int64_t>(fraction *
                              static_cast<double>(platform.cycles_per_tick()));
}

TEST(SyntheticPlatformTest, SamplersAtOneTickEndAtOneReading) {
  SyntheticPlatform platform{numasim::MachineConfig{}};
  auto first = platform.CreateSampler();
  auto second = platform.CreateSampler();
  platform.SetCoreBusyFraction(2, 0.5);
  platform.SetCoreBusyFraction(9, 0.25);
  platform.SetCoreBusyFraction(15, 1.0);
  platform.AdvanceTicks(10);
  const perf::WindowStats a = first->Sample();
  const perf::WindowStats b = second->Sample();
  EXPECT_EQ(a.to(), b.to());
  EXPECT_EQ(a.from(), b.from());
  EXPECT_EQ(a.to()->tick, 10);
  EXPECT_EQ(a.ticks(), 10);
  // Each window holds exactly the cycles the ten ticks credited.
  const std::vector<double> fraction = {0, 0, 0.5, 0, 0, 0, 0, 0,
                                        0, 0.25, 0, 0, 0, 0, 0, 1.0};
  for (int core = 0; core < platform.topology().total_cores(); ++core) {
    const int64_t credited =
        10 * Credit(platform, fraction[static_cast<size_t>(core)]);
    EXPECT_EQ(a.core_busy_cycles(core), credited) << "core " << core;
    EXPECT_EQ(b.core_busy_cycles(core), credited) << "core " << core;
  }
}

TEST(SyntheticPlatformTest, BusyFractionSetWithinATickCreditsOnlyLaterTicks) {
  SyntheticPlatform platform{numasim::MachineConfig{}};
  auto first = platform.CreateSampler();
  auto second = platform.CreateSampler();
  platform.SetCoreBusyFraction(3, 0.5);
  platform.AdvanceTicks(4);
  const perf::WindowStats a = first->Sample();
  platform.SetCoreBusyFraction(3, 1.0);
  platform.SetCoreBusyFraction(5, 0.75);
  const perf::WindowStats b = second->Sample();
  // The new fractions move no counter at this tick, so both samplers read
  // the one reading, and it holds the old fraction's credit.
  EXPECT_EQ(a.to(), b.to());
  EXPECT_EQ(a.core_busy_cycles(3), 4 * Credit(platform, 0.5));
  EXPECT_EQ(b.core_busy_cycles(3), 4 * Credit(platform, 0.5));
  EXPECT_EQ(b.core_busy_cycles(5), 0);
  // The next ticks credit the new fractions.
  platform.AdvanceTicks(2);
  const perf::WindowStats next = first->Sample();
  EXPECT_EQ(next.from(), a.to());
  EXPECT_EQ(next.ticks(), 2);
  EXPECT_EQ(next.core_busy_cycles(3), 2 * Credit(platform, 1.0));
  EXPECT_EQ(next.core_busy_cycles(5), 2 * Credit(platform, 0.75));
}

TEST(SyntheticPlatformTest, SamplerCreatedOrResetMidRunBaselinesAtThatTick) {
  SyntheticPlatform platform{numasim::MachineConfig{}};
  platform.SetCoreBusyFraction(1, 0.5);
  auto running = platform.CreateSampler();
  auto reset = platform.CreateSampler();
  platform.AdvanceTicks(6);
  const perf::WindowStats window = running->Sample();
  auto created = platform.CreateSampler();
  reset->Reset();
  platform.AdvanceTicks(3);
  const perf::WindowStats from_created = created->Sample();
  const perf::WindowStats from_reset = reset->Sample();
  // Both baselines are the tick-6 reading the running sampler ended at.
  EXPECT_EQ(from_created.from(), window.to());
  EXPECT_EQ(from_reset.from(), window.to());
  EXPECT_EQ(from_created.ticks(), 3);
  EXPECT_EQ(from_reset.ticks(), 3);
  EXPECT_EQ(from_created.core_busy_cycles(1), 3 * Credit(platform, 0.5));
  EXPECT_EQ(from_reset.core_busy_cycles(1), 3 * Credit(platform, 0.5));
  EXPECT_EQ(running->Sample().to(), from_created.to());
}

TEST(SyntheticPlatformTest, TickHookSampleSeesThatTicksCredit) {
  SyntheticPlatform platform{numasim::MachineConfig{}};
  auto sampler = platform.CreateSampler();
  platform.SetCoreBusyFraction(0, 0.5);
  std::vector<simcore::Tick> ticks;
  std::vector<int64_t> busy;
  platform.AddTickHook([&](simcore::Tick now) {
    const perf::WindowStats window = sampler->Sample();
    ticks.push_back(window.to()->tick);
    busy.push_back(window.core_busy_cycles(0));
    EXPECT_EQ(now, platform.Now());
  });
  platform.AdvanceTicks(3);
  EXPECT_EQ(ticks, (std::vector<simcore::Tick>{1, 2, 3}));
  EXPECT_EQ(busy, std::vector<int64_t>(3, Credit(platform, 0.5)));
}

}  // namespace
}  // namespace elastic::platform
