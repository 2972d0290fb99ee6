#include "perf/sampler.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perf/counters.h"
#include "simcore/clock.h"

namespace elastic::perf {
namespace {

TEST(SamplerTest, DeltasSinceBaseline) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  Sampler sampler(&counters, &clock);

  counters.l3_misses[2] += 10;
  counters.ht_bytes_total += 4096;
  counters.core_busy_cycles[0] += 1000;
  clock.Advance(5);

  const WindowStats stats = sampler.Sample();
  EXPECT_EQ(stats.ticks(), 5);
  EXPECT_EQ(stats.l3_misses(2), 10);
  EXPECT_EQ(stats.ht_bytes(), 4096);
  EXPECT_EQ(stats.core_busy_cycles(0), 1000);
}

TEST(SamplerTest, SampleRebaselines) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  Sampler sampler(&counters, &clock);
  counters.minor_faults = 7;
  clock.Advance(1);
  sampler.Sample();
  clock.Advance(1);
  const WindowStats second = sampler.Sample();
  EXPECT_EQ(second.minor_faults(), 0);
  EXPECT_EQ(second.ticks(), 1);
}

TEST(SamplerTest, CpuLoadPercentOverMask) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  Sampler sampler(&counters, &clock);
  const int64_t cycles_per_tick = 1000;
  // Core 0 fully busy for 10 ticks, core 1 idle.
  counters.core_busy_cycles[0] = 10 * cycles_per_tick;
  clock.Advance(10);
  const WindowStats stats = sampler.Sample();
  const platform::CpuMask both = platform::CpuMask::Of({0, 1});
  EXPECT_NEAR(stats.CpuLoadPercent(both, cycles_per_tick), 50.0, 1e-9);
  const platform::CpuMask only0 = platform::CpuMask::Of({0});
  EXPECT_NEAR(stats.CpuLoadPercent(only0, cycles_per_tick), 100.0, 1e-9);
}

TEST(SamplerTest, HtImcRatio) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  Sampler sampler(&counters, &clock);
  counters.imc_bytes[0] = 1000;
  counters.imc_bytes[1] = 1000;
  counters.ht_bytes_total = 500;
  clock.Advance(1);
  const WindowStats stats = sampler.Sample();
  EXPECT_NEAR(stats.HtImcRatio(), 0.25, 1e-9);
}

TEST(SamplerTest, RatioOfZeroTrafficIsZero) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  Sampler sampler(&counters, &clock);
  clock.Advance(1);
  EXPECT_DOUBLE_EQ(sampler.Sample().HtImcRatio(), 0.0);
}

TEST(SamplerTest, BandwidthUsesSimulatedSeconds) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  Sampler sampler(&counters, &clock);
  counters.ht_bytes_total = 1'000'000;
  counters.imc_bytes[3] = 2'000'000;
  clock.Advance(1000);  // 1 simulated second at 1 ms/tick
  const WindowStats stats = sampler.Sample();
  EXPECT_NEAR(stats.HtBytesPerSecond(), 1e6, 1.0);
  EXPECT_NEAR(stats.ImcBytesPerSecond(3), 2e6, 1.0);
}

TEST(SamplerTest, CpuLoadPercentOverWideMask) {
  // Cores in a middle word and the last core of the widest mask.
  CounterSet counters(16, 32, platform::CpuMask::kMaxCores);
  simcore::Clock clock;
  Sampler sampler(&counters, &clock);
  const int64_t cycles_per_tick = 1000;
  counters.core_busy_cycles[600] = 10 * cycles_per_tick;
  counters.core_busy_cycles[1023] = 5 * cycles_per_tick;
  clock.Advance(10);
  const WindowStats stats = sampler.Sample();
  const platform::CpuMask mask = platform::CpuMask::Of({600, 601, 1023});
  EXPECT_NEAR(stats.CpuLoadPercent(mask, cycles_per_tick), 50.0, 1e-9);
}

/// One per-node counter's deltas over a window, as a vector.
std::vector<int64_t> PerNode(const WindowStats& w,
                             int64_t (WindowStats::*delta)(int) const) {
  std::vector<int64_t> values;
  for (int node = 0; node < w.num_nodes(); ++node) {
    values.push_back((w.*delta)(node));
  }
  return values;
}

std::vector<int64_t> PerCoreBusy(const WindowStats& w) {
  std::vector<int64_t> values;
  for (int core = 0; core < w.num_cores(); ++core) {
    values.push_back(w.core_busy_cycles(core));
  }
  return values;
}

void ExpectSameWindow(const WindowStats& a, const WindowStats& b) {
  EXPECT_EQ(a.ticks(), b.ticks());
  EXPECT_EQ(a.seconds(), b.seconds());
  for (const auto delta : {&WindowStats::l3_hits, &WindowStats::l3_misses,
                           &WindowStats::imc_bytes,
                           &WindowStats::node_access_pages}) {
    EXPECT_EQ(PerNode(a, delta), PerNode(b, delta));
  }
  EXPECT_EQ(PerCoreBusy(a), PerCoreBusy(b));
  EXPECT_EQ(a.ht_bytes(), b.ht_bytes());
  EXPECT_EQ(a.minor_faults(), b.minor_faults());
  EXPECT_EQ(a.stolen_tasks(), b.stolen_tasks());
  EXPECT_EQ(a.thread_migrations(), b.thread_migrations());
  EXPECT_EQ(a.tasks_spawned(), b.tasks_spawned());
}

TEST(SamplerTest, SamplersOfOneCounterSetShareWindows) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  auto cache = std::make_shared<SnapshotCache>(&counters, &clock);
  Sampler first(cache);
  Sampler second(cache);
  Sampler private_cache(&counters, &clock);
  counters.l3_misses[1] += 3;
  counters.imc_bytes[2] += 4096;
  counters.core_busy_cycles[7] += 500;
  counters.minor_faults += 2;
  clock.Advance(4);
  const WindowStats a = first.Sample();
  const WindowStats b = second.Sample();
  ExpectSameWindow(a, b);
  ExpectSameWindow(a, private_cache.Sample());
  EXPECT_EQ(a.ticks(), 4);
  EXPECT_EQ(a.core_busy_cycles(7), 500);
}

TEST(SamplerTest, CounterBumpedWithinATickIsSeen) {
  // Two samplers read at the same tick, a counter moving in between: the
  // second must see the move, so a shared snapshot cannot be keyed on the
  // tick alone.
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  auto cache = std::make_shared<SnapshotCache>(&counters, &clock);
  Sampler first(cache);
  Sampler second(cache);
  counters.core_busy_cycles[0] += 100;
  clock.Advance(2);
  EXPECT_EQ(first.Sample().core_busy_cycles(0), 100);
  counters.core_busy_cycles[0] += 50;
  EXPECT_EQ(second.Sample().core_busy_cycles(0), 150);
  // The first sampler's next window carries the bump it missed.
  clock.Advance(1);
  const WindowStats next = first.Sample();
  EXPECT_EQ(next.ticks(), 1);
  EXPECT_EQ(next.core_busy_cycles(0), 50);
}

TEST(SamplerTest, SkippedRoundsYieldOneWindowOverTheGap) {
  // A sampler that missed rounds (a telemetry dropout) gets a single window
  // from its last sample to now, while its neighbour sampled every round.
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  auto cache = std::make_shared<SnapshotCache>(&counters, &clock);
  Sampler every_round(cache);
  Sampler skipper(cache);
  for (int round = 0; round < 4; ++round) {
    counters.core_busy_cycles[1] += 10;
    counters.ht_bytes_total += 64;
    clock.Advance(5);
    EXPECT_EQ(every_round.Sample().core_busy_cycles(1), 10);
  }
  const WindowStats gap = skipper.Sample();
  EXPECT_EQ(gap.ticks(), 20);
  EXPECT_EQ(gap.core_busy_cycles(1), 40);
  EXPECT_EQ(gap.ht_bytes(), 256);
}

TEST(SamplerTest, SamplersAtOneTickShareOneEndSnapshot) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  auto cache = std::make_shared<SnapshotCache>(&counters, &clock);
  Sampler first(cache);
  Sampler second(cache);
  counters.core_busy_cycles[3] += 70;
  clock.Advance(3);
  const WindowStats a = first.Sample();
  const WindowStats b = second.Sample();
  EXPECT_EQ(a.to(), b.to());
  EXPECT_EQ(a.from(), b.from());
  // A copy shares both ends instead of copying the counters.
  const WindowStats copy = a;
  EXPECT_EQ(copy.from(), a.from());
  EXPECT_EQ(copy.to(), a.to());
  EXPECT_EQ(copy.core_busy_cycles(3), 70);
  // The next window starts at the reading this one ended at.
  clock.Advance(1);
  EXPECT_EQ(first.Sample().from(), a.to());
}

/// One counter of a CounterSet, bumped within a tick, and whether a window
/// reads it.
struct CounterBump {
  std::string name;
  std::function<void(CounterSet&)> bump;
  bool window_reads;
};

class SnapshotReuseTest : public ::testing::TestWithParam<CounterBump> {};

TEST_P(SnapshotReuseTest, OnlyWindowReadCountersForceANewSnapshot) {
  CounterSet counters(4, 8, 16);
  simcore::Clock clock;
  SnapshotCache cache(&counters, &clock);
  clock.Advance(1);
  const std::shared_ptr<const CounterSnapshot> before = cache.Latest();
  GetParam().bump(counters);
  const std::shared_ptr<const CounterSnapshot>& after = cache.Latest();
  if (GetParam().window_reads) {
    EXPECT_NE(after, before);
  } else {
    EXPECT_EQ(after, before);
  }
}

// Each bump touches the last entry of its counter, so a comparison that
// stops early cannot pass either.
INSTANTIATE_TEST_SUITE_P(
    Counters, SnapshotReuseTest,
    ::testing::Values(
        CounterBump{"l3_hits", [](CounterSet& c) { c.l3_hits[3]++; }, true},
        CounterBump{"l3_misses", [](CounterSet& c) { c.l3_misses[3]++; }, true},
        CounterBump{"imc_bytes", [](CounterSet& c) { c.imc_bytes[3]++; }, true},
        CounterBump{"node_access_pages",
                    [](CounterSet& c) { c.node_access_pages[3]++; }, true},
        CounterBump{"core_busy_cycles",
                    [](CounterSet& c) { c.core_busy_cycles[15]++; }, true},
        CounterBump{"ht_bytes_total",
                    [](CounterSet& c) { c.ht_bytes_total++; }, true},
        CounterBump{"minor_faults", [](CounterSet& c) { c.minor_faults++; },
                    true},
        CounterBump{"stolen_tasks", [](CounterSet& c) { c.stolen_tasks++; },
                    true},
        CounterBump{"thread_migrations",
                    [](CounterSet& c) { c.thread_migrations++; }, true},
        CounterBump{"tasks_spawned", [](CounterSet& c) { c.tasks_spawned++; },
                    true},
        CounterBump{"local_bytes", [](CounterSet& c) { c.local_bytes[3]++; },
                    false},
        CounterBump{"remote_in_bytes",
                    [](CounterSet& c) { c.remote_in_bytes[3]++; }, false},
        CounterBump{"ht_link_bytes",
                    [](CounterSet& c) { c.ht_link_bytes[7]++; }, false},
        CounterBump{"l3_invalidations",
                    [](CounterSet& c) { c.l3_invalidations++; }, false},
        CounterBump{"first_touch_faults",
                    [](CounterSet& c) { c.first_touch_faults++; }, false},
        CounterBump{"load_balance_rounds",
                    [](CounterSet& c) { c.load_balance_rounds++; }, false},
        CounterBump{"stream_ht_bytes",
                    [](CounterSet& c) { c.stream_ht_bytes[kNoStream]++; },
                    false},
        CounterBump{"stream_imc_bytes",
                    [](CounterSet& c) { c.stream_imc_bytes[0]++; }, false},
        CounterBump{"stream_busy_cycles",
                    [](CounterSet& c) { c.stream_busy_cycles[5]++; }, false}),
    [](const ::testing::TestParamInfo<CounterBump>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace elastic::perf
