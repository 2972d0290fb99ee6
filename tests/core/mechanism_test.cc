#include "core/mechanism.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/allocation_mode.h"
#include "core/arbiter.h"
#include "ossim/machine.h"
#include "platform/sim_platform.h"
#include "simcore/rng.h"

namespace elastic::core {
namespace {

std::unique_ptr<ossim::Machine> MakeMachine() {
  return std::make_unique<ossim::Machine>(ossim::MachineOptions{});
}

/// Test rig: the mechanism as the one tenant of a fair_share CoreArbiter on
/// the SimPlatform seam — floor initial_cores, cap every core, the
/// arbiter's period the mechanism's — the way exec::Experiment runs it.
/// Install() hands out the initial cores; Poll() runs one round, which
/// last() reads back from the arbiter's round log.
struct RiggedMechanism {
  std::unique_ptr<platform::SimPlatform> platform;
  std::unique_ptr<CoreArbiter> arbiter;
  ElasticMechanism* operator->() { return &arbiter->mechanism(0); }
  void Install() { arbiter->Install(); }
  void Poll(simcore::Tick now) { arbiter->Poll(now); }
  const TenantRound& last() const { return arbiter->log().back().tenants[0]; }
};

RiggedMechanism MakeMechanism(ossim::Machine* machine, const std::string& mode,
                              MechanismConfig config) {
  RiggedMechanism rig;
  rig.platform = std::make_unique<platform::SimPlatform>(machine);
  ArbiterConfig arbiter_config;
  arbiter_config.monitor_period_ticks = config.monitor_period_ticks;
  rig.arbiter = std::make_unique<CoreArbiter>(rig.platform.get(), arbiter_config);
  ArbiterTenantConfig tenant;
  tenant.mechanism = config;
  tenant.mode = mode;
  rig.arbiter->AddTenant(tenant);
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
  mech.Install();
  EXPECT_EQ(mech->nalloc(), 3);
  EXPECT_EQ(machine->scheduler().cpuset_mask(mech.arbiter->tenant_cpuset(0)),
            mech->allocated_mask());
  EXPECT_EQ(mech->allocated_mask(), platform::CpuMask::Of({0, 1, 2}));
}

TEST(MechanismTest, OverloadAllocatesOneCore) {
  auto machine = MakeMachine();
  auto mech = MakeMechanism(machine.get(), "dense", MechanismConfig{});
  mech.Install();
  FakeLoad(machine.get(), mech->allocated_mask(), 99.0, 20);
  mech.Poll(machine->clock().now());
  EXPECT_EQ(mech->nalloc(), 2);
  EXPECT_EQ(mech->last_state(), PerfState::kOverload);
  ASSERT_EQ(mech.arbiter->log().size(), 1u);
  EXPECT_EQ(mech.last().decision.label, "t1-Overload-t5");
}

TEST(MechanismTest, IdleReleasesOneCore) {
  auto machine = MakeMachine();
  MechanismConfig config;
  config.initial_cores = 4;
  auto mech = MakeMechanism(machine.get(), "dense", config);
  mech.Install();
  FakeLoad(machine.get(), mech->allocated_mask(), 2.0, 20);
  mech.Poll(machine->clock().now());
  EXPECT_EQ(mech->nalloc(), 3);
  EXPECT_EQ(mech.last().decision.label, "t0-Idle-t4");
}

TEST(MechanismTest, IdleAtFloorKeepsOneCore) {
  auto machine = MakeMachine();
  auto mech = MakeMechanism(machine.get(), "dense", MechanismConfig{});
  mech.Install();
  ASSERT_EQ(mech->nalloc(), 1);
  FakeLoad(machine.get(), mech->allocated_mask(), 0.0, 20);
  mech.Poll(machine->clock().now());
  EXPECT_EQ(mech->nalloc(), 1);
  EXPECT_EQ(mech.last().decision.label, "t0-Idle-t7");
}

TEST(MechanismTest, StableKeepsAllocation) {
  auto machine = MakeMachine();
  MechanismConfig config;
  config.initial_cores = 2;
  auto mech = MakeMechanism(machine.get(), "dense", config);
  mech.Install();
  FakeLoad(machine.get(), mech->allocated_mask(), 40.0, 20);
  mech.Poll(machine->clock().now());
  EXPECT_EQ(mech->nalloc(), 2);
  EXPECT_EQ(mech->last_state(), PerfState::kStable);
  EXPECT_EQ(mech.last().decision.label, "t2-Stable-t3");
}

TEST(MechanismTest, OverloadAtCeilingFiresT6) {
  auto machine = MakeMachine();
  MechanismConfig config;
  config.initial_cores = 16;
  auto mech = MakeMechanism(machine.get(), "dense", config);
  mech.Install();
  FakeLoad(machine.get(), mech->allocated_mask(), 100.0, 20);
  mech.Poll(machine->clock().now());
  EXPECT_EQ(mech->nalloc(), 16);
  EXPECT_EQ(mech.last().decision.label, "t1-Overload-t6");
}

TEST(MechanismTest, RepeatedOverloadClimbsToCeiling) {
  auto machine = MakeMachine();
  auto mech = MakeMechanism(machine.get(), "sparse", MechanismConfig{});
  mech.Install();
  for (int round = 0; round < 20; ++round) {
    FakeLoad(machine.get(), mech->allocated_mask(), 95.0, 20);
    mech.Poll(machine->clock().now());
  }
  EXPECT_EQ(mech->nalloc(), 16);
  // Invariant: nalloc within [1, 16] across the whole history.
  for (const ArbiterRound& round : mech.arbiter->log()) {
    EXPECT_GE(round.tenants[0].granted, 1);
    EXPECT_LE(round.tenants[0].granted, 16);
  }
}

TEST(MechanismTest, SparseModeSpreadsAllocations) {
  auto machine = MakeMachine();
  auto mech = MakeMechanism(machine.get(), "sparse", MechanismConfig{});
  mech.Install();
  for (int round = 0; round < 3; ++round) {
    FakeLoad(machine.get(), mech->allocated_mask(), 95.0, 20);
    mech.Poll(machine->clock().now());
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
  mech.Install();
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
  mech.Install();
  // Ratio 0.5 > thmax 0.4 -> overload.
  machine->counters().imc_bytes[0] += 1000;
  machine->counters().ht_bytes_total += 500;
  machine->clock().Advance(20);
  mech.Poll(machine->clock().now());
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
  mech.Install();
  machine->RunFor(11);  // polls at ticks 5 and 10
  EXPECT_EQ(mech.arbiter->log().size(), 2u);
}

/// 64-bit FNV-1a over whole words and strings, fed byte by byte.
class Fnv1a {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) AddByte((word >> (8 * byte)) & 0xFFu);
  }
  void Add(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void Add(const std::string& text) {
    for (const char c : text) AddByte(static_cast<unsigned char>(c));
    AddByte(0);
  }
  uint64_t value() const { return hash_; }

 private:
  void AddByte(uint64_t byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001B3ULL;
  }
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void AddDecision(Fnv1a& digest, const ElasticMechanism::Decision& d) {
  digest.Add(static_cast<uint64_t>(d.state));
  digest.Add(d.u);
  digest.Add(static_cast<uint64_t>(d.current));
  digest.Add(static_cast<uint64_t>(d.desired));
  digest.Add(static_cast<uint64_t>(d.valid));
}

/// Grows or shrinks the mechanism's mask to `target` cores through its own
/// mode, as the arbiter's grants do for a lone tenant: a mode without a grow
/// order (dense) takes the lowest free core.
platform::CpuMask GrantOf(ElasticMechanism& mechanism, int target) {
  platform::CpuMask mask = mechanism.allocated_mask();
  while (mask.Count() < target) {
    numasim::CoreId core = mechanism.mode().NextToAllocate(mask);
    if (core == numasim::kInvalidCore) {
      for (core = 0; mask.Has(core);) ++core;
    }
    mask.Set(core);
  }
  while (mask.Count() > target) mask.Clear(mechanism.mode().NextToRelease(mask));
  return mask;
}

/// Pins every decision of two managed mechanisms over 2000 seeded rounds:
/// CPU load under dense mode and HT/IMC ratio under adaptive mode, with
/// loads exactly at both thresholds, grants that overrule the net, and a
/// repeated Decide at one tick (the zero-width stale-hold path). Recorded
/// with the deque-backed net and by-value windows; re-record only for a
/// deliberate change of behaviour.
TEST(MechanismTest, DecisionTraceDigest) {
  auto machine = MakeMachine();
  platform::SimPlatform platform(machine.get());
  MechanismConfig load_config;
  load_config.max_cores = 8;
  ElasticMechanism load(&platform, MakeMode("dense", &machine->topology()),
                        load_config);
  MechanismConfig ratio_config =
      DefaultConfigFor(TransitionStrategy::kHtImcRatio);
  ratio_config.initial_cores = 2;
  ratio_config.max_cores = 6;
  ElasticMechanism ratio(&platform, MakeMode("adaptive", &machine->topology()),
                         ratio_config);
  load.InstallManaged(platform::CpuMask::FirstN(1));
  ratio.InstallManaged(platform::CpuMask::Of({8, 9}));

  const int64_t cycles_per_tick = machine->scheduler().cycles_per_tick();
  const int nodes = machine->topology().num_nodes();
  perf::CounterSet& counters = machine->counters();
  simcore::Rng rng(0xDEC1DE);
  Fnv1a digest;
  int at_thmin = 0, at_thmax = 0, overruled = 0, stale = 0;
  // The labels of the committed decisions, per mechanism, in commit order.
  std::vector<std::string> load_labels;
  std::vector<std::string> ratio_labels;
  const auto commit = [&](ElasticMechanism& mechanism,
                          const ElasticMechanism::Decision& d) {
    int target = d.desired;
    if (rng.NextBounded(5) == 0) {
      const int step = 1 + static_cast<int>(rng.NextBounded(2));
      target += rng.NextBounded(2) == 0 ? step : -step;
      target = std::clamp(target, 1, mechanism.config().max_cores);
    }
    if (target != d.desired) overruled++;
    mechanism.CommitGrant(GrantOf(mechanism, target));
    (&mechanism == &load ? load_labels : ratio_labels).push_back(d.label);
  };
  for (int round = 0; round < 2000; ++round) {
    const int64_t ticks = 1 + static_cast<int64_t>(rng.NextBounded(20));
    // CPU load in whole percent, so 10 and 70 land exactly on thmin/thmax.
    const uint64_t load_case = rng.NextBounded(6);
    const int64_t percent = load_case == 0   ? 10
                            : load_case == 1 ? 70
                                             : static_cast<int64_t>(
                                                   rng.NextBounded(101));
    for (const numasim::CoreId core : load.allocated_mask().ToCores()) {
      counters.core_busy_cycles[static_cast<size_t>(core)] +=
          cycles_per_tick * ticks * percent / 100;
    }
    // HT/IMC traffic: 100:1000 and 400:1000 are exactly thmin and thmax.
    const uint64_t ratio_case = rng.NextBounded(6);
    const int64_t imc = ratio_case <= 1
                            ? 1000
                            : static_cast<int64_t>(rng.NextBounded(2000));
    const int64_t ht = ratio_case == 0   ? 100
                       : ratio_case == 1 ? 400
                                         : static_cast<int64_t>(
                                               rng.NextBounded(1000));
    counters.imc_bytes[rng.NextBounded(static_cast<uint64_t>(nodes))] += imc;
    counters.ht_bytes_total += ht;
    for (int node = 0; node < nodes; ++node) {
      counters.node_access_pages[static_cast<size_t>(node)] +=
          static_cast<int64_t>(rng.NextBounded(64));
    }
    machine->clock().Advance(ticks);

    for (ElasticMechanism* mechanism : {&load, &ratio}) {
      const ElasticMechanism::Decision d = mechanism->Decide();
      AddDecision(digest, d);
      if (mechanism == &load && d.u == 10.0) at_thmin++;
      if (mechanism == &load && d.u == 70.0) at_thmax++;
      if (mechanism == &ratio && d.u == 0.1) at_thmin++;
      if (mechanism == &ratio && d.u == 0.4) at_thmax++;
      commit(*mechanism, d);
      if (rng.NextBounded(16) == 0) {
        const ElasticMechanism::Decision again = mechanism->Decide();
        ASSERT_FALSE(again.valid);
        AddDecision(digest, again);
        stale++;
        commit(*mechanism, again);
      }
    }
  }
  std::set<std::string> labels;
  for (const std::vector<std::string>* committed :
       {&load_labels, &ratio_labels}) {
    for (const std::string& label : *committed) {
      digest.Add(label);
      labels.insert(label);
    }
  }
  EXPECT_GT(at_thmin, 100);
  EXPECT_GT(at_thmax, 100);
  EXPECT_GT(overruled, 100);
  EXPECT_GT(stale, 100);
  EXPECT_EQ(labels, (std::set<std::string>{
                        "stale-hold", "t0-Idle-t4", "t0-Idle-t7",
                        "t1-Overload-t5", "t1-Overload-t6", "t2-Stable-t3"}));
  EXPECT_EQ(digest.value(), 0x17D5E530CADADF57ULL) << std::hex << "0x" << digest.value();
}

}  // namespace
}  // namespace elastic::core
