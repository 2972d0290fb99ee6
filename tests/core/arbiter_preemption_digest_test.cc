// Many-tenant preemption digest: 256 tenants under priority_weighted on a
// 512-core SyntheticPlatform, with a rotating hot group that keeps the free
// pool empty, so most rounds end in phase-3 preemptions against a long list
// of tenants above their entitlement. The run is replayed at island-affinity
// weight 0 and 4 (fixed per-node residency telemetry), and every round's
// masks plus the handoff, preemption and starved-round counters are folded
// into an FNV-1a digest that must match the recorded one: any change to
// which tenant a grower preempts, or whether it preempts at all, fails here.
// The 4-tenant property harness never builds a long victim list; this test
// does.

#include "core/arbiter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "platform/synthetic_platform.h"
#include "simcore/rng.h"

namespace elastic::core {
namespace {

constexpr int kTenants = 256;
constexpr int kNodes = 16;
constexpr int kCoresPerNode = 32;
constexpr int kGroups = 8;
/// Rounds a group stays hot before the next one takes over.
constexpr int kHotRounds = 5;
constexpr int kRounds = 160;
constexpr int kPeriod = 20;

/// 64-bit FNV-1a over whole words, fed byte by byte (little-endian).
class Fnv1a {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

struct Outcome {
  uint64_t digest = 0;
  int64_t preemptions = 0;
  /// Rounds in which at least one core was preempted.
  int preempting_rounds = 0;
};

Outcome RunRotation(double numa_affinity_weight) {
  numasim::MachineConfig machine;
  machine.num_nodes = kNodes;
  machine.cores_per_node = kCoresPerNode;
  platform::SyntheticPlatform platform(machine);

  ArbiterConfig config;
  config.policy = ArbitrationPolicy::kPriorityWeighted;
  config.monitor_period_ticks = kPeriod;
  config.register_tick_hook = false;
  config.numa_affinity_weight = numa_affinity_weight;
  CoreArbiter arbiter(&platform, config);
  for (int i = 0; i < kTenants; ++i) {
    ArbiterTenantConfig tenant;
    tenant.name = "t" + std::to_string(i);
    tenant.weight = 1.0 + i % 4;
    tenant.mode = "dense";
    tenant.mechanism.initial_cores = 1 + i % 2;
    tenant.mechanism.log_transitions = false;
    // Fixed residency: most pages on one node, the rest on another.
    tenant.telemetry_caps = TelemetrySnapshot::kMemory;
    const int home = i % kNodes;
    const int spill = (i * 7 + 3) % kNodes;
    tenant.telemetry = [home, spill](simcore::Tick) {
      TelemetrySnapshot snap;
      snap.remote_access_fraction = 0.25;
      snap.resident_pages_per_node.assign(kNodes, 0);
      snap.resident_pages_per_node[static_cast<size_t>(home)] += 3000;
      snap.resident_pages_per_node[static_cast<size_t>(spill)] += 1000;
      snap.valid_mask = TelemetrySnapshot::kMemory;
      return snap;
    };
    arbiter.AddTenant(tenant);
  }
  arbiter.Install();

  // A seeded shuffle of the tenants into kGroups groups. The hot group runs
  // overloaded and grows; the group before it cools off but stays stable on
  // its grown cores (the victims); one group idles and shrinks, so rounds
  // mix pool grants with preemptions.
  std::vector<int> group(kTenants);
  std::vector<int> order(kTenants);
  for (int i = 0; i < kTenants; ++i) order[static_cast<size_t>(i)] = i;
  simcore::Rng rng(0x5CA1E);
  for (int i = kTenants - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
  }
  for (int i = 0; i < kTenants; ++i) {
    group[static_cast<size_t>(order[static_cast<size_t>(i)])] = i % kGroups;
  }

  Outcome outcome;
  Fnv1a digest;
  const int total_cores = platform.topology().total_cores();
  for (int round = 0; round < kRounds; ++round) {
    const int hot = (round / kHotRounds) % kGroups;
    const int idle = (hot + kGroups / 2) % kGroups;
    for (int core = 0; core < total_cores; ++core) {
      platform.SetCoreBusyFraction(core, 0.05);
    }
    for (int i = 0; i < kTenants; ++i) {
      const int g = group[static_cast<size_t>(i)];
      const double busy = g == hot ? 0.95 : g == idle ? 0.05 : 0.40;
      for (const numasim::CoreId core : arbiter.tenant_mask(i).ToCores()) {
        platform.SetCoreBusyFraction(core, busy);
      }
    }
    platform.AdvanceTicks(kPeriod);
    arbiter.Poll(platform.Now());

    const ArbiterRound& last = arbiter.log().back();
    if (last.preemptions > 0) outcome.preempting_rounds++;
    for (int i = 0; i < kTenants; ++i) {
      const std::vector<numasim::CoreId> cores =
          arbiter.tenant_mask(i).ToCores();
      digest.Add(cores.size());
      for (const numasim::CoreId core : cores) {
        digest.Add(static_cast<uint64_t>(core));
      }
    }
  }
  for (const int64_t counter : {arbiter.core_handoffs(), arbiter.preemptions(),
                                arbiter.starved_rounds()}) {
    digest.Add(static_cast<uint64_t>(counter));
  }
  outcome.digest = digest.value();
  outcome.preemptions = arbiter.preemptions();
  return outcome;
}

/// Digests recorded with the arbiter that scanned every tenant for every
/// unmet grower; re-record only for a deliberate change of behaviour.
TEST(ArbiterPreemptionDigestTest, AffinityOffMatchesRecordedDigest) {
  const Outcome outcome = RunRotation(0.0);
  EXPECT_GT(outcome.preemptions, 0);
  EXPECT_GT(outcome.preempting_rounds, kRounds / 2);
  EXPECT_EQ(outcome.digest, 0x42E3F37F6F643E80ULL) << std::hex << "0x" << outcome.digest;
}

TEST(ArbiterPreemptionDigestTest, AffinityOnMatchesRecordedDigest) {
  const Outcome outcome = RunRotation(4.0);
  EXPECT_GT(outcome.preemptions, 0);
  EXPECT_GT(outcome.preempting_rounds, kRounds / 2);
  EXPECT_EQ(outcome.digest, 0xA5DBF6924489991CULL) << std::hex << "0x" << outcome.digest;
}

}  // namespace
}  // namespace elastic::core
