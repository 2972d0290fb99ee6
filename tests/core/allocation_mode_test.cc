#include "core/allocation_mode.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "simcore/rng.h"

namespace elastic::core {
namespace {

using platform::CpuMask;

class ModeTest : public ::testing::Test {
 protected:
  ModeTest() : topo_(numasim::MachineConfig{}) {}
  numasim::Topology topo_;
};

TEST_F(ModeTest, SparseAllocationOrderIteratesNodesFirst) {
  SparseMode mode(&topo_);
  CpuMask mask;
  std::vector<numasim::CoreId> order;
  for (int i = 0; i < 8; ++i) {
    const numasim::CoreId core = mode.NextToAllocate(mask);
    order.push_back(core);
    mask.Set(core);
  }
  // core(i, j) = 4i + j iterating i fastest: 0, 4, 8, 12, 1, 5, 9, 13.
  EXPECT_EQ(order, (std::vector<numasim::CoreId>{0, 4, 8, 12, 1, 5, 9, 13}));
}

TEST_F(ModeTest, DenseLeavesGrowsToTheArbiter) {
  // Dense keeps no grow order of its own: the arbiter's handout fills a node
  // before the next (ArbiterTest.DenseTenantFillsANodeBeforeTheNext).
  DenseMode mode;
  EXPECT_EQ(mode.NextToAllocate(CpuMask()), numasim::kInvalidCore);
  EXPECT_EQ(mode.NextToAllocate(CpuMask::Of({0, 1})), numasim::kInvalidCore);
}

TEST_F(ModeTest, ReleaseIsReverseOfAllocation) {
  DenseMode mode;
  CpuMask mask = CpuMask::Of({0, 1, 2});
  EXPECT_EQ(mode.NextToRelease(mask), 2);
  SparseMode sparse(&topo_);
  CpuMask sparse_mask = CpuMask::Of({0, 4, 8});
  EXPECT_EQ(sparse.NextToRelease(sparse_mask), 8);
}

TEST_F(ModeTest, NeverReleasesTheLastCore) {
  DenseMode dense;
  SparseMode sparse(&topo_);
  AdaptivePriorityMode adaptive(&topo_);
  const CpuMask one = CpuMask::Of({5});
  EXPECT_EQ(dense.NextToRelease(one), numasim::kInvalidCore);
  EXPECT_EQ(sparse.NextToRelease(one), numasim::kInvalidCore);
  EXPECT_EQ(adaptive.NextToRelease(one), numasim::kInvalidCore);
}

/// The release DenseMode made while it kept the node-major order vector:
/// the last core of that order the mask holds, none at one core.
numasim::CoreId OrderVectorRelease(const numasim::Topology& topo,
                                   const CpuMask& mask) {
  std::vector<numasim::CoreId> order;
  for (int i = 0; i < topo.num_nodes(); ++i) {
    for (int j = 0; j < topo.config().cores_per_node; ++j) {
      order.push_back(topo.CoreAt(i, j));
    }
  }
  if (mask.Count() <= 1) return numasim::kInvalidCore;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (mask.Has(*it)) return *it;
  }
  return numasim::kInvalidCore;
}

TEST(DenseReleaseTest, HighestCoreMatchesTheOrderVectorScan) {
  numasim::MachineConfig config;
  config.num_nodes = 256;
  config.cores_per_node = 4;
  const numasim::Topology topo(config);
  const int cores = topo.total_cores();
  DenseMode dense;
  EXPECT_EQ(dense.NextToRelease(CpuMask()), numasim::kInvalidCore);
  simcore::Rng rng(20261020);
  for (int trial = 0; trial < 4000; ++trial) {
    CpuMask mask;
    switch (trial % 4) {
      case 0:  // one core
        mask.Set(static_cast<numasim::CoreId>(rng.NextBounded(cores)));
        break;
      case 1: {  // two to eight scattered cores
        const int n = 2 + static_cast<int>(rng.NextBounded(7));
        while (mask.Count() < n) {
          mask.Set(static_cast<numasim::CoreId>(rng.NextBounded(cores)));
        }
        break;
      }
      case 2: {  // a contiguous run, up to the whole machine
        const int first = static_cast<int>(rng.NextBounded(cores));
        const int length =
            1 + static_cast<int>(rng.NextBounded(cores - first));
        for (int core = first; core < first + length; ++core) mask.Set(core);
        break;
      }
      default:  // wide: each core held with probability one half
        for (int core = 0; core < cores; ++core) {
          if (rng.NextBernoulli(0.5)) mask.Set(core);
        }
    }
    ASSERT_EQ(dense.NextToRelease(mask), OrderVectorRelease(topo, mask))
        << mask.ToString();
  }
}

TEST_F(ModeTest, FullMaskCannotAllocate) {
  SparseMode sparse(&topo_);
  AdaptivePriorityMode adaptive(&topo_);
  const CpuMask all = CpuMask::AllOf(topo_);
  EXPECT_EQ(sparse.NextToAllocate(all), numasim::kInvalidCore);
  EXPECT_EQ(adaptive.NextToAllocate(all), numasim::kInvalidCore);
}

perf::WindowStats StatsWithPages(std::vector<int64_t> pages) {
  auto from = std::make_shared<perf::CounterSnapshot>(
      static_cast<int>(pages.size()), 0);
  auto to = std::make_shared<perf::CounterSnapshot>(*from);
  to->node_access_pages = std::move(pages);
  return perf::WindowStats(std::move(from), std::move(to));
}

TEST_F(ModeTest, AdaptiveWithoutTrafficLeavesGrowsToTheArbiter) {
  // No window has shown a page access: no working set to follow yet.
  AdaptivePriorityMode mode(&topo_);
  EXPECT_EQ(mode.NextToAllocate(CpuMask()), numasim::kInvalidCore);
  mode.Observe(StatsWithPages({0, 0, 0, 0}));
  EXPECT_EQ(mode.NextToAllocate(CpuMask()), numasim::kInvalidCore);
  mode.Observe(StatsWithPages({0, 0, 3, 0}));
  EXPECT_EQ(mode.NextToAllocate(CpuMask()), topo_.CoreAt(2, 0));
}

TEST_F(ModeTest, AdaptiveAllocatesOnHottestNode) {
  AdaptivePriorityMode mode(&topo_);
  mode.Observe(StatsWithPages({10, 500, 20, 30}));
  CpuMask mask;
  EXPECT_EQ(mode.NextToAllocate(mask), topo_.CoreAt(1, 0));
  mask.Set(topo_.CoreAt(1, 0));
  // Node 1 still hottest: next core also there.
  EXPECT_EQ(mode.NextToAllocate(mask), topo_.CoreAt(1, 1));
}

TEST_F(ModeTest, AdaptiveSpillsToNextNodeWhenHotNodeFull) {
  AdaptivePriorityMode mode(&topo_);
  mode.Observe(StatsWithPages({10, 500, 200, 30}));
  CpuMask mask = CpuMask::Of({4, 5, 6, 7});  // node 1 fully allocated
  EXPECT_EQ(mode.NextToAllocate(mask), topo_.CoreAt(2, 0));
}

TEST_F(ModeTest, AdaptiveReleasesFromColdestNode) {
  AdaptivePriorityMode mode(&topo_);
  mode.Observe(StatsWithPages({100, 500, 200, 1}));
  // Cores on nodes 1 and 3 allocated; node 3 is coldest.
  CpuMask mask = CpuMask::Of({4, 5, 12, 13});
  EXPECT_EQ(mode.NextToRelease(mask), 13);  // highest core of coldest node
}

TEST_F(ModeTest, AdaptiveReleaseSkipsNodesWithoutAllocatedCores) {
  AdaptivePriorityMode mode(&topo_);
  mode.Observe(StatsWithPages({100, 500, 200, 1}));
  // Nothing allocated on the coldest node 3: release from next-coldest (0).
  CpuMask mask = CpuMask::Of({0, 1, 4});
  EXPECT_EQ(mode.NextToRelease(mask), 1);
}

TEST_F(ModeTest, FactoryMakesAllThreeModes) {
  EXPECT_EQ(MakeMode("sparse", &topo_)->name(), "sparse");
  EXPECT_EQ(MakeMode("dense", &topo_)->name(), "dense");
  EXPECT_EQ(MakeMode("adaptive", &topo_)->name(), "adaptive");
}

TEST_F(ModeTest, ModesAlwaysProduceValidCoreUntilFull) {
  // Property: starting from empty, a mode with a grow order allocates
  // exactly 16 cores (adaptive once a window showed traffic).
  for (const char* name : {"sparse", "adaptive"}) {
    auto mode = MakeMode(name, &topo_);
    mode->Observe(StatsWithPages({1, 1, 1, 1}));
    CpuMask mask;
    for (int i = 0; i < topo_.total_cores(); ++i) {
      const numasim::CoreId core = mode->NextToAllocate(mask);
      ASSERT_NE(core, numasim::kInvalidCore) << name << " step " << i;
      ASSERT_FALSE(mask.Has(core)) << name << " returned allocated core";
      mask.Set(core);
    }
    EXPECT_EQ(mode->NextToAllocate(mask), numasim::kInvalidCore);
  }
}

}  // namespace
}  // namespace elastic::core
