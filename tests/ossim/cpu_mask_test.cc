#include "platform/cpu_mask.h"

#include <gtest/gtest.h>

#include "numasim/topology.h"

namespace elastic::platform {
namespace {

TEST(CpuMaskTest, FirstNSetsPrefix) {
  const CpuMask mask = CpuMask::FirstN(3);
  EXPECT_TRUE(mask.Has(0));
  EXPECT_TRUE(mask.Has(2));
  EXPECT_FALSE(mask.Has(3));
  EXPECT_EQ(mask.Count(), 3);
}

TEST(CpuMaskTest, FullWidthMask) {
  const CpuMask mask = CpuMask::FirstN(64);
  EXPECT_EQ(mask.Count(), 64);
  EXPECT_TRUE(mask.Has(63));
}

TEST(CpuMaskTest, SetAndClear) {
  CpuMask mask;
  mask.Set(5);
  mask.Set(9);
  EXPECT_EQ(mask.Count(), 2);
  mask.Clear(5);
  EXPECT_FALSE(mask.Has(5));
  EXPECT_TRUE(mask.Has(9));
}

TEST(CpuMaskTest, OfBuildsFromList) {
  const CpuMask mask = CpuMask::Of({1, 4, 9});
  EXPECT_EQ(mask.Count(), 3);
  EXPECT_EQ(mask.ToCores(), (std::vector<numasim::CoreId>{1, 4, 9}));
}

TEST(CpuMaskTest, NodeCoresOfPaperMachine) {
  const numasim::Topology topo{numasim::MachineConfig{}};
  const CpuMask mask = CpuMask::NodeCores(topo, 1);
  EXPECT_EQ(mask.ToCores(), (std::vector<numasim::CoreId>{4, 5, 6, 7}));
}

TEST(CpuMaskTest, NodeCoresOfNonPowerOfTwoShape) {
  // 3 sockets x 6 cores: node boundaries at 6 and 12, nothing aligned to a
  // power of two.
  numasim::MachineConfig config;
  config.num_nodes = 3;
  config.cores_per_node = 6;
  const numasim::Topology topo{config};
  EXPECT_EQ(CpuMask::NodeCores(topo, 0).ToCores(),
            (std::vector<numasim::CoreId>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(CpuMask::NodeCores(topo, 2).ToCores(),
            (std::vector<numasim::CoreId>{12, 13, 14, 15, 16, 17}));
  // The three node masks partition the machine exactly.
  CpuMask all;
  for (int n = 0; n < 3; ++n) all = all.Union(CpuMask::NodeCores(topo, n));
  EXPECT_EQ(all, CpuMask::AllOf(topo));
  EXPECT_EQ(all.Count(), 18);
}

TEST(CpuMaskTest, NodeCoresPastTheFirstWord) {
  // 4 sockets x 32 cores = 128 cpus: nodes 2 and 3 live entirely beyond the
  // historical 64-bit word.
  numasim::MachineConfig config;
  config.num_nodes = 4;
  config.cores_per_node = 32;
  const numasim::Topology topo{config};
  EXPECT_EQ(CpuMask::AllOf(topo).Count(), 128);
  const CpuMask node2 = CpuMask::NodeCores(topo, 2);
  EXPECT_EQ(node2.Count(), 32);
  EXPECT_EQ(node2.First(), 64);
  EXPECT_TRUE(node2.Has(95));
  EXPECT_FALSE(node2.Has(63));
  EXPECT_FALSE(node2.Has(96));
  const CpuMask node3 = CpuMask::NodeCores(topo, 3);
  EXPECT_EQ(node3.ToCores().front(), 96);
  EXPECT_EQ(node3.ToCores().back(), 127);
  EXPECT_TRUE(node2.Intersect(node3).Empty());
}

TEST(CpuMaskTest, OfRoundTripsAcrossWordBoundary) {
  const CpuMask mask = CpuMask::Of({63, 64, 127});
  EXPECT_EQ(mask.Count(), 3);
  EXPECT_EQ(mask.ToCores(), (std::vector<numasim::CoreId>{63, 64, 127}));
  EXPECT_EQ(mask, CpuMask::FromCpuList(mask.ToCpuList()));
}

TEST(CpuMaskTest, IntersectAndUnion) {
  const CpuMask a = CpuMask::Of({0, 1, 2});
  const CpuMask b = CpuMask::Of({2, 3});
  EXPECT_EQ(a.Intersect(b).ToCores(), (std::vector<numasim::CoreId>{2}));
  EXPECT_EQ(a.Union(b).Count(), 4);
}

TEST(CpuMaskTest, SubsetChecks) {
  const CpuMask small = CpuMask::Of({1, 2});
  const CpuMask big = CpuMask::Of({0, 1, 2, 3});
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(CpuMask::None().IsSubsetOf(small));
}

TEST(CpuMaskTest, FirstOfEmptyIsInvalid) {
  EXPECT_EQ(CpuMask::None().First(), numasim::kInvalidCore);
  EXPECT_EQ(CpuMask::Of({7, 9}).First(), 7);
}

TEST(CpuMaskTest, ToStringIsReadable) {
  EXPECT_EQ(CpuMask::Of({0, 3}).ToString(), "{0,3}");
  EXPECT_EQ(CpuMask::None().ToString(), "{}");
}

TEST(CpuMaskTest, EqualityOperators) {
  EXPECT_EQ(CpuMask::Of({1, 2}), CpuMask::Of({2, 1}));
  EXPECT_NE(CpuMask::Of({1}), CpuMask::Of({2}));
}

}  // namespace
}  // namespace elastic::platform
