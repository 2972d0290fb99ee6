#include "numasim/topology.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace elastic::numasim {
namespace {

Topology DefaultTopo() { return Topology(MachineConfig{}); }

TEST(TopologyTest, DefaultIsPaperMachine) {
  const Topology topo = DefaultTopo();
  EXPECT_EQ(topo.num_nodes(), 4);
  EXPECT_EQ(topo.total_cores(), 16);
}

TEST(TopologyTest, CoreToNodeMapping) {
  const Topology topo = DefaultTopo();
  EXPECT_EQ(topo.NodeOfCore(0), 0);
  EXPECT_EQ(topo.NodeOfCore(3), 0);
  EXPECT_EQ(topo.NodeOfCore(4), 1);
  EXPECT_EQ(topo.NodeOfCore(15), 3);
}

TEST(TopologyTest, CoreAtMatchesPaperFormula) {
  const Topology topo = DefaultTopo();
  // core(i, j) = d*i + j with d = 4.
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(topo.CoreAt(i, j), 4 * i + j);
    }
  }
}

TEST(TopologyTest, CoresOfNodeAreContiguous) {
  const Topology topo = DefaultTopo();
  const std::vector<CoreId> cores = topo.CoresOfNode(2);
  ASSERT_EQ(cores.size(), 4u);
  EXPECT_EQ(cores.front(), 8);
  EXPECT_EQ(cores.back(), 11);
}

TEST(TopologyTest, SquareTopologyHops) {
  const Topology topo = DefaultTopo();
  // Square: S0-S1, S0-S2, S1-S3, S2-S3; diagonals are two hops.
  EXPECT_EQ(topo.Hops(0, 0), 0);
  EXPECT_EQ(topo.Hops(0, 1), 1);
  EXPECT_EQ(topo.Hops(0, 2), 1);
  EXPECT_EQ(topo.Hops(0, 3), 2);
  EXPECT_EQ(topo.Hops(1, 2), 2);
  EXPECT_EQ(topo.Hops(3, 0), 2);
}

TEST(TopologyTest, HopsAreSymmetric) {
  const Topology topo = DefaultTopo();
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(topo.Hops(a, b), topo.Hops(b, a));
    }
  }
}

/// The route tests run on the paper's square and on a 256-node ring (the
/// synthetic many-core machine of the control-plane benches).
class TopologyRouteTest : public ::testing::TestWithParam<int> {
 protected:
  static Topology Make(int num_nodes) {
    MachineConfig config;
    config.num_nodes = num_nodes;
    return Topology(config);
  }
};

TEST_P(TopologyRouteTest, RouteLengthEqualsHops) {
  const Topology topo = Make(GetParam());
  for (int a = 0; a < topo.num_nodes(); ++a) {
    for (int b = 0; b < topo.num_nodes(); ++b) {
      ASSERT_EQ(static_cast<int>(topo.Route(a, b).size()), topo.Hops(a, b))
          << a << " <- " << b;
    }
  }
}

TEST_P(TopologyRouteTest, RouteLinksFormAPath) {
  const Topology topo = Make(GetParam());
  // Route(a, b) fetches from b into a: its links chain from b to a.
  for (int a = 0; a < topo.num_nodes(); ++a) {
    for (int b = 0; b < topo.num_nodes(); ++b) {
      const std::vector<int>& route = topo.Route(a, b);
      NodeId at = b;
      for (const int link : route) {
        ASSERT_EQ(topo.links()[static_cast<size_t>(link)].src, at)
            << a << " <- " << b;
        at = topo.links()[static_cast<size_t>(link)].dst;
      }
      ASSERT_EQ(at, a) << a << " <- " << b;
    }
  }
}

TEST_P(TopologyRouteTest, LinksAreNumberedRowMajor) {
  const Topology topo = Make(GetParam());
  for (size_t i = 1; i < topo.links().size(); ++i) {
    const Topology::Link& prev = topo.links()[i - 1];
    const Topology::Link& link = topo.links()[i];
    EXPECT_TRUE(prev.src < link.src ||
                (prev.src == link.src && prev.dst < link.dst))
        << "link " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, TopologyRouteTest,
                         ::testing::Values(4, 256),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 4 ? std::string("square")
                                                  : std::string("ring256");
                         });

TEST(TopologyTest, DiagonalRouteTraversesTwoLinks) {
  const Topology topo = DefaultTopo();
  // The diagonal route S3 -> S0 must traverse two adjacent links.
  const std::vector<int>& route = topo.Route(0, 3);  // fetch from 3 into 0
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(topo.links()[route[0]].src, 3);
  EXPECT_EQ(topo.links()[route[1]].dst, 0);
}

TEST(TopologyTest, RingOf256HasTwoLinksPerNodeAndWrapsAround) {
  MachineConfig config;
  config.num_nodes = 256;
  const Topology topo(config);
  EXPECT_EQ(topo.num_links(), 512);
  EXPECT_EQ(topo.Hops(0, 255), 1);
  EXPECT_EQ(topo.Hops(0, 128), 128);
}

TEST(TopologyTest, EightDirectedLinksOnPaperMachine) {
  const Topology topo = DefaultTopo();
  EXPECT_EQ(topo.num_links(), 8);
}

TEST(TopologyTest, TwoNodeMachineWorks) {
  MachineConfig config;
  config.num_nodes = 2;
  config.cores_per_node = 2;
  const Topology topo(config);
  EXPECT_EQ(topo.total_cores(), 4);
  EXPECT_EQ(topo.Hops(0, 1), 1);
}

}  // namespace
}  // namespace elastic::numasim
