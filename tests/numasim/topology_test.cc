#include "numasim/topology.h"

#include <gtest/gtest.h>

#include <queue>
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
  const RouteTable routes(topo);
  // Square: S0-S1, S0-S2, S1-S3, S2-S3; diagonals are two hops.
  EXPECT_EQ(routes.Hops(0, 0), 0);
  EXPECT_EQ(routes.Hops(0, 1), 1);
  EXPECT_EQ(routes.Hops(0, 2), 1);
  EXPECT_EQ(routes.Hops(0, 3), 2);
  EXPECT_EQ(routes.Hops(1, 2), 2);
  EXPECT_EQ(routes.Hops(3, 0), 2);
}

TEST(TopologyTest, HopsAreSymmetric) {
  const RouteTable routes(DefaultTopo());
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(routes.Hops(a, b), routes.Hops(b, a));
    }
  }
}

/// Every route and hop count as the topology built them before the table
/// moved into its own flat form: a breadth-first search per source that
/// tests all n nodes for adjacency to each dequeued node, and one vector per
/// pair holding the links from `to` back to `from`.
struct ReferenceRoutes {
  std::vector<std::vector<int>> hops;
  std::vector<std::vector<int>> routes;  // [from * n + to]
};

ReferenceRoutes ReferenceRoutesOf(const Topology& topo) {
  const int n = topo.num_nodes();
  std::vector<int> link_index(static_cast<size_t>(n) * n, -1);
  for (size_t l = 0; l < topo.links().size(); ++l) {
    const Topology::Link& link = topo.links()[l];
    link_index[static_cast<size_t>(link.src) * n + link.dst] =
        static_cast<int>(l);
  }
  ReferenceRoutes ref;
  ref.hops.assign(n, std::vector<int>(n, 0));
  ref.routes.assign(static_cast<size_t>(n) * n, {});
  for (int from = 0; from < n; ++from) {
    std::vector<int> parent(n, -1);
    std::vector<int> dist(n, -1);
    std::queue<int> queue;
    queue.push(from);
    dist[from] = 0;
    while (!queue.empty()) {
      const int cur = queue.front();
      queue.pop();
      for (int next = 0; next < n; ++next) {
        if (link_index[static_cast<size_t>(cur) * n + next] >= 0 &&
            dist[next] < 0) {
          dist[next] = dist[cur] + 1;
          parent[next] = cur;
          queue.push(next);
        }
      }
    }
    for (int to = 0; to < n; ++to) {
      ref.hops[from][to] = dist[to];
      if (to == from) continue;
      std::vector<int> path_nodes;
      for (int cur = to; cur != -1; cur = parent[cur]) {
        path_nodes.push_back(cur);
      }
      std::vector<int>& route = ref.routes[static_cast<size_t>(from) * n + to];
      for (size_t k = 0; k + 1 < path_nodes.size(); ++k) {
        route.push_back(link_index[static_cast<size_t>(path_nodes[k]) * n +
                                   path_nodes[k + 1]]);
      }
    }
  }
  return ref;
}

TEST(TopologyTest, RouteTableMatchesReferenceOnSquareAndRings) {
  for (int nodes = 1; nodes <= 64; ++nodes) {
    MachineConfig config;
    config.num_nodes = nodes;  // 4 is the paper's square, the rest rings
    const Topology topo(config);
    const RouteTable routes(topo);
    const ReferenceRoutes ref = ReferenceRoutesOf(topo);
    for (int from = 0; from < nodes; ++from) {
      for (int to = 0; to < nodes; ++to) {
        ASSERT_EQ(routes.Hops(from, to), ref.hops[from][to])
            << nodes << " nodes, " << from << " <- " << to;
        const RouteTable::LinkSpan route = routes.Route(from, to);
        ASSERT_EQ(std::vector<int>(route.begin(), route.end()),
                  ref.routes[static_cast<size_t>(from) * nodes + to])
            << nodes << " nodes, " << from << " <- " << to;
      }
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
  const RouteTable routes(topo);
  for (int a = 0; a < topo.num_nodes(); ++a) {
    for (int b = 0; b < topo.num_nodes(); ++b) {
      ASSERT_EQ(static_cast<int>(routes.Route(a, b).size()), routes.Hops(a, b))
          << a << " <- " << b;
    }
  }
}

TEST_P(TopologyRouteTest, RouteLinksFormAPath) {
  const Topology topo = Make(GetParam());
  const RouteTable routes(topo);
  // Route(a, b) fetches from b into a: its links chain from b to a.
  for (int a = 0; a < topo.num_nodes(); ++a) {
    for (int b = 0; b < topo.num_nodes(); ++b) {
      const RouteTable::LinkSpan route = routes.Route(a, b);
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
  const RouteTable routes(topo);
  // The diagonal route S3 -> S0 must traverse two adjacent links.
  const RouteTable::LinkSpan route = routes.Route(0, 3);  // from 3 into 0
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(topo.links()[route.begin()[0]].src, 3);
  EXPECT_EQ(topo.links()[route.begin()[1]].dst, 0);
}

TEST(TopologyTest, RingOf256HasTwoLinksPerNodeAndWrapsAround) {
  MachineConfig config;
  config.num_nodes = 256;
  const Topology topo(config);
  EXPECT_EQ(topo.num_links(), 512);
  const RouteTable routes(topo);
  EXPECT_EQ(routes.Hops(0, 255), 1);
  EXPECT_EQ(routes.Hops(0, 128), 128);
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
  EXPECT_EQ(RouteTable(topo).Hops(0, 1), 1);
}

}  // namespace
}  // namespace elastic::numasim
