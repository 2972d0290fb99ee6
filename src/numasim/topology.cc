#include "numasim/topology.h"

#include <queue>

#include "simcore/check.h"

namespace elastic::numasim {

Topology::Topology(const MachineConfig& config) : config_(config) {
  ELASTIC_CHECK(config_.num_nodes >= 1, "machine needs at least one node");
  ELASTIC_CHECK(config_.cores_per_node >= 1, "node needs at least one core");
  BuildLinks();
  BuildRoutes();
}

NodeId Topology::NodeOfCore(CoreId core) const {
  ELASTIC_CHECK(core >= 0 && core < total_cores(), "core id out of range");
  return core / config_.cores_per_node;
}

std::vector<CoreId> Topology::CoresOfNode(NodeId node) const {
  ELASTIC_CHECK(node >= 0 && node < num_nodes(), "node id out of range");
  std::vector<CoreId> cores;
  cores.reserve(config_.cores_per_node);
  for (int j = 0; j < config_.cores_per_node; ++j) {
    cores.push_back(CoreAt(node, j));
  }
  return cores;
}

CoreId Topology::CoreAt(NodeId node, int j) const {
  ELASTIC_CHECK(node >= 0 && node < num_nodes(), "node id out of range");
  ELASTIC_CHECK(j >= 0 && j < config_.cores_per_node, "core index out of range");
  return config_.cores_per_node * node + j;
}

int Topology::Hops(NodeId from, NodeId to) const {
  ELASTIC_CHECK(from >= 0 && from < num_nodes(), "node id out of range");
  ELASTIC_CHECK(to >= 0 && to < num_nodes(), "node id out of range");
  return hops_[from][to];
}

const std::vector<int>& Topology::Route(NodeId from, NodeId to) const {
  ELASTIC_CHECK(from >= 0 && from < num_nodes(), "node id out of range");
  ELASTIC_CHECK(to >= 0 && to < num_nodes(), "node id out of range");
  return routes_[from * num_nodes() + to];
}

void Topology::BuildLinks() {
  const int n = num_nodes();
  link_index_.assign(static_cast<size_t>(n) * n, -1);
  // Mark adjacent pairs first; indices are assigned below in row-major
  // order, so link i is the i-th adjacent (src, dst) pair.
  const auto connect = [this, n](int a, int b) {
    link_index_[static_cast<size_t>(a) * n + b] = 0;
    link_index_[static_cast<size_t>(b) * n + a] = 0;
  };
  if (n == 4) {
    // The paper's square: S0-S1, S0-S2, S1-S3, S2-S3 (Figure 2); the
    // diagonals are not directly connected.
    const int pairs[4][2] = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
    for (const auto& p : pairs) connect(p[0], p[1]);
  } else {
    // Generic machines: ring topology keeps the remote/local asymmetry.
    for (int i = 0; i < n; ++i) {
      const int next = (i + 1) % n;
      if (next != i) connect(i, next);
    }
  }
  links_.clear();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      int& index = link_index_[static_cast<size_t>(i) * n + j];
      if (index < 0) continue;
      index = static_cast<int>(links_.size());
      links_.push_back(Link{i, j});
    }
  }
}

int Topology::LinkIndex(NodeId src, NodeId dst) const {
  const int index = link_index_[static_cast<size_t>(src) * num_nodes() + dst];
  ELASTIC_CHECK(index >= 0, "no direct link between nodes");
  return index;
}

void Topology::BuildRoutes() {
  const int n = num_nodes();
  hops_.assign(n, std::vector<int>(n, 0));
  routes_.assign(n * n, {});
  for (int from = 0; from < n; ++from) {
    // Breadth-first search gives shortest paths; ties are broken towards the
    // lowest-numbered neighbour, which makes routing deterministic.
    std::vector<int> parent(n, -1);
    std::vector<int> dist(n, -1);
    std::queue<int> queue;
    queue.push(from);
    dist[from] = 0;
    while (!queue.empty()) {
      const int cur = queue.front();
      queue.pop();
      for (int next = 0; next < n; ++next) {
        if (link_index_[static_cast<size_t>(cur) * n + next] >= 0 &&
            dist[next] < 0) {
          dist[next] = dist[cur] + 1;
          parent[next] = cur;
          queue.push(next);
        }
      }
    }
    for (int to = 0; to < n; ++to) {
      ELASTIC_CHECK(dist[to] >= 0, "link graph must be connected");
      hops_[from][to] = dist[to];
      if (to == from) continue;
      // Reconstruct the path and record directed links from `to`'s home
      // towards the requester (data flows dst -> src of the request).
      std::vector<int> path_nodes;
      for (int cur = to; cur != -1; cur = parent[cur]) path_nodes.push_back(cur);
      // path_nodes = to ... from
      std::vector<int>& route = routes_[from * n + to];
      for (size_t k = 0; k + 1 < path_nodes.size(); ++k) {
        route.push_back(LinkIndex(path_nodes[k], path_nodes[k + 1]));
      }
    }
  }
}

}  // namespace elastic::numasim
