#include "numasim/topology.h"

#include <algorithm>

#include "simcore/check.h"

namespace elastic::numasim {

Topology::Topology(const MachineConfig& config) : config_(config) {
  ELASTIC_CHECK(config_.num_nodes >= 1, "machine needs at least one node");
  ELASTIC_CHECK(config_.cores_per_node >= 1, "node needs at least one core");
  BuildLinks();
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

RouteTable::RouteTable(const Topology& topology)
    : num_nodes_(topology.num_nodes()) {
  const int n = num_nodes_;
  const std::vector<Topology::Link>& links = topology.links();
  // The links leaving node v are links[first_out[v], first_out[v + 1]),
  // ascending by destination.
  std::vector<int> first_out(static_cast<size_t>(n) + 1, 0);
  for (const Topology::Link& link : links) first_out[link.src + 1]++;
  for (int v = 0; v < n; ++v) first_out[v + 1] += first_out[v];

  offsets_.reserve(static_cast<size_t>(n) * n + 1);
  offsets_.push_back(0);
  std::vector<int> parent(static_cast<size_t>(n));
  std::vector<int> queue;
  queue.reserve(static_cast<size_t>(n));
  for (int from = 0; from < n; ++from) {
    // Breadth-first search gives shortest paths; each node's neighbours are
    // visited in ascending order, so ties break towards the lowest-numbered
    // neighbour and routing is deterministic.
    std::fill(parent.begin(), parent.end(), -1);
    parent[from] = from;
    queue.assign(1, from);
    for (size_t head = 0; head < queue.size(); ++head) {
      const int cur = queue[head];
      for (int l = first_out[cur]; l < first_out[cur + 1]; ++l) {
        const int next = links[static_cast<size_t>(l)].dst;
        if (parent[next] >= 0) continue;
        parent[next] = cur;
        queue.push_back(next);
      }
    }
    ELASTIC_CHECK(static_cast<int>(queue.size()) == n,
                  "link graph must be connected");
    // Data flows from `to`'s home towards the requester: record the links
    // of the path from `to` back up to `from`.
    for (int to = 0; to < n; ++to) {
      for (int cur = to; cur != from; cur = parent[cur]) {
        links_.push_back(topology.LinkIndex(cur, parent[cur]));
      }
      offsets_.push_back(static_cast<int>(links_.size()));
    }
  }
}

}  // namespace elastic::numasim
