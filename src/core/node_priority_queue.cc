#include "core/node_priority_queue.h"

#include <algorithm>
#include <numeric>

#include "simcore/check.h"

namespace elastic::core {

NodePriorityQueue::NodePriorityQueue(int num_nodes, double decay)
    : scores_(static_cast<size_t>(num_nodes), 0.0), decay_(decay) {
  ELASTIC_CHECK(num_nodes >= 1, "queue needs at least one node");
  ELASTIC_CHECK(decay >= 0.0 && decay < 1.0, "decay must be in [0,1)");
}

void NodePriorityQueue::Update(const std::vector<int64_t>& pages_per_node) {
  ELASTIC_CHECK(pages_per_node.size() == scores_.size(),
                "node count mismatch in priority update");
  for (size_t n = 0; n < scores_.size(); ++n) {
    scores_[n] = decay_ * scores_[n] + static_cast<double>(pages_per_node[n]);
  }
}

double NodePriorityQueue::Score(numasim::NodeId node) const {
  ELASTIC_CHECK(node >= 0 && node < num_nodes(), "node id out of range");
  return scores_[static_cast<size_t>(node)];
}

std::vector<numasim::NodeId> NodePriorityQueue::ByPriorityDescending() const {
  std::vector<numasim::NodeId> order(scores_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [this](numasim::NodeId a, numasim::NodeId b) {
                     if (scores_[a] != scores_[b]) return scores_[a] > scores_[b];
                     return a < b;
                   });
  return order;
}

numasim::NodeId NodePriorityQueue::Top() const { return ByPriorityDescending().front(); }

numasim::NodeId NodePriorityQueue::Bottom() const { return ByPriorityDescending().back(); }

}  // namespace elastic::core
