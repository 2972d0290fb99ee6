#ifndef ELASTICORE_CORE_NODE_PRIORITY_QUEUE_H_
#define ELASTICORE_CORE_NODE_PRIORITY_QUEUE_H_

#include <cstdint>
#include <vector>

#include "numasim/topology.h"

namespace elastic::core {

/// Priority queue over NUMA nodes keyed by the amount of memory the database
/// threads use on each node (Section IV-B-2 of the paper).
///
/// The node with the largest score has top priority (next core allocation
/// goes there); the node with the smallest score has bottom priority (next
/// release comes from there). Scores are updated from monitoring windows
/// with exponential decay, implementing the paper's "history of the memory
/// address space used by database threads".
class NodePriorityQueue {
 public:
  /// `decay` in [0,1): fraction of the previous score kept per update.
  explicit NodePriorityQueue(int num_nodes, double decay = 0.5);

  int num_nodes() const { return static_cast<int>(scores_.size()); }

  /// Folds one monitoring window's per-node page-access counts into the
  /// scores: score = decay * score + pages[n].
  void Update(const std::vector<int64_t>& pages_per_node);

  double Score(numasim::NodeId node) const;

  /// Nodes in descending score order; ties break towards the lower node id
  /// so behaviour is deterministic.
  std::vector<numasim::NodeId> ByPriorityDescending() const;

  /// Highest-priority node (most pages).
  numasim::NodeId Top() const;

  /// Lowest-priority node (fewest pages).
  numasim::NodeId Bottom() const;

 private:
  std::vector<double> scores_;
  double decay_;
};

}  // namespace elastic::core

#endif  // ELASTICORE_CORE_NODE_PRIORITY_QUEUE_H_
