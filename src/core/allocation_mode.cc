#include "core/allocation_mode.h"

#include "simcore/check.h"

namespace elastic::core {

namespace {

/// First core of `order` not yet in the mask.
numasim::CoreId FirstNotIn(const std::vector<numasim::CoreId>& order,
                           const platform::CpuMask& mask) {
  for (numasim::CoreId core : order) {
    if (!mask.Has(core)) return core;
  }
  return numasim::kInvalidCore;
}

/// Last core of `order` that is in the mask (LIFO release keeps the masks of
/// the static modes contiguous in allocation order).
numasim::CoreId LastIn(const std::vector<numasim::CoreId>& order,
                       const platform::CpuMask& mask) {
  if (mask.Count() <= 1) return numasim::kInvalidCore;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (mask.Has(*it)) return *it;
  }
  return numasim::kInvalidCore;
}

}  // namespace

numasim::CoreId AllocationMode::NextToAllocate(const platform::CpuMask& taken) {
  (void)taken;
  return numasim::kInvalidCore;
}

void AllocationMode::Observe(const perf::WindowStats& window) { (void)window; }

SparseMode::SparseMode(const numasim::Topology* topology) {
  const int d = topology->config().cores_per_node;
  const int n = topology->num_nodes();
  // j outer, i inner: one core at a time on a different node.
  for (int j = 0; j < d; ++j) {
    for (int i = 0; i < n; ++i) {
      order_.push_back(topology->CoreAt(i, j));
    }
  }
}

numasim::CoreId SparseMode::NextToAllocate(const platform::CpuMask& taken) {
  return FirstNotIn(order_, taken);
}

numasim::CoreId SparseMode::NextToRelease(const platform::CpuMask& current) {
  return LastIn(order_, current);
}

DenseMode::DenseMode(const numasim::Topology* topology) {
  const int d = topology->config().cores_per_node;
  const int n = topology->num_nodes();
  // i outer, j inner: fill a node before moving on.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) {
      order_.push_back(topology->CoreAt(i, j));
    }
  }
}

numasim::CoreId DenseMode::NextToRelease(const platform::CpuMask& current) {
  return LastIn(order_, current);
}

AdaptivePriorityMode::AdaptivePriorityMode(const numasim::Topology* topology,
                                           double decay)
    : topology_(topology), queue_(topology->num_nodes(), decay) {}

void AdaptivePriorityMode::Observe(const perf::WindowStats& window) {
  pages_.resize(static_cast<size_t>(window.num_nodes()));
  for (int node = 0; node < window.num_nodes(); ++node) {
    pages_[static_cast<size_t>(node)] = window.node_access_pages(node);
  }
  queue_.Update(pages_);
}

numasim::CoreId AdaptivePriorityMode::NextToAllocate(const platform::CpuMask& taken) {
  // No page access observed yet (or none reported: /proc/stat has no
  // per-node traffic) means no working set to follow, so the arbiter's
  // handout picks.
  bool observed = false;
  for (numasim::NodeId node = 0; node < queue_.num_nodes(); ++node) {
    observed = observed || queue_.Score(node) > 0.0;
  }
  if (!observed) return numasim::kInvalidCore;
  // Highest-priority node that still has a free core; inside a node, lowest
  // core id first.
  for (numasim::NodeId node : queue_.ByPriorityDescending()) {
    for (numasim::CoreId core : topology_->CoresOfNode(node)) {
      if (!taken.Has(core)) return core;
    }
  }
  return numasim::kInvalidCore;
}

numasim::CoreId AdaptivePriorityMode::NextToRelease(const platform::CpuMask& current) {
  if (current.Count() <= 1) return numasim::kInvalidCore;
  // Lowest-priority node that has an allocated core; release the highest
  // core id there (mirror of allocation order).
  const std::vector<numasim::NodeId> order = queue_.ByPriorityDescending();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::vector<numasim::CoreId> cores = topology_->CoresOfNode(*it);
    for (auto c = cores.rbegin(); c != cores.rend(); ++c) {
      if (current.Has(*c)) return *c;
    }
  }
  return numasim::kInvalidCore;
}

std::unique_ptr<AllocationMode> MakeMode(const std::string& name,
                                         const numasim::Topology* topology) {
  if (name == "sparse") return std::make_unique<SparseMode>(topology);
  if (name == "dense") return std::make_unique<DenseMode>(topology);
  if (name == "adaptive") return std::make_unique<AdaptivePriorityMode>(topology);
  ELASTIC_CHECK(false, "unknown allocation mode name");
  return nullptr;
}

}  // namespace elastic::core
