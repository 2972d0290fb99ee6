#ifndef ELASTICORE_CORE_ALLOCATION_MODE_H_
#define ELASTICORE_CORE_ALLOCATION_MODE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/node_priority_queue.h"
#include "numasim/topology.h"
#include "platform/cpu_mask.h"
#include "perf/sampler.h"

namespace elastic::core {

/// Strategy that decides *where* the next core is allocated or released
/// (Section IV-B). The elastic mechanism decides *when*.
class AllocationMode {
 public:
  virtual ~AllocationMode() = default;

  virtual const std::string& name() const = 0;

  /// Next core to hand to the OS. `taken` holds every core the mode may
  /// not pick: the tenant's own and the other tenants' of its CoreArbiter.
  /// Returns kInvalidCore when every core is taken, and always for a mode
  /// with no grow order of its own, which leaves the pick to the arbiter's
  /// NUMA-aware handout.
  virtual numasim::CoreId NextToAllocate(const platform::CpuMask& taken);

  /// Core to take back from the OS. Returns kInvalidCore when the mask
  /// holds at most one core (the mechanism never empties the cpuset).
  virtual numasim::CoreId NextToRelease(const platform::CpuMask& current) = 0;

  /// Feeds one monitoring window to the mode (the adaptive mode tracks the
  /// per-node memory usage history here; static modes ignore it).
  virtual void Observe(const perf::WindowStats& window);
};

/// Sparse mode: iterates over (i, j) allocating one core at a time on a
/// *different* NUMA node — core(i, j) = d*i + j walking i fastest.
/// Allocation order on the 4x4 machine: 0, 4, 8, 12, 1, 5, 9, 13, ...
class SparseMode : public AllocationMode {
 public:
  explicit SparseMode(const numasim::Topology* topology);
  const std::string& name() const override { return name_; }
  numasim::CoreId NextToAllocate(const platform::CpuMask& taken) override;
  numasim::CoreId NextToRelease(const platform::CpuMask& current) override;

 private:
  std::string name_ = "sparse";
  std::vector<numasim::CoreId> order_;
};

/// Dense mode: fills a NUMA node completely before moving to the next. It
/// keeps no grow order of its own: the arbiter's handout (PickCoreFor)
/// clusters grows on the node where the tenant holds the most cores, which
/// for a lone tenant is the order 0, 1, 2, 3, 4, 5, ..., and carries the
/// island-affinity score. Releases walk that order backwards.
class DenseMode : public AllocationMode {
 public:
  explicit DenseMode(const numasim::Topology* topology);
  const std::string& name() const override { return name_; }
  numasim::CoreId NextToRelease(const platform::CpuMask& current) override;

 private:
  std::string name_ = "dense";
  std::vector<numasim::CoreId> order_;
};

/// Adaptive priority mode (Section IV-B-2): a priority queue tracks how much
/// memory the database working set holds on each node. Cores are allocated
/// on the node with the most pages (top priority) and released from the node
/// with the fewest (bottom priority). Until a window shows any page access
/// there is no working set to follow, and grows go to the arbiter's handout.
class AdaptivePriorityMode : public AllocationMode {
 public:
  AdaptivePriorityMode(const numasim::Topology* topology, double decay = 0.5);
  const std::string& name() const override { return name_; }
  numasim::CoreId NextToAllocate(const platform::CpuMask& taken) override;
  numasim::CoreId NextToRelease(const platform::CpuMask& current) override;
  void Observe(const perf::WindowStats& window) override;

  const NodePriorityQueue& queue() const { return queue_; }

 private:
  std::string name_ = "adaptive";
  const numasim::Topology* topology_;
  NodePriorityQueue queue_;
  /// One window's per-node page accesses, reused across rounds.
  std::vector<int64_t> pages_;
};

/// Factory helpers for the three modes of the paper.
std::unique_ptr<AllocationMode> MakeMode(const std::string& name,
                                         const numasim::Topology* topology);

}  // namespace elastic::core

#endif  // ELASTICORE_CORE_ALLOCATION_MODE_H_
