#ifndef ELASTICORE_MEM_SIM_PLACEMENT_H_
#define ELASTICORE_MEM_SIM_PLACEMENT_H_

// Realizes a mem::Policy on a numasim buffer by homing its pages in the
// PageTable, so every subsequent MemorySystem::Access charges the true
// local/remote/congestion cost.

#include "mem/policy.h"
#include "numasim/page_table.h"
#include "numasim/topology.h"

namespace elastic::mem {

/// Homes `buffer`'s pages under `policy`:
///  - kLocalFirstTouch: no-op; pages home on the first touching core.
///  - kInterleave: page-granular round-robin across `num_nodes`.
///  - kIslandBound: every page on `island` (falls back to interleave when
///    the island is invalid for the topology).
void ApplyPlacement(numasim::PageTable* pages, numasim::BufferId buffer,
                    Policy policy, numasim::NodeId island);

}  // namespace elastic::mem

#endif  // ELASTICORE_MEM_SIM_PLACEMENT_H_
