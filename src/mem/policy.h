#ifndef ELASTICORE_MEM_POLICY_H_
#define ELASTICORE_MEM_POLICY_H_

// Memory-placement policies for engine-owned simulated buffers, realized
// as numasim::PageTable node placement by mem::ApplyPlacement.
//
//  - local_first_touch: leave placement to the OS / simulator first-touch
//    rule — pages land on the node of the core that first writes them.
//  - interleave: round-robin pages across nodes, trading peak locality for
//    insensitivity to where the tenant's cores end up.
//  - island_bound: pin every page to one "island" (socket), modelling data
//    that was loaded on a specific socket before the arbiter ever ran.

#include <string>

#include "simcore/check.h"

namespace elastic::mem {

enum class Policy {
  kLocalFirstTouch,
  kInterleave,
  kIslandBound,
};

inline const char* PolicyName(Policy policy) {
  switch (policy) {
    case Policy::kLocalFirstTouch:
      return "local_first_touch";
    case Policy::kInterleave:
      return "interleave";
    case Policy::kIslandBound:
      return "island_bound";
  }
  return "unknown";
}

inline Policy PolicyFromName(const std::string& name) {
  if (name == "local_first_touch") return Policy::kLocalFirstTouch;
  if (name == "interleave") return Policy::kInterleave;
  if (name == "island_bound") return Policy::kIslandBound;
  ELASTIC_CHECK(false, "unknown memory policy name");
  return Policy::kLocalFirstTouch;
}

}  // namespace elastic::mem

#endif  // ELASTICORE_MEM_POLICY_H_
