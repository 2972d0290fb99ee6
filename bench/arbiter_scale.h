#ifndef ELASTICORE_BENCH_ARBITER_SCALE_H_
#define ELASTICORE_BENCH_ARBITER_SCALE_H_

// The acceptance check of bench/arbiter_scale, kept apart from the bench so
// tests/bench/arbiter_scale_test.cc can feed it holdings no healthy arbiter
// produces and see each one count.

#include <vector>

#include "platform/cpu_mask.h"

namespace elastic::bench {

/// One tenant's cores after an arbitration round.
struct Holding {
  platform::CpuMask mask;
  /// ArbiterTenantConfig::floor_cores() of the tenant.
  int floor_cores = 1;
  /// False once detached: a detached tenant holds nothing and owes nothing.
  bool active = true;
};

/// Active tenants that hold fewer cores than their floor or share a core
/// with another active tenant. Each tenant counts at most once.
inline int CountViolations(const std::vector<Holding>& holdings) {
  platform::CpuMask seen;
  platform::CpuMask shared;
  for (const Holding& holding : holdings) {
    if (!holding.active) continue;
    shared = shared.Union(seen.Intersect(holding.mask));
    seen = seen.Union(holding.mask);
  }
  int violations = 0;
  for (const Holding& holding : holdings) {
    if (!holding.active) continue;
    if (holding.mask.Count() < holding.floor_cores ||
        !holding.mask.Intersect(shared).Empty()) {
      violations++;
    }
  }
  return violations;
}

}  // namespace elastic::bench

#endif  // ELASTICORE_BENCH_ARBITER_SCALE_H_
