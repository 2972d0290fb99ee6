// bench/arbiter_scale's zero_floor_violations verdict is only as good as
// CountViolations: a healthy round counts nothing, and each kind of broken
// holding counts.

#include "bench/arbiter_scale.h"

#include <gtest/gtest.h>

namespace elastic::bench {
namespace {

using platform::CpuMask;

Holding Held(CpuMask mask, int floor_cores = 1, bool active = true) {
  Holding holding;
  holding.mask = mask;
  holding.floor_cores = floor_cores;
  holding.active = active;
  return holding;
}

TEST(ArbiterScaleCheckTest, DisjointTenantsAtTheirFloorsCountNothing) {
  EXPECT_EQ(CountViolations({Held(CpuMask::Of({0, 1}), 2), Held(CpuMask::Of({2})),
                             Held(CpuMask::Of({3, 4, 5}))}),
            0);
}

TEST(ArbiterScaleCheckTest, OverlappingPairCountsBothTenants) {
  EXPECT_EQ(CountViolations({Held(CpuMask::Of({0, 1})), Held(CpuMask::Of({2})),
                             Held(CpuMask::Of({1, 3}))}),
            2);
}

TEST(ArbiterScaleCheckTest, TenantBelowItsFloorCounts) {
  EXPECT_EQ(CountViolations({Held(CpuMask::Of({0}), 2), Held(CpuMask::Of({1}))}),
            1);
  EXPECT_EQ(CountViolations({Held(CpuMask::None())}), 1);
}

TEST(ArbiterScaleCheckTest, EachTenantCountsOnce) {
  // Below its floor and overlapping: still one violation for that tenant.
  EXPECT_EQ(CountViolations({Held(CpuMask::Of({0}), 2), Held(CpuMask::Of({0, 1}))}),
            2);
}

TEST(ArbiterScaleCheckTest, DetachedTenantsAreIgnored) {
  EXPECT_EQ(CountViolations({Held(CpuMask::Of({0, 1})),
                             Held(CpuMask::Of({1}), 1, /*active=*/false),
                             Held(CpuMask::None(), 1, /*active=*/false)}),
            0);
}

}  // namespace
}  // namespace elastic::bench
