#include "mem/sim_placement.h"

#include <gtest/gtest.h>

#include "mem/policy.h"
#include "numasim/page_table.h"

namespace elastic::mem {
namespace {

TEST(PolicyTest, NamesRoundTrip) {
  for (const Policy policy :
       {Policy::kLocalFirstTouch, Policy::kInterleave, Policy::kIslandBound}) {
    EXPECT_EQ(PolicyFromName(PolicyName(policy)), policy);
  }
}

TEST(SimPlacementTest, IslandBoundPinsEveryPage) {
  numasim::PageTable pages(2);
  const numasim::BufferId buffer = pages.CreateBuffer(64, "t");
  ApplyPlacement(&pages, buffer, Policy::kIslandBound, /*island=*/1);
  EXPECT_EQ(pages.ResidentPagesOfBuffer(buffer, 0), 0);
  EXPECT_EQ(pages.ResidentPagesOfBuffer(buffer, 1), 64);
}

TEST(SimPlacementTest, InterleaveRoundRobinsPages) {
  numasim::PageTable pages(2);
  const numasim::BufferId buffer = pages.CreateBuffer(64, "t");
  ApplyPlacement(&pages, buffer, Policy::kInterleave,
                 /*island=*/numasim::kInvalidNode);
  EXPECT_EQ(pages.ResidentPagesOfBuffer(buffer, 0), 32);
  EXPECT_EQ(pages.ResidentPagesOfBuffer(buffer, 1), 32);
}

TEST(SimPlacementTest, LocalFirstTouchLeavesPagesUnhomed) {
  numasim::PageTable pages(2);
  const numasim::BufferId buffer = pages.CreateBuffer(64, "t");
  ApplyPlacement(&pages, buffer, Policy::kLocalFirstTouch,
                 /*island=*/numasim::kInvalidNode);
  EXPECT_EQ(pages.ResidentPagesOfBuffer(buffer, 0), 0);
  EXPECT_EQ(pages.ResidentPagesOfBuffer(buffer, 1), 0);
}

TEST(SimPlacementTest, InvalidIslandFallsBackToSpread) {
  // An island outside the machine cannot be honoured; spreading beats
  // silently first-touching everything onto whatever node asks first.
  numasim::PageTable pages(2);
  const numasim::BufferId buffer = pages.CreateBuffer(64, "t");
  ApplyPlacement(&pages, buffer, Policy::kIslandBound, /*island=*/5);
  EXPECT_EQ(pages.ResidentPagesOfBuffer(buffer, 0), 32);
  EXPECT_EQ(pages.ResidentPagesOfBuffer(buffer, 1), 32);
}

}  // namespace
}  // namespace elastic::mem
