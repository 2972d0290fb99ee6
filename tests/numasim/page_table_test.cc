#include "numasim/page_table.h"

#include <gtest/gtest.h>

namespace elastic::numasim {
namespace {

TEST(PageTableTest, FirstTouchAllocatesAtTouchingNode) {
  PageTable pt(4);
  const BufferId buffer = pt.CreateBuffer(10, "col");
  const PageId page = PageTable::PageOf(buffer, 3);
  EXPECT_EQ(pt.HomeOf(page), kInvalidNode);
  const auto touch = pt.Touch(page, 2);
  EXPECT_TRUE(touch.first_touch);
  EXPECT_EQ(touch.home, 2);
  EXPECT_EQ(pt.HomeOf(page), 2);
}

TEST(PageTableTest, SecondTouchKeepsHome) {
  PageTable pt(4);
  const BufferId buffer = pt.CreateBuffer(4);
  const PageId page = PageTable::PageOf(buffer, 0);
  pt.Touch(page, 1);
  const auto touch = pt.Touch(page, 3);
  EXPECT_FALSE(touch.first_touch);
  EXPECT_EQ(touch.home, 1);
}

TEST(PageTableTest, ResidentCountsTrackTouches) {
  PageTable pt(2);
  const BufferId buffer = pt.CreateBuffer(6);
  pt.Touch(PageTable::PageOf(buffer, 0), 0);
  pt.Touch(PageTable::PageOf(buffer, 1), 0);
  pt.Touch(PageTable::PageOf(buffer, 2), 1);
  EXPECT_EQ(pt.ResidentPages(0), 2);
  EXPECT_EQ(pt.ResidentPages(1), 1);
}

TEST(PageTableTest, FreeBufferReleasesResidency) {
  PageTable pt(2);
  const BufferId buffer = pt.CreateBuffer(8);
  pt.PlaceAllOn(buffer, 1);
  EXPECT_EQ(pt.ResidentPages(1), 8);
  pt.FreeBuffer(buffer);
  EXPECT_EQ(pt.ResidentPages(1), 0);
  EXPECT_FALSE(pt.IsLive(buffer));
}

TEST(PageTableTest, PlaceAllOnPutsEveryPageThere) {
  PageTable pt(4);
  const BufferId buffer = pt.CreateBuffer(16);
  pt.PlaceAllOn(buffer, 3);
  EXPECT_EQ(pt.ResidentPagesOfBuffer(buffer, 3), 16);
  EXPECT_EQ(pt.ResidentPagesOfBuffer(buffer, 0), 0);
}

TEST(PageTableTest, ChunkedRoundRobinSpreadsEvenly) {
  PageTable pt(4);
  const BufferId buffer = pt.CreateBuffer(64);
  pt.PlaceChunkedRoundRobin(buffer, 4);
  for (int node = 0; node < 4; ++node) {
    EXPECT_EQ(pt.ResidentPagesOfBuffer(buffer, node), 16) << "node " << node;
  }
  // First chunk is on node 0, second on node 1.
  EXPECT_EQ(pt.HomeOf(PageTable::PageOf(buffer, 0)), 0);
  EXPECT_EQ(pt.HomeOf(PageTable::PageOf(buffer, 4)), 1);
}

TEST(PageTableTest, PageIdRoundTrips) {
  const PageId page = PageTable::PageOf(7, 1234);
  EXPECT_EQ(PageTable::BufferOf(page), 7u);
  EXPECT_EQ(PageTable::IndexOf(page), 1234);
}

TEST(PageTableTest, LabelsAreKept) {
  PageTable pt(2);
  const BufferId buffer = pt.CreateBuffer(1, "lineitem.l_quantity");
  EXPECT_EQ(pt.Label(buffer), "lineitem.l_quantity");
}

TEST(PageTableTest, ManyBuffersGetDistinctIds) {
  PageTable pt(2);
  const BufferId a = pt.CreateBuffer(1);
  const BufferId b = pt.CreateBuffer(1);
  EXPECT_NE(a, b);
  EXPECT_EQ(pt.total_buffers_created(), 2);
}

TEST(PageTableTest, HomesRoundTripAtTheLargestNodeCount) {
  // Homes are one signed byte: nodes 0-127, with -1 for "untouched".
  ASSERT_EQ(PageTable::kMaxNodes, 128);
  PageTable pt(PageTable::kMaxNodes);
  const BufferId buffer = pt.CreateBuffer(PageTable::kMaxNodes);
  for (NodeId node = 0; node < PageTable::kMaxNodes; ++node) {
    const PageId page = PageTable::PageOf(buffer, node);
    EXPECT_TRUE(pt.Touch(page, node).first_touch) << "node " << node;
    // A second touch from elsewhere finds the home the first one left.
    const auto again = pt.Touch(page, (node + 3) % PageTable::kMaxNodes);
    EXPECT_FALSE(again.first_touch) << "node " << node;
    EXPECT_EQ(again.home, node);
    EXPECT_EQ(pt.HomeOf(page), node);
  }
  for (NodeId node = 0; node < PageTable::kMaxNodes; ++node) {
    EXPECT_EQ(pt.ResidentPages(node), 1) << "node " << node;
    EXPECT_EQ(pt.ResidentPagesOfBuffer(buffer, node), 1) << "node " << node;
  }
  pt.FreeBuffer(buffer);
  for (NodeId node = 0; node < PageTable::kMaxNodes; ++node) {
    EXPECT_EQ(pt.ResidentPages(node), 0) << "node " << node;
  }
}

TEST(PageTableTest, DirectoryEntriesStartEmptyAndAreTheTouchedPages) {
  PageTable pt(4);
  const BufferId buffer = pt.CreateBuffer(3);
  const PageId page = PageTable::PageOf(buffer, 1);
  const auto touch = pt.Touch(page, 2);
  for (NodeId node = 0; node < 4; ++node) {
    EXPECT_EQ(touch.frames[node], kNoFrame) << "node " << node;
  }
  touch.frames[3] = 17;
  // Touching a homed page again returns the same entry and changes nothing.
  EXPECT_EQ(pt.Touch(page, 0).frames, touch.frames);
  EXPECT_EQ(touch.frames[3], 17);
  EXPECT_EQ(pt.Touch(PageTable::PageOf(buffer, 0), 0).frames[3], kNoFrame);
  EXPECT_EQ(pt.Touch(PageTable::PageOf(buffer, 2), 0).frames[3], kNoFrame);
  pt.ForgetFrame(page, 3);
  EXPECT_EQ(touch.frames[3], kNoFrame);
}

TEST(PageTableTest, ForgettingAFreedBuffersFrameIsANoOp) {
  PageTable pt(2);
  const BufferId freed = pt.CreateBuffer(2);
  const BufferId live = pt.CreateBuffer(2);
  const PageId page = PageTable::PageOf(live, 0);
  pt.Touch(page, 0).frames[1] = 5;
  pt.FreeBuffer(freed);
  // A cache may still hold the freed buffer's pages and evict them later.
  pt.ForgetFrame(PageTable::PageOf(freed, 1), 1);
  EXPECT_EQ(pt.Touch(page, 0).frames[1], 5);
}

TEST(PageTableDeathTest, TouchAfterFreeAborts) {
  PageTable pt(2);
  const BufferId buffer = pt.CreateBuffer(2);
  pt.FreeBuffer(buffer);
  EXPECT_DEATH(pt.Touch(PageTable::PageOf(buffer, 0), 0), "freed");
}

TEST(PageTableDeathTest, MoreNodesThanAHomeHoldsAbort) {
  // One node past the largest a one-byte home holds, and 256, where node
  // 255 would be stored as -1 (untouched) and node 130 as -126.
  EXPECT_DEATH(PageTable(129), "home");
  EXPECT_DEATH(PageTable(256), "home");
}

}  // namespace
}  // namespace elastic::numasim
