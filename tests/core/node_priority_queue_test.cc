#include "core/node_priority_queue.h"

#include <gtest/gtest.h>

namespace elastic::core {
namespace {

TEST(NodePriorityQueueTest, StartsAllZero) {
  NodePriorityQueue queue(4);
  for (int n = 0; n < 4; ++n) EXPECT_DOUBLE_EQ(queue.Score(n), 0.0);
  EXPECT_EQ(queue.Top(), 0);     // ties break towards lower ids
  EXPECT_EQ(queue.Bottom(), 3);
}

TEST(NodePriorityQueueTest, UpdateAccumulates) {
  NodePriorityQueue queue(4, /*decay=*/0.5);
  queue.Update({100, 0, 50, 0});
  EXPECT_EQ(queue.Top(), 0);
  EXPECT_DOUBLE_EQ(queue.Score(0), 100.0);
  queue.Update({0, 0, 200, 0});
  // score0 = 50, score2 = 225.
  EXPECT_EQ(queue.Top(), 2);
  EXPECT_DOUBLE_EQ(queue.Score(0), 50.0);
  EXPECT_DOUBLE_EQ(queue.Score(2), 225.0);
}

TEST(NodePriorityQueueTest, DecayForgetsHistory) {
  NodePriorityQueue queue(2, 0.5);
  queue.Update({1000, 0});
  for (int i = 0; i < 20; ++i) queue.Update({0, 10});
  // Node 0's big burst decays away; node 1's steady trickle wins.
  EXPECT_EQ(queue.Top(), 1);
}

TEST(NodePriorityQueueTest, OrderingIsDescending) {
  NodePriorityQueue queue(4);
  queue.Update({5, 20, 10, 1});
  const auto order = queue.ByPriorityDescending();
  EXPECT_EQ(order, (std::vector<numasim::NodeId>{1, 2, 0, 3}));
  EXPECT_EQ(queue.Top(), 1);
  EXPECT_EQ(queue.Bottom(), 3);
}

TEST(NodePriorityQueueTest, TiesBreakTowardsLowerNode) {
  NodePriorityQueue queue(3);
  queue.Update({7, 7, 7});
  EXPECT_EQ(queue.ByPriorityDescending(), (std::vector<numasim::NodeId>{0, 1, 2}));
}

TEST(NodePriorityQueueTest, ZeroDecayScoresTheLatestWindow) {
  // Decay 0 keeps nothing of the previous window: each Update sets the
  // scores.
  NodePriorityQueue queue(2, /*decay=*/0.0);
  queue.Update({0, 42});
  EXPECT_EQ(queue.Top(), 1);
  // Equal scores tie towards node 0; a higher score on node 1 takes the
  // top, and equal scores again give it back.
  queue.Update({6, 6});
  EXPECT_EQ(queue.Top(), 0);
  queue.Update({6, 10});
  EXPECT_EQ(queue.Top(), 1);
  queue.Update({6, 6});
  EXPECT_EQ(queue.Top(), 0);
}

TEST(NodePriorityQueueDeathTest, WrongSizeUpdateAborts) {
  NodePriorityQueue queue(4);
  EXPECT_DEATH(queue.Update({1, 2}), "mismatch");
}

}  // namespace
}  // namespace elastic::core
