#include "petri/net.h"

#include <gtest/gtest.h>

namespace elastic::petri {
namespace {

/// Minimal two-place net: A --t--> B.
class SimpleNetTest : public ::testing::Test {
 protected:
  SimpleNetTest() {
    a_ = net_.AddPlace("A");
    b_ = net_.AddPlace("B");
    t_ = net_.AddTransition("t");
    net_.AddInputArc(a_, t_, "x");
    net_.AddOutputArc(t_, b_, [](const Binding& b) { return b.Get("x") + 1; });
  }
  Net net_;
  PlaceId a_, b_;
  TransitionId t_;
};

TEST_F(SimpleNetTest, NotEnabledWithoutTokens) {
  EXPECT_FALSE(net_.IsEnabled(t_));
  EXPECT_FALSE(net_.Fire(t_));
}

TEST_F(SimpleNetTest, FireMovesAndTransformsToken) {
  net_.AddToken(a_, 41.0);
  EXPECT_TRUE(net_.IsEnabled(t_));
  EXPECT_TRUE(net_.Fire(t_));
  EXPECT_TRUE(net_.Marking(a_).empty());
  ASSERT_EQ(net_.Marking(b_).size(), 1u);
  EXPECT_DOUBLE_EQ(net_.Marking(b_).front(), 42.0);
}

TEST_F(SimpleNetTest, GuardBlocksFiring) {
  Net net;
  const PlaceId p = net.AddPlace("P");
  const PlaceId q = net.AddPlace("Q");
  const TransitionId t = net.AddTransition(
      "t", [](const Binding& b) { return b.Get("v") > 10.0; });
  net.AddInputArc(p, t, "v");
  net.AddOutputArc(t, q, [](const Binding& b) { return b.Get("v"); });
  net.AddToken(p, 5.0);
  EXPECT_FALSE(net.IsEnabled(t));
  net.ClearPlace(p);
  net.AddToken(p, 15.0);
  EXPECT_TRUE(net.IsEnabled(t));
}

TEST_F(SimpleNetTest, TokensConsumedFifo) {
  net_.AddToken(a_, 1.0);
  net_.AddToken(a_, 2.0);
  net_.Fire(t_);
  EXPECT_DOUBLE_EQ(net_.Marking(b_).front(), 2.0);  // 1+1
  EXPECT_DOUBLE_EQ(net_.Marking(a_).front(), 2.0);  // second still queued
}

TEST_F(SimpleNetTest, StepOncePicksFirstEnabled) {
  Net net;
  const PlaceId p = net.AddPlace("P");
  const TransitionId t1 = net.AddTransition(
      "low", [](const Binding& b) { return b.Get("v") < 0; });
  net.AddInputArc(p, t1, "v");
  const TransitionId t2 = net.AddTransition("any");
  net.AddInputArc(p, t2, "v");
  net.AddToken(p, 3.0);
  const auto fired = net.StepOnce();
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired, t2);
  EXPECT_FALSE(net.StepOnce().has_value());
  (void)t1;
}

TEST_F(SimpleNetTest, RunToQuiescenceBounded) {
  // A -> A loop never quiesces; the step bound must stop it.
  Net net;
  const PlaceId p = net.AddPlace("P");
  const TransitionId t = net.AddTransition("loop");
  net.AddInputArc(p, t, "v");
  net.AddOutputArc(t, p, [](const Binding& b) { return b.Get("v"); });
  net.AddToken(p, 1.0);
  const auto fired = net.RunToQuiescence(25);
  EXPECT_EQ(fired.size(), 25u);
}

TEST_F(SimpleNetTest, SetSingleTokenReplaces) {
  net_.AddToken(a_, 1.0);
  net_.AddToken(a_, 2.0);
  net_.SetSingleToken(a_, 9.0);
  ASSERT_EQ(net_.Marking(a_).size(), 1u);
  EXPECT_DOUBLE_EQ(net_.Marking(a_).front(), 9.0);
}

TEST_F(SimpleNetTest, MultiInputTransitionNeedsAllPlaces) {
  Net net;
  const PlaceId p = net.AddPlace("P");
  const PlaceId q = net.AddPlace("Q");
  const PlaceId r = net.AddPlace("R");
  const TransitionId t = net.AddTransition("join");
  net.AddInputArc(p, t, "a");
  net.AddInputArc(q, t, "b");
  net.AddOutputArc(t, r, [](const Binding& b) { return b.Get("a") * b.Get("b"); });
  net.AddToken(p, 6.0);
  EXPECT_FALSE(net.IsEnabled(t));
  net.AddToken(q, 7.0);
  EXPECT_TRUE(net.Fire(t));
  EXPECT_DOUBLE_EQ(net.Marking(r).front(), 42.0);
}

TEST_F(SimpleNetTest, IncidenceMatrixIsPostMinusPre) {
  // For A --t--> B: Pre[A][t] = 1, Post[B][t] = 1, AT = Post - Pre.
  const auto pre = net_.PreMatrix();
  const auto post = net_.PostMatrix();
  const auto at = net_.IncidenceMatrix();
  EXPECT_EQ(pre[0][0], 1);
  EXPECT_EQ(post[1][0], 1);
  EXPECT_EQ(at[0][0], -1);
  EXPECT_EQ(at[1][0], 1);
  for (int p = 0; p < net_.num_places(); ++p) {
    for (int t = 0; t < net_.num_transitions(); ++t) {
      EXPECT_EQ(at[p][t], post[p][t] - pre[p][t]);
    }
  }
}

TEST_F(SimpleNetTest, NamesAreKept) {
  EXPECT_EQ(net_.PlaceName(a_), "A");
  EXPECT_EQ(net_.TransitionName(t_), "t");
}

TEST(NetDeathTest, DuplicatePlaceNameAborts) {
  Net net;
  net.AddPlace("X");
  EXPECT_DEATH(net.AddPlace("X"), "duplicate");
}

TEST(NetDeathTest, UnboundVariableAborts) {
  Net net;
  const PlaceId p = net.AddPlace("P");
  const PlaceId q = net.AddPlace("Q");
  const TransitionId t = net.AddTransition("t");
  net.AddInputArc(p, t, "x");
  net.AddOutputArc(t, q, [](const Binding& b) { return b.Get("missing"); });
  net.AddToken(p, 1.0);
  EXPECT_DEATH(net.Fire(t), "unbound");
}

TEST(NetDeathTest, FifthInputArcAborts) {
  Net net;
  const TransitionId t = net.AddTransition("t");
  net.AddInputArc(net.AddPlace("A"), t, "a");
  net.AddInputArc(net.AddPlace("B"), t, "b");
  net.AddInputArc(net.AddPlace("C"), t, "c");
  net.AddInputArc(net.AddPlace("D"), t, "d");
  const PlaceId e = net.AddPlace("E");
  EXPECT_DEATH(net.AddInputArc(e, t, "e"), "kMaxVars");
}

}  // namespace
}  // namespace elastic::petri
