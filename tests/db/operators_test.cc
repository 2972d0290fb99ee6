#include "db/operators.h"

#include <gtest/gtest.h>

namespace elastic::db {
namespace {

TEST(SelectTest, SelectWhereReturnsMatchingRows) {
  const std::vector<int64_t> col = {5, 10, 15, 20, 25};
  const SelVec sel = SelectWhere(col, [](int64_t v) { return v > 12; });
  EXPECT_EQ(sel, (SelVec{2, 3, 4}));
}

TEST(SelectTest, RefineNarrowsCandidates) {
  const std::vector<int64_t> col = {5, 10, 15, 20, 25};
  const SelVec in = {0, 2, 4};
  const SelVec sel = Refine(col, in, [](int64_t v) { return v >= 15; });
  EXPECT_EQ(sel, (SelVec{2, 4}));
}

TEST(SelectTest, EmptyInputs) {
  const std::vector<double> empty;
  EXPECT_TRUE(SelectWhere(empty, [](double) { return true; }).empty());
  const std::vector<int64_t> col = {1, 2};
  const SelVec none;
  EXPECT_TRUE(Refine(col, none, [](int64_t) { return true; }).empty());
}

TEST(GatherTest, ProjectsSelectedRows) {
  const std::vector<std::string> col = {"a", "b", "c", "d"};
  EXPECT_EQ(Gather(col, {1, 3}), (std::vector<std::string>{"b", "d"}));
  EXPECT_TRUE(Gather(col, {}).empty());
}

TEST(HashJoinTest, BuildAndProbeFindsAllPairs) {
  HashJoin join;
  const std::vector<int64_t> build_keys = {1, 2, 2, 3};
  join.Build(build_keys);
  EXPECT_EQ(join.num_keys(), 3u);
  const std::vector<int64_t> probe_keys = {2, 4, 1};
  const HashJoin::Pairs pairs = join.Probe(probe_keys);
  // key 2 matches build rows 1 and 2; key 1 matches row 0; key 4 none.
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs.probe_rows, (SelVec{0, 0, 2}));
  EXPECT_EQ(pairs.build_rows, (SelVec{1, 2, 0}));
}

TEST(HashJoinTest, BuildRestrictedToSelVec) {
  HashJoin join;
  const std::vector<int64_t> keys = {1, 2, 3, 4};
  const SelVec rows = {1, 3};
  join.Build(keys, &rows);
  EXPECT_FALSE(join.Contains(1));
  EXPECT_TRUE(join.Contains(2));
  EXPECT_TRUE(join.Contains(4));
}

TEST(HashJoinTest, ProbeRestrictedToSelVec) {
  HashJoin join;
  const std::vector<int64_t> build_keys = {7};
  join.Build(build_keys);
  const std::vector<int64_t> probe_keys = {7, 7, 7};
  const SelVec rows = {0, 2};
  const HashJoin::Pairs pairs = join.Probe(probe_keys, &rows);
  EXPECT_EQ(pairs.probe_rows, (SelVec{0, 2}));
}

TEST(HashJoinTest, CountAndRows) {
  HashJoin join;
  const std::vector<int64_t> keys = {5, 5, 6};
  join.Build(keys);
  EXPECT_EQ(join.CountOf(5), 2);
  EXPECT_EQ(join.CountOf(9), 0);
  EXPECT_EQ(join.RowsOf(5), (std::vector<int64_t>{0, 1}));
  EXPECT_TRUE(join.RowsOf(9).empty());
}

TEST(GrouperTest, SingleI64Key) {
  Grouper g;
  g.AddI64Key({10, 20, 10, 30, 20});
  g.Finish();
  EXPECT_EQ(g.num_groups(), 3);
  EXPECT_EQ(g.group_of(), (std::vector<int64_t>{0, 1, 0, 2, 1}));
  EXPECT_EQ(g.I64KeyOfGroup(0, 0), 10);
  EXPECT_EQ(g.I64KeyOfGroup(0, 2), 30);
}

TEST(GrouperTest, CompositeKeys) {
  // The first key is a dictionary code: A = 0, B = 1.
  Grouper g;
  g.AddI64Key({0, 0, 1, 0});
  g.AddI64Key({1, 2, 1, 1});
  g.Finish();
  EXPECT_EQ(g.num_groups(), 3);  // (A,1), (A,2), (B,1)
  EXPECT_EQ(g.group_of()[3], 0);
  EXPECT_EQ(g.I64KeyOfGroup(0, 2), 1);  // B
  EXPECT_EQ(g.I64KeyOfGroup(1, 1), 2);
}

TEST(GrouperTest, KeysThatConcatenateEquallyAreDistinct) {
  // (1, 23) and (12, 3) read alike as one decimal string but are two
  // groups: keys compare column by column.
  Grouper g;
  g.AddI64Key({1, 12});
  g.AddI64Key({23, 3});
  g.Finish();
  EXPECT_EQ(g.num_groups(), 2);
}

TEST(GrouperTest, RepeatedKeysKeepFirstOccurrenceGroupsAndRepresentatives) {
  // Codes of blue, red, blue, green (red = 0, green = 1, blue = 2).
  Grouper g;
  g.AddI64Key({2, 0, 2, 1});
  g.Finish();
  EXPECT_EQ(g.num_rows(), 4);
  EXPECT_EQ(g.num_groups(), 3);
  EXPECT_EQ(g.group_of(), (std::vector<int64_t>{0, 1, 0, 2}));
  EXPECT_EQ(g.representative_rows(), (std::vector<int64_t>{0, 1, 3}));
  EXPECT_EQ(g.I64KeyOfGroup(0, 0), 2);  // blue
  EXPECT_EQ(g.I64KeyOfGroup(0, 1), 0);  // red
  EXPECT_EQ(g.I64KeyOfGroup(0, 2), 1);  // green
}

TEST(AggregatesTest, SumPerGroup) {
  const std::vector<int64_t> group_of = {0, 1, 0, 1, 0};
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_EQ(SumPerGroup(values, group_of, 2), (std::vector<double>{9.0, 6.0}));
}

TEST(AggregatesTest, MinMaxPerGroup) {
  const std::vector<int64_t> group_of = {0, 0, 1};
  const std::vector<double> values = {4.0, -2.0, 7.0};
  EXPECT_EQ(MinPerGroup(values, group_of, 2), (std::vector<double>{-2.0, 7.0}));
  EXPECT_EQ(MaxPerGroup(values, group_of, 2), (std::vector<double>{4.0, 7.0}));
}

TEST(AggregatesTest, ScalarSum) {
  EXPECT_DOUBLE_EQ(Sum({1.5, 2.5, -1.0}), 3.0);
  EXPECT_DOUBLE_EQ(Sum({}), 0.0);
}

}  // namespace
}  // namespace elastic::db
