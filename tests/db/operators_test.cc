#include "db/operators.h"

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "db/kernels/hash.h"

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

// Scalar reference for HashJoin::Probe: a node-based multimap of the build
// rows in insertion order, probed row by row.
HashJoin::Pairs ReferenceProbe(const std::vector<int64_t>& build_keys,
                               const SelVec& build_rows,
                               const std::vector<int64_t>& probe_keys,
                               const SelVec& probe_rows) {
  std::unordered_map<int64_t, SelVec> ref;
  for (int64_t row : build_rows) {
    ref[build_keys[static_cast<size_t>(row)]].push_back(row);
  }
  HashJoin::Pairs pairs;
  for (int64_t row : probe_rows) {
    auto it = ref.find(probe_keys[static_cast<size_t>(row)]);
    if (it == ref.end()) continue;
    for (int64_t b : it->second) {
      pairs.build_rows.push_back(b);
      pairs.probe_rows.push_back(row);
    }
  }
  return pairs;
}

TEST(HashJoinTest, FilteredProbeMatchesScalarReference) {
  // The Q17 shape: about 1% of the keys 1..100000, each held by two build
  // rows, probed with a column that also holds keys outside that range.
  std::vector<int64_t> build_keys(200000);
  for (size_t i = 0; i < build_keys.size(); ++i) {
    build_keys[i] = 1 + static_cast<int64_t>((i * 7919) % 100000);
  }
  SelVec build_rows;
  for (size_t i = 0; i < build_keys.size(); ++i) {
    if (kernels::Mix64(static_cast<uint64_t>(build_keys[i])) % 100 == 0) {
      build_rows.push_back(static_cast<int64_t>(i));
    }
  }
  HashJoin join;
  join.Build(build_keys, &build_rows);
  ASSERT_GT(join.num_keys(), 500u);
  ASSERT_LT(join.num_keys(), 1500u);

  std::mt19937_64 rng(28);
  std::vector<int64_t> probe_keys(300000);
  for (auto& k : probe_keys) k = static_cast<int64_t>(rng() % 100020) - 10;
  SelVec all_rows(probe_keys.size());
  SelVec some_rows;
  for (size_t i = 0; i < probe_keys.size(); ++i) {
    all_rows[i] = static_cast<int64_t>(i);
    if (i % 3 != 1) some_rows.push_back(static_cast<int64_t>(i));
  }

  const HashJoin::Pairs all = join.Probe(probe_keys);
  const HashJoin::Pairs want_all =
      ReferenceProbe(build_keys, build_rows, probe_keys, all_rows);
  ASSERT_GT(want_all.size(), 0u);
  EXPECT_EQ(all.build_rows, want_all.build_rows);
  EXPECT_EQ(all.probe_rows, want_all.probe_rows);

  const HashJoin::Pairs some = join.Probe(probe_keys, &some_rows);
  const HashJoin::Pairs want_some =
      ReferenceProbe(build_keys, build_rows, probe_keys, some_rows);
  EXPECT_EQ(some.build_rows, want_some.build_rows);
  EXPECT_EQ(some.probe_rows, want_some.probe_rows);
  EXPECT_LT(some.size(), all.size());
}

TEST(HashJoinTest, UnfilteredHashedProbeSkipsKeysOutsideTheRange) {
  // Too sparse for direct addressing and too wide for the key filter
  // (891 keys over 4 column entries): the plain hashed table.
  HashJoin join;
  const std::vector<int64_t> build_keys = {10, 500, 10, 900};
  join.Build(build_keys);
  const std::vector<int64_t> probe_keys = {1, 9, 11, 499, 901, -10};
  EXPECT_EQ(join.Probe(probe_keys).size(), 0u);
  const std::vector<int64_t> hits = {900, 10, 3};
  const HashJoin::Pairs pairs = join.Probe(hits);
  EXPECT_EQ(pairs.build_rows, (SelVec{3, 0, 2}));
  EXPECT_EQ(pairs.probe_rows, (SelVec{0, 1, 1}));
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

TEST(AggregatesTest, ScalarSum) {
  EXPECT_DOUBLE_EQ(Sum({1.5, 2.5, -1.0}), 3.0);
  EXPECT_DOUBLE_EQ(Sum({}), 0.0);
}

}  // namespace
}  // namespace elastic::db
