// Unit tests for the batch-kernel layer: the open-addressing join table,
// the group-key table (including growth), and parity of the chunked /
// fused selection kernels with plain scalar loops on random data.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/kernels/hash.h"
#include "db/kernels/hash_table.h"
#include "db/kernels/select.h"
#include "db/operators.h"

namespace elastic::db {
namespace {

using kernels::FusedSelect3;
using kernels::GroupKeyTable;
using kernels::Mix64;
using kernels::JoinHashTable;

TEST(JoinHashTableTest, BuildsFlatGroupedPayload) {
  JoinHashTable table;
  table.Build({7, 3, 7, 9, 3, 7});
  EXPECT_EQ(table.num_keys(), 3u);
  EXPECT_EQ(table.num_entries(), 6u);
  // Rows of a key are contiguous and in build-insertion order.
  EXPECT_EQ(table.RowsOf(7), (std::vector<int64_t>{0, 2, 5}));
  EXPECT_EQ(table.RowsOf(3), (std::vector<int64_t>{1, 4}));
  EXPECT_EQ(table.RowsOf(9), (std::vector<int64_t>{3}));
  EXPECT_TRUE(table.RowsOf(42).empty());
  EXPECT_EQ(table.CountOf(7), 3);
  EXPECT_EQ(table.CountOf(42), 0);
  EXPECT_TRUE(table.Contains(9));
  EXPECT_FALSE(table.Contains(8));
}

TEST(JoinHashTableTest, RestrictedBuildUsesCandidateRows) {
  JoinHashTable table;
  const std::vector<int64_t> keys = {1, 2, 1, 2, 1};
  const std::vector<int64_t> rows = {0, 3, 4};
  table.Build(keys, &rows);
  EXPECT_EQ(table.num_entries(), 3u);
  EXPECT_EQ(table.RowsOf(1), (std::vector<int64_t>{0, 4}));
  EXPECT_EQ(table.RowsOf(2), (std::vector<int64_t>{3}));
}

TEST(JoinHashTableTest, ZeroKeyIsNotConfusedWithEmptySlots) {
  // Empty slots store key 0 internally; a real key 0 must still work.
  JoinHashTable table;
  table.Build({0, 5, 0});
  EXPECT_EQ(table.RowsOf(0), (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(table.CountOf(0), 2);
  EXPECT_TRUE(table.Contains(0));
}

TEST(JoinHashTableTest, CollisionHeavyKeysProbeCorrectly) {
  // Keys chosen adversarially dense and distinct; power-of-two capacity
  // plus linear probing must still resolve every key exactly.
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 4096; ++i) keys.push_back(i * 64);  // strided
  for (int64_t i = 0; i < 4096; ++i) keys.push_back(i * 64);  // duplicates
  JoinHashTable table;
  table.Build(keys);
  EXPECT_EQ(table.num_keys(), 4096u);
  for (int64_t i = 0; i < 4096; ++i) {
    EXPECT_EQ(table.RowsOf(i * 64), (std::vector<int64_t>{i, i + 4096}));
  }
  EXPECT_FALSE(table.Contains(1));  // between the strides
}

TEST(JoinHashTableTest, EmptyBuild) {
  JoinHashTable table;
  table.Build({});
  EXPECT_EQ(table.num_keys(), 0u);
  EXPECT_FALSE(table.Contains(0));
  EXPECT_TRUE(table.RowsOf(0).empty());
}

TEST(JoinHashTableTest, RebuildDropsPreviousContents) {
  // Tombstone-free semantics: there is no deletion, only whole rebuilds.
  JoinHashTable table;
  table.Build({1, 2, 3});
  table.Build({9});
  EXPECT_EQ(table.num_keys(), 1u);
  EXPECT_FALSE(table.Contains(1));
  EXPECT_EQ(table.RowsOf(9), (std::vector<int64_t>{0}));
}

TEST(JoinHashTableTest, ReserveMakesSteadyStateRebuildsAllocationFree) {
  std::mt19937_64 rng(3);
  std::vector<int64_t> sparse_keys(4000);
  for (auto& k : sparse_keys) k = static_cast<int64_t>(rng());  // sparse mode
  std::vector<int64_t> dense_keys(4000);
  for (size_t i = 0; i < dense_keys.size(); ++i) {
    dense_keys[i] = static_cast<int64_t>(i) + 1;  // dense 1..N mode
  }

  JoinHashTable table;
  table.Reserve(4000);
  const int64_t after_reserve = table.build_allocations();
  for (int rep = 0; rep < 5; ++rep) {
    table.Build(rep % 2 == 0 ? sparse_keys : dense_keys);
    EXPECT_EQ(table.build_allocations(), after_reserve)
        << "rebuild " << rep << " allocated";
  }
  EXPECT_EQ(table.num_keys(), 4000u);
}

TEST(JoinHashTableTest, UnreservedGrowthIsCountedThenFlat) {
  std::vector<int64_t> keys(1000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(i * 7919);  // sparse
  }
  JoinHashTable table;
  EXPECT_EQ(table.build_allocations(), 0);
  table.Build(keys);
  const int64_t first_build = table.build_allocations();
  EXPECT_GT(first_build, 0);  // cold build had to allocate
  table.Build(keys);
  EXPECT_EQ(table.build_allocations(), first_build);  // warm: storage reused
}

// Checks every lookup of `table` for `key` against a node-based multimap.
void ExpectLookupsMatch(const JoinHashTable& table,
                        const std::unordered_map<int64_t, std::vector<int64_t>>& ref,
                        int64_t key) {
  auto it = ref.find(key);
  const std::vector<int64_t> want =
      it == ref.end() ? std::vector<int64_t>{} : it->second;
  EXPECT_EQ(table.Contains(key), !want.empty()) << "key " << key;
  EXPECT_EQ(table.CountOf(key), static_cast<int64_t>(want.size())) << "key " << key;
  EXPECT_EQ(table.RowsOf(key), want) << "key " << key;
}

std::unordered_map<int64_t, std::vector<int64_t>> ReferenceOf(
    const std::vector<int64_t>& keys, const std::vector<int64_t>& rows) {
  std::unordered_map<int64_t, std::vector<int64_t>> ref;
  for (int64_t row : rows) ref[keys[static_cast<size_t>(row)]].push_back(row);
  return ref;
}

TEST(JoinHashTableTest, FilteredBuildMatchesScalarReference) {
  // About 1% of the keys 1..100000, each on two rows of the key column:
  // too sparse for direct addressing, narrow enough for the key filter.
  std::vector<int64_t> keys(200000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = 1 + static_cast<int64_t>((i * 7919) % 100000);
  }
  std::vector<int64_t> rows;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (Mix64(static_cast<uint64_t>(keys[i])) % 100 == 0) {
      rows.push_back(static_cast<int64_t>(i));
    }
  }
  JoinHashTable table;
  table.Build(keys, &rows);
  ASSERT_FALSE(table.is_dense());
  ASSERT_TRUE(table.has_key_filter());
  const auto ref = ReferenceOf(keys, rows);
  EXPECT_EQ(table.num_keys(), ref.size());

  int64_t mn = INT64_MAX;
  int64_t mx = INT64_MIN;
  for (const auto& [key, unused] : ref) {
    mn = std::min(mn, key);
    mx = std::max(mx, key);
  }
  int64_t absent_inside = mn + 1;
  while (ref.count(absent_inside) != 0) absent_inside++;
  ASSERT_LT(absent_inside, mx);
  for (int64_t key : {mn - 1, mx + 1, mn, mx, absent_inside, int64_t{-1},
                      int64_t{-mx}, int64_t{0}, INT64_MIN, INT64_MAX}) {
    ExpectLookupsMatch(table, ref, key);
  }
  for (int64_t key = -5; key <= 100005; ++key) {
    ASSERT_EQ(table.CountOf(key),
              ref.count(key) == 0 ? 0 : static_cast<int64_t>(ref.at(key).size()))
        << "key " << key;
  }
}

TEST(JoinHashTableTest, KeyFilterBoundIsSixtyFourKeysPerColumnEntry) {
  // Two column entries admit a range of 128 keys: [-64, 63] fills both
  // filter words, and its top key is the last bit of the last word.
  JoinHashTable table;
  const std::vector<int64_t> at_bound = {63, -64};
  table.Build(at_bound);
  EXPECT_FALSE(table.is_dense());
  EXPECT_TRUE(table.has_key_filter());
  const auto ref = ReferenceOf(at_bound, {0, 1});
  for (int64_t key = -70; key <= 70; ++key) ExpectLookupsMatch(table, ref, key);

  // One key further and the range outgrows the column: plain hashing.
  const std::vector<int64_t> beyond = {64, -64};
  table.Build(beyond);
  EXPECT_FALSE(table.has_key_filter());
  const auto ref_beyond = ReferenceOf(beyond, {0, 1});
  for (int64_t key = -70; key <= 70; ++key) {
    ExpectLookupsMatch(table, ref_beyond, key);
  }
}

TEST(JoinHashTableTest, RandomKeysWithExtremesStayExact) {
  std::mt19937_64 rng(64);
  std::vector<int64_t> keys(3000);
  for (auto& k : keys) k = static_cast<int64_t>(rng());
  keys[10] = INT64_MIN;
  keys[20] = INT64_MAX;
  keys[30] = INT64_MIN;  // a duplicate
  std::vector<int64_t> rows(keys.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int64_t>(i);
  JoinHashTable table;
  table.Build(keys);
  EXPECT_FALSE(table.is_dense());
  EXPECT_FALSE(table.has_key_filter());
  const auto ref = ReferenceOf(keys, rows);
  for (int64_t key : keys) ExpectLookupsMatch(table, ref, key);
  for (int64_t key : {INT64_MIN + 1, INT64_MAX - 1, int64_t{0}, int64_t{-1}}) {
    ExpectLookupsMatch(table, ref, key);
  }
  for (int i = 0; i < 3000; ++i) {
    ExpectLookupsMatch(table, ref, static_cast<int64_t>(rng()));
  }

  // Narrow ranges at either end of int64 are filtered; offsets must not
  // overflow there.
  for (const std::vector<int64_t>& edge :
       {std::vector<int64_t>{INT64_MAX, INT64_MAX - 90, INT64_MAX},
        std::vector<int64_t>{INT64_MIN, INT64_MIN + 90, INT64_MIN + 3}}) {
    table.Build(edge);
    EXPECT_TRUE(table.has_key_filter());
    const auto edge_ref = ReferenceOf(edge, {0, 1, 2});
    for (int64_t d = 0; d <= 100; ++d) {
      ExpectLookupsMatch(table, edge_ref, INT64_MAX - d);
      ExpectLookupsMatch(table, edge_ref, INT64_MIN + d);
    }
  }
}

TEST(JoinHashTableTest, FilteredRebuildsAtAStableRangeAllocateNothing) {
  // Alternate two selective builds over the same key range; after the
  // first, neither the slots, the payload nor the filter words grow, and
  // each rebuild forgets the other's keys.
  std::vector<int64_t> keys(10000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  std::vector<int64_t> even;
  std::vector<int64_t> odd;
  for (int64_t i = 0; i < 10000; i += 50) {
    even.push_back(i);
    odd.push_back(i + 25);
  }
  odd.push_back(0);
  odd.push_back(9999);  // both builds span about the same range
  JoinHashTable table;
  table.Build(keys, &odd);
  ASSERT_TRUE(table.has_key_filter());
  const int64_t after_first = table.build_allocations();
  EXPECT_GT(after_first, 0);
  for (int rep = 0; rep < 6; ++rep) {
    const std::vector<int64_t>& rows = rep % 2 == 0 ? even : odd;
    table.Build(keys, &rows);
    EXPECT_TRUE(table.has_key_filter());
    EXPECT_EQ(table.build_allocations(), after_first) << "rebuild " << rep;
    const auto ref = ReferenceOf(keys, rows);
    for (int64_t key = -1; key <= 10000; ++key) {
      ASSERT_EQ(table.Contains(key), ref.count(key) != 0)
          << "rebuild " << rep << " key " << key;
    }
  }
}

TEST(HashJoinTest, ProbeMatchesScalarReferenceOnRandomData) {
  std::mt19937_64 rng(42);
  std::vector<int64_t> build_keys(2000);
  std::vector<int64_t> probe_keys(3000);
  for (auto& k : build_keys) k = static_cast<int64_t>(rng() % 500);
  for (auto& k : probe_keys) k = static_cast<int64_t>(rng() % 700);

  HashJoin join;
  join.Build(build_keys);
  const HashJoin::Pairs pairs = join.Probe(probe_keys);

  // Scalar reference: node-based multimap in insertion order.
  std::unordered_map<int64_t, std::vector<int64_t>> ref;
  for (size_t i = 0; i < build_keys.size(); ++i) {
    ref[build_keys[i]].push_back(static_cast<int64_t>(i));
  }
  std::vector<int64_t> want_build, want_probe;
  for (size_t i = 0; i < probe_keys.size(); ++i) {
    auto it = ref.find(probe_keys[i]);
    if (it == ref.end()) continue;
    for (int64_t b : it->second) {
      want_build.push_back(b);
      want_probe.push_back(static_cast<int64_t>(i));
    }
  }
  EXPECT_EQ(pairs.build_rows, want_build);
  EXPECT_EQ(pairs.probe_rows, want_probe);
}

TEST(GroupKeyTableTest, GrowsFromMinimalCapacityWithoutLosingGroups) {
  GroupKeyTable table(/*expected_groups=*/0);
  const size_t initial_cap = table.capacity();
  for (uint64_t i = 0; i < 10000; ++i) {
    const int64_t gid = table.FindOrInsertHashed(
        Mix64(i), static_cast<int64_t>(i), [&](int64_t) { return true; });
    EXPECT_EQ(gid, static_cast<int64_t>(i));  // all distinct -> fresh gid
  }
  EXPECT_EQ(table.size(), 10000u);
  EXPECT_GT(table.capacity(), initial_cap);  // doubled several times
  // Every key still finds its original gid after the growth rehashes.
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_EQ(table.FindOrInsertHashed(Mix64(i), 999999,
                                       [&](int64_t) { return true; }),
              static_cast<int64_t>(i));
  }
}

TEST(GroupKeyTableTest, HashCollisionsResolvedByExactComparison) {
  // Two logical keys sharing one hash: the equals_rep callback must
  // separate them into distinct groups.
  GroupKeyTable table;
  const uint64_t h = Mix64(123);
  const std::vector<int64_t> logical_key = {1, 2};
  auto eq_against = [&](int64_t row) {
    return [&, row](int64_t gid) { return logical_key[static_cast<size_t>(gid)] ==
                                          logical_key[static_cast<size_t>(row)]; };
  };
  EXPECT_EQ(table.FindOrInsertHashed(h, 0, eq_against(0)), 0);
  EXPECT_EQ(table.FindOrInsertHashed(h, 1, eq_against(1)), 1);  // collides, differs
  EXPECT_EQ(table.FindOrInsertHashed(h, 2, eq_against(0)), 0);  // matches group 0
  EXPECT_EQ(table.size(), 2u);
}

TEST(GroupKeyTableTest, ExpectedGroupsHintEliminatesRehashes) {
  GroupKeyTable hinted(/*expected_groups=*/5000);
  GroupKeyTable unhinted(/*expected_groups=*/0);
  for (int64_t i = 0; i < 5000; ++i) {
    const uint64_t h = Mix64(static_cast<uint64_t>(i));
    hinted.FindOrInsertHashed(h, i, [](int64_t) { return true; });
    unhinted.FindOrInsertHashed(h, i, [](int64_t) { return true; });
  }
  EXPECT_EQ(hinted.rehashes(), 0);
  EXPECT_GT(unhinted.rehashes(), 0);
  EXPECT_EQ(hinted.size(), unhinted.size());
}

TEST(GrouperTest, ExpectedGroupsSurfacesThroughTableRehashes) {
  std::mt19937_64 rng(19);
  std::vector<int64_t> keys(20000);
  for (auto& k : keys) k = static_cast<int64_t>(rng() % 4000);

  Grouper cold;
  cold.AddI64Key(keys);
  cold.Finish();
  ASSERT_GT(cold.table_rehashes(), 0);  // default hint (64) must double

  Grouper hinted;
  hinted.set_expected_groups(cold.num_groups());
  hinted.AddI64Key(keys);
  hinted.Finish();
  EXPECT_EQ(hinted.table_rehashes(), 0);
  EXPECT_EQ(hinted.num_groups(), cold.num_groups());
  EXPECT_EQ(hinted.group_of(), cold.group_of());
}

TEST(GrouperTest, ManyDistinctKeysMatchUnorderedMapReference) {
  std::mt19937_64 rng(7);
  std::vector<int64_t> keys(20000);
  for (auto& k : keys) k = static_cast<int64_t>(rng() % 5000);
  Grouper g;
  g.AddI64Key(keys);
  g.Finish();

  std::unordered_map<int64_t, int64_t> ref;
  std::vector<int64_t> want(keys.size());
  int64_t next = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto it = ref.emplace(keys[i], next).first;
    if (it->second == next) next++;
    want[i] = it->second;
  }
  EXPECT_EQ(g.num_groups(), next);
  EXPECT_EQ(g.group_of(), want);
  for (int64_t gid = 0; gid < g.num_groups(); ++gid) {
    EXPECT_EQ(g.I64KeyOfGroup(0, gid),
              keys[static_cast<size_t>(g.representative_rows()[static_cast<size_t>(gid)])]);
  }
}

TEST(GrouperTest, CodeAndI64KeysMatchStringEncodingReference) {
  std::mt19937_64 rng(11);
  const std::vector<std::string> names = {"ALPHA", "BETA", "GAMMA", "DELTA"};
  std::vector<int64_t> name_code(5000);  // the string key is names[code]
  std::vector<int64_t> i64_key(5000);
  for (size_t i = 0; i < name_code.size(); ++i) {
    name_code[i] = static_cast<int64_t>(rng() % names.size());
    i64_key[i] = static_cast<int64_t>(rng() % 7);
  }
  Grouper g;
  g.AddI64Key(name_code);
  g.AddI64Key(i64_key);
  g.Finish();

  // Reference: the seed executor's per-row string encoding.
  std::unordered_map<std::string, int64_t> ref;
  std::vector<int64_t> want(name_code.size());
  int64_t next = 0;
  for (size_t i = 0; i < name_code.size(); ++i) {
    std::string encoded = names[static_cast<size_t>(name_code[i])] + '\x01' +
                          std::to_string(i64_key[i]);
    auto it = ref.emplace(encoded, next).first;
    if (it->second == next) next++;
    want[i] = it->second;
  }
  EXPECT_EQ(g.num_groups(), next);
  EXPECT_EQ(g.group_of(), want);
}

TEST(SelectKernelsTest, ChunkedSelectMatchesScalarOnRandomData) {
  std::mt19937_64 rng(3);
  std::vector<double> col(50000);
  for (auto& v : col) v = static_cast<double>(rng() % 1000) / 10.0;
  auto pred = [](double v) { return v < 37.5; };

  std::vector<int64_t> want;
  for (size_t i = 0; i < col.size(); ++i) {
    if (pred(col[i])) want.push_back(static_cast<int64_t>(i));
  }
  EXPECT_EQ(kernels::SelectWhere(col, pred), want);
}

TEST(SelectKernelsTest, ChunkedRefineMatchesScalarOnRandomData) {
  std::mt19937_64 rng(5);
  std::vector<int64_t> col(40000);
  for (auto& v : col) v = static_cast<int64_t>(rng() % 100);
  std::vector<int64_t> in;
  for (int64_t i = 0; i < 40000; i += 3) in.push_back(i);
  auto pred = [](int64_t v) { return v >= 20 && v < 60; };

  std::vector<int64_t> want;
  for (int64_t row : in) {
    if (pred(col[static_cast<size_t>(row)])) want.push_back(row);
  }
  EXPECT_EQ(kernels::Refine(col, in, pred), want);
}

TEST(SelectKernelsTest, SelectSizesNotMultipleOfChunk) {
  for (int64_t n : {0, 1, 1023, 1024, 1025, 4096, 5000}) {
    std::vector<int64_t> col(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) col[static_cast<size_t>(i)] = i;
    const std::vector<int64_t> sel =
        kernels::SelectWhere(col, [](int64_t v) { return v % 2 == 0; });
    EXPECT_EQ(static_cast<int64_t>(sel.size()), (n + 1) / 2) << "n=" << n;
    for (int64_t row : sel) EXPECT_EQ(row % 2, 0);
  }
}

TEST(SelectKernelsTest, FusedSelect3MatchesThreePassScalar) {
  std::mt19937_64 rng(9);
  const int64_t n = 30000;
  std::vector<double> qty(static_cast<size_t>(n));
  std::vector<int64_t> ship(static_cast<size_t>(n));
  std::vector<double> disc(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const size_t k = static_cast<size_t>(i);
    qty[k] = static_cast<double>(rng() % 50);
    ship[k] = static_cast<int64_t>(rng() % 2500);
    disc[k] = static_cast<double>(rng() % 11) / 100.0;
  }
  auto p1 = [&](int64_t i) { return qty[static_cast<size_t>(i)] < 24.0; };
  auto p2 = [&](int64_t i) {
    return ship[static_cast<size_t>(i)] >= 800 && ship[static_cast<size_t>(i)] < 1200;
  };
  auto p3 = [&](int64_t i) {
    return disc[static_cast<size_t>(i)] >= 0.05 && disc[static_cast<size_t>(i)] <= 0.07;
  };

  // Three-pass scalar reference with intermediate cardinalities.
  std::vector<int64_t> x1, x2, x3;
  for (int64_t i = 0; i < n; ++i) {
    if (p1(i)) x1.push_back(i);
  }
  for (int64_t row : x1) {
    if (p2(row)) x2.push_back(row);
  }
  for (int64_t row : x2) {
    if (p3(row)) x3.push_back(row);
  }

  const kernels::Fused3Result fused = FusedSelect3(n, p1, p2, p3);
  EXPECT_EQ(fused.rows_after_p1, static_cast<int64_t>(x1.size()));
  EXPECT_EQ(fused.rows_after_p2, static_cast<int64_t>(x2.size()));
  EXPECT_EQ(fused.sel, x3);
}

}  // namespace
}  // namespace elastic::db
