#include "db/like.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "db/column.h"

namespace elastic::db {
namespace {

TEST(LikeTest, Contains) {
  EXPECT_TRUE(LikeContainsSeq("dark green metallic", {"green"}));
  EXPECT_FALSE(LikeContainsSeq("dark red metallic", {"green"}));
  EXPECT_TRUE(LikeContainsSeq("green", {"green"}));
  EXPECT_FALSE(LikeContainsSeq("", {"green"}));
}

TEST(LikeTest, StartsWith) {
  EXPECT_TRUE(LikeStartsWith("PROMO BURNISHED TIN", "PROMO"));
  EXPECT_FALSE(LikeStartsWith("STANDARD PROMO", "PROMO"));
  EXPECT_TRUE(LikeStartsWith("forest chocolate", "forest"));
  EXPECT_FALSE(LikeStartsWith("fo", "forest"));
}

TEST(LikeTest, EndsWith) {
  EXPECT_TRUE(LikeEndsWith("LARGE BRUSHED BRASS", "BRASS"));
  EXPECT_FALSE(LikeEndsWith("BRASS PLATED TIN", "BRASS"));
  EXPECT_FALSE(LikeEndsWith("SS", "BRASS"));
}

TEST(LikeTest, ContainsSeqInOrder) {
  EXPECT_TRUE(LikeContainsSeq("xx special yy requests zz",
                              {"special", "requests"}));
  // Reversed order must not match.
  EXPECT_FALSE(LikeContainsSeq("xx requests yy special zz",
                               {"special", "requests"}));
  // Overlap is not allowed: needles must appear sequentially.
  EXPECT_FALSE(LikeContainsSeq("specialrequest", {"special", "requests"}));
  EXPECT_TRUE(LikeContainsSeq("specialrequests", {"special", "requests"}));
}

TEST(LikeTest, ContainsSeqEmptyNeedles) {
  EXPECT_TRUE(LikeContainsSeq("anything", {}));
}

TEST(LikeTest, SqlSubstring) {
  EXPECT_EQ(SqlSubstring("13-345-678-9012", 1, 2), "13");
  EXPECT_EQ(SqlSubstring("abc", 2, 2), "bc");
  EXPECT_EQ(SqlSubstring("abc", 5, 2), "");
  EXPECT_EQ(SqlSubstring("abc", 0, 2), "ab");  // clamped to 1-based start
}

StringHeap HeapOf(const std::vector<std::string>& values) {
  StringHeap heap;
  for (const std::string& value : values) heap.Append(value);
  return heap;
}

/// Every value reads back as appended, empty ones and the last row
/// included, and the heap holds their bytes back to back.
TEST(StringHeapTest, RoundTripsEveryValue) {
  const std::vector<std::string> values = {"", "alpha", "", "", "b",
                                           "last row"};
  const StringHeap heap = HeapOf(values);
  ASSERT_EQ(heap.size(), values.size());
  std::string all;
  for (size_t row = 0; row < values.size(); ++row) {
    EXPECT_EQ(heap[row], values[row]) << "row " << row;
    all += values[row];
  }
  EXPECT_EQ(heap.bytes(), all);
  EXPECT_EQ(heap.offsets(),
            (std::vector<uint32_t>{0, 0, 5, 5, 5, 6, 14}));
}

TEST(StringHeapTest, OneRowAndNoRows) {
  const StringHeap one = HeapOf({"only"});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], "only");
  const StringHeap empty_value = HeapOf({""});
  ASSERT_EQ(empty_value.size(), 1u);
  EXPECT_EQ(empty_value[0], "");
  const StringHeap none;
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.bytes(), "");
}

TEST(StringHeapTest, ReservedHeapIsNotCopiedWhileFilled) {
  StringHeap heap;
  heap.Reserve(100, 100 * 8);
  heap.Append("x");
  const char* const start = heap.bytes().data();
  for (int row = 1; row < 100; ++row) heap.Append("12345678");
  EXPECT_EQ(heap.bytes().data(), start);
  EXPECT_EQ(heap[99], "12345678");
}

/// The per-row reference: std::string::find for each needle in turn, each
/// search starting where the previous needle ended.
std::vector<int64_t> RowByRow(const std::vector<std::string>& values,
                              const std::vector<std::string>& needles) {
  std::vector<int64_t> rows;
  for (size_t row = 0; row < values.size(); ++row) {
    size_t pos = 0;
    bool match = true;
    for (const std::string& needle : needles) {
      const size_t found = values[row].find(needle, pos);
      if (found == std::string::npos) {
        match = false;
        break;
      }
      pos = found + needle.size();
    }
    if (match) rows.push_back(static_cast<int64_t>(row));
  }
  return rows;
}

void ExpectSweepMatchesRowByRow(const std::vector<std::string>& values,
                                std::string_view a, std::string_view b) {
  const StringHeap heap = HeapOf(values);
  EXPECT_EQ(LikeSeqRows(heap, {a, b}),
            RowByRow(values, {std::string(a), std::string(b)}))
      << "'%" << a << "%" << b << "%'";
  EXPECT_EQ(LikeSeqRows(heap, {a}), RowByRow(values, {std::string(a)}))
      << "'%" << a << "%'";
}

TEST(LikeSeqRowsTest, NeedleStraddlingTwoRowsMatchesNeither) {
  // "spe" + "cial" spells the needle across a row boundary only.
  const std::vector<std::string> values = {"a spe", "cial requests",
                                           "special requests"};
  ExpectSweepMatchesRowByRow(values, "special", "requests");
  EXPECT_EQ(LikeSeqRows(HeapOf(values), {"special", "requests"}),
            (std::vector<int64_t>{2}));
}

TEST(LikeSeqRowsTest, NeedleThatEndsTheHeap) {
  const std::vector<std::string> values = {"nothing", "", "x special requests"};
  ExpectSweepMatchesRowByRow(values, "special", "requests");
  EXPECT_EQ(LikeSeqRows(HeapOf(values), {"requests"}),
            (std::vector<int64_t>{2}));
}

TEST(LikeSeqRowsTest, SecondNeedleOnlyBeforeTheFirstDoesNotMatch) {
  const std::vector<std::string> values = {"requests then special",
                                           "special", "requests"};
  ExpectSweepMatchesRowByRow(values, "special", "requests");
  EXPECT_TRUE(LikeSeqRows(HeapOf(values), {"special", "requests"}).empty());
}

TEST(LikeSeqRowsTest, FirstOfTwoHitsDecidesTheRow) {
  const std::vector<std::string> values = {
      "special requests special",       // the first hit is followed
      "special x special requests",     // so is the first, by the second's
      "requests special x special",     // neither is
      "a special b requests c special"};
  ExpectSweepMatchesRowByRow(values, "special", "requests");
  EXPECT_EQ(LikeSeqRows(HeapOf(values), {"special", "requests"}),
            (std::vector<int64_t>{0, 1, 3}));
}

TEST(LikeSeqRowsTest, OverlappingNeedles) {
  // '%aba%ba%': the "ba" must start after the whole "aba".
  const std::vector<std::string> values = {"aba", "abab", "ababa", "abaXba",
                                           "baaba", "ab", "aaba ba"};
  ExpectSweepMatchesRowByRow(values, "aba", "ba");
  EXPECT_EQ(LikeSeqRows(HeapOf(values), {"aba", "ba"}),
            (std::vector<int64_t>{2, 3, 6}));
}

TEST(LikeSeqRowsTest, EmptyColumnAndEmptyNeedles) {
  const StringHeap none;
  EXPECT_TRUE(LikeSeqRows(none, {"special", "requests"}).empty());
  EXPECT_TRUE(LikeSeqRows(none, {}).empty());
  const StringHeap heap = HeapOf({"a", "", "b"});
  EXPECT_EQ(LikeSeqRows(heap, {}), (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(LikeSeqRows(heap, {"", "b"}), (std::vector<int64_t>{2}));
  EXPECT_EQ(LikeSeqRows(heap, {"a", ""}), (std::vector<int64_t>{0}));
}

/// Random rows over a three-letter alphabet (empty rows included) against
/// the per-row reference, for needles of one to three letters.
TEST(LikeSeqRowsTest, RandomHeapsMatchRowByRow) {
  std::mt19937 rng(13);
  const std::string alphabet = "ab ";
  auto random_text = [&](int max_length) {
    std::string text(rng() % static_cast<unsigned>(max_length + 1), ' ');
    for (char& c : text) c = alphabet[rng() % alphabet.size()];
    return text;
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::string> values(rng() % 40);
    for (std::string& value : values) value = random_text(12);
    std::string a = random_text(3);
    std::string b = random_text(3);
    if (a.empty()) a = "a";
    ExpectSweepMatchesRowByRow(values, a, b);
  }
}

}  // namespace
}  // namespace elastic::db
