#include "tpch/text.h"

#include <gtest/gtest.h>

#include "db/like.h"

namespace elastic::tpch {
namespace {

TEST(TextPoolsTest, PoolSizesMatchSpec) {
  EXPECT_EQ(TextPools::TypeS1().size() * TextPools::TypeS2().size() *
                TextPools::TypeS3().size(),
            150u);  // 6 * 5 * 5 types
  EXPECT_EQ(TextPools::ContainerS1().size() * TextPools::ContainerS2().size(),
            40u);
  EXPECT_EQ(TextPools::Nations().size(), 25u);
  EXPECT_EQ(TextPools::Regions().size(), 5u);
  EXPECT_EQ(TextPools::Segments().size(), 5u);
  EXPECT_EQ(TextPools::Priorities().size(), 5u);
  EXPECT_EQ(TextPools::ShipModes().size(), 7u);
  EXPECT_EQ(TextPools::ShipInstructs().size(), 4u);
}

TEST(TextPoolsTest, NationRegionsAreValid) {
  for (const auto& nation : TextPools::Nations()) {
    EXPECT_GE(nation.region, 0);
    EXPECT_LT(nation.region, 5);
  }
}

TEST(TextPoolsTest, NameWordsIncludeQueryNeedles) {
  const auto& words = TextPools::NameWords();
  EXPECT_NE(std::find(words.begin(), words.end(), "green"), words.end());
  EXPECT_NE(std::find(words.begin(), words.end(), "forest"), words.end());
}

TEST(TextGenTest, PartNameHasFiveWords) {
  simcore::Rng rng(1);
  const std::string name = PartName(&rng);
  int spaces = 0;
  for (char c : name) {
    if (c == ' ') spaces++;
  }
  EXPECT_EQ(spaces, 4);
}

TEST(TextGenTest, OrderCommentInjectsPattern) {
  simcore::Rng rng(2);
  int hits = 0;
  for (int i = 0; i < 2000; ++i) {
    if (db::LikeContainsSeq(OrderComment(&rng, 0.05), {"special", "requests"})) {
      hits++;
    }
  }
  EXPECT_NEAR(hits / 2000.0, 0.05, 0.02);
}

TEST(TextGenTest, SupplierComplaintRate) {
  simcore::Rng rng(3);
  int hits = 0;
  for (int i = 0; i < 2000; ++i) {
    if (db::LikeContainsSeq(SupplierComment(&rng, 0.01),
                            {"Customer", "Complaints"})) {
      hits++;
    }
  }
  EXPECT_NEAR(hits / 2000.0, 0.01, 0.01);
}

TEST(TextGenTest, PhoneFormat) {
  simcore::Rng rng(4);
  const std::string phone = Phone(&rng, 7);
  ASSERT_EQ(phone.size(), 15u);
  EXPECT_EQ(phone.substr(0, 2), "17");
  EXPECT_EQ(phone[2], '-');
  EXPECT_EQ(phone[6], '-');
  EXPECT_EQ(phone[10], '-');
}

TEST(TextGenTest, AddressLengthInRange) {
  simcore::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const std::string a = Address(&rng);
    EXPECT_GE(a.size(), 10u);
    EXPECT_LE(a.size(), 30u);
  }
}

TEST(TextGenTest, RandomCommentWordCount) {
  simcore::Rng rng(6);
  const std::string comment = RandomComment(&rng, 5);
  int spaces = 0;
  for (char c : comment) {
    if (c == ' ') spaces++;
  }
  EXPECT_EQ(spaces, 4);
}

/// The generator reserves each string heap by these bounds, so no value
/// may exceed them.
TEST(TextGenTest, GeneratedStringsFitTheirReservedBounds) {
  simcore::Rng rng(7);
  const auto& comment_words = TextPools::CommentWords();
  for (int i = 0; i < 2000; ++i) {
    for (int words : {4, 5, 8}) {
      ASSERT_LE(RandomComment(&rng, words).size(),
                MaxWordsBytes(comment_words, words));
    }
    ASSERT_LE(OrderComment(&rng, 0.5).size(), MaxWordsBytes(comment_words, 7));
    ASSERT_LE(SupplierComment(&rng, 0.5).size(),
              MaxWordsBytes(comment_words, 6));
    ASSERT_LE(PartName(&rng).size(), MaxWordsBytes(TextPools::NameWords(), 5));
    ASSERT_LE(Address(&rng).size(), kMaxAddressBytes);
    ASSERT_EQ(Phone(&rng, i % 25).size(), kPhoneBytes);
  }
  // The planted words are no longer than the pool's longest.
  for (const std::string planted :
       {"special", "requests", "Customer", "Complaints"}) {
    EXPECT_LE(planted.size(), MaxWordsBytes(comment_words, 1));
  }
}

}  // namespace
}  // namespace elastic::tpch
