#ifndef ELASTICORE_TPCH_TEXT_H_
#define ELASTICORE_TPCH_TEXT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "simcore/rng.h"

namespace elastic::tpch {

/// Word pools and string builders for the TPC-H text columns. The pools
/// follow the TPC-H specification closely enough that every predicate used
/// by Q1..Q22 (p_name LIKE '%green%', o_comment LIKE '%special%requests%',
/// p_type = 'ECONOMY ANODIZED STEEL', ...) selects with realistic rates.
class TextPools {
 public:
  /// Words used to compose p_name (contains "green" and "forest" for Q9 and
  /// Q20).
  static const std::vector<std::string>& NameWords();

  /// p_type syllables: TYPE_S1 x TYPE_S2 x TYPE_S3 (150 combinations).
  static const std::vector<std::string>& TypeS1();
  static const std::vector<std::string>& TypeS2();
  static const std::vector<std::string>& TypeS3();

  /// p_container syllables: CNTR_S1 x CNTR_S2 (40 combinations).
  static const std::vector<std::string>& ContainerS1();
  static const std::vector<std::string>& ContainerS2();

  static const std::vector<std::string>& Segments();
  static const std::vector<std::string>& Priorities();
  static const std::vector<std::string>& ShipModes();
  static const std::vector<std::string>& ShipInstructs();

  /// 25 nations with their region keys, in nationkey order.
  struct NationSpec {
    const char* name;
    int region;
  };
  static const std::vector<NationSpec>& Nations();
  static const std::vector<std::string>& Regions();

  /// Filler vocabulary for comments.
  static const std::vector<std::string>& CommentWords();
};

/// Most bytes a string of `words` words drawn from `pool` takes: every word
/// the pool's longest, one space between each two. The words a planted
/// comment fixes ("special", "requests", "Customer", "Complaints") are no
/// longer than the comment pool's longest, so this bounds OrderComment
/// (7 words) and SupplierComment (6) too. The generator reserves each
/// string heap by it.
size_t MaxWordsBytes(const std::vector<std::string>& pool, int words);

/// Length of every Phone().
inline constexpr size_t kPhoneBytes = 15;
/// Longest Address().
inline constexpr size_t kMaxAddressBytes = 30;

/// Random sentence of `words` words from the comment vocabulary.
std::string RandomComment(simcore::Rng* rng, int words);

/// Comment that contains "...special...requests..." with probability `p`
/// (drives Q13's NOT LIKE predicate).
std::string OrderComment(simcore::Rng* rng, double p);

/// Comment that contains "...Customer...Complaints..." with probability `p`
/// (drives Q16's NOT LIKE predicate).
std::string SupplierComment(simcore::Rng* rng, double p);

/// p_name: five space-separated name words.
std::string PartName(simcore::Rng* rng);

/// Phone number in the spec format "CC-LLL-LLL-LLLL" where CC encodes the
/// nation (10 + nationkey), so Q22's substring(c_phone, 1, 2) works.
std::string Phone(simcore::Rng* rng, int nationkey);

/// Pseudo-random v-string addresses.
std::string Address(simcore::Rng* rng);

}  // namespace elastic::tpch

#endif  // ELASTICORE_TPCH_TEXT_H_
