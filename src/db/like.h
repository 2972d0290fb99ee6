#ifndef ELASTICORE_DB_LIKE_H_
#define ELASTICORE_DB_LIKE_H_

#include <initializer_list>
#include <string>
#include <string_view>

namespace elastic::db {

/// SQL LIKE helpers covering the patterns TPC-H uses. All matching is
/// case-sensitive, as in the benchmark.

/// '%needle%'.
bool LikeContains(const std::string& haystack, const std::string& needle);

/// 'prefix%'.
bool LikeStartsWith(const std::string& haystack, const std::string& prefix);

/// '%suffix'.
bool LikeEndsWith(const std::string& haystack, const std::string& suffix);

/// '%a%b%...%': the needles must appear in order, non-overlapping
/// (Q13's '%special%requests%', Q16's '%Customer%Complaints%'). The needles
/// are views, so a call copies no string.
bool LikeContainsSeq(std::string_view haystack,
                     std::initializer_list<std::string_view> needles);

/// substring(s, 1, n) — SQL 1-based prefix extraction (Q22 country codes).
std::string SqlSubstring(const std::string& s, int from1, int len);

}  // namespace elastic::db

#endif  // ELASTICORE_DB_LIKE_H_
