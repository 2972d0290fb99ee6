#ifndef ELASTICORE_DB_LIKE_H_
#define ELASTICORE_DB_LIKE_H_

#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "db/column.h"

namespace elastic::db {

/// SQL LIKE helpers covering the patterns TPC-H uses. All matching is
/// case-sensitive, as in the benchmark.

/// 'prefix%'.
bool LikeStartsWith(std::string_view haystack, std::string_view prefix);

/// '%suffix'.
bool LikeEndsWith(std::string_view haystack, std::string_view suffix);

/// '%a%b%...%': the needles must appear in order, non-overlapping
/// (Q13's '%special%requests%', Q16's '%Customer%Complaints%'; '%green%'
/// is the one-needle case). The needles are views, so a call copies no
/// string.
bool LikeContainsSeq(std::string_view haystack,
                     std::initializer_list<std::string_view> needles);

/// The rows of `column` that match '%a%b%...%', ascending, found by sweeping
/// its heap instead of searching row by row: memmem finds the first needle
/// anywhere in the heap, a cursor over the offsets maps the hit to its row,
/// a hit that straddles two rows is dropped, and the other needles are
/// searched in the rest of that row only. Then the sweep moves on to the
/// next row, since a later hit of the first needle in the same row can
/// only leave less room for the rest. A row without the first needle costs
/// one step of the cursor. The same rows as LikeContainsSeq on every row.
std::vector<int64_t> LikeSeqRows(
    const StringHeap& column, std::initializer_list<std::string_view> needles);

/// substring(s, 1, n) — SQL 1-based prefix extraction (Q22 country codes),
/// a view into `s`.
std::string_view SqlSubstring(std::string_view s, int from1, int len);

}  // namespace elastic::db

#endif  // ELASTICORE_DB_LIKE_H_
