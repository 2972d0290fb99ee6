#include "db/like.h"

#include <string.h>

#include <numeric>

namespace elastic::db {

namespace {

/// Whether the needles [first, last) appear in `text` in order, each after
/// the end of the one before. The leftmost hit of each needle leaves the
/// most room for the rest, so one search per needle decides.
bool ContainsInOrder(std::string_view text, const std::string_view* first,
                     const std::string_view* last) {
  size_t pos = 0;
  for (; first != last; ++first) {
    const size_t found = text.find(*first, pos);
    if (found == std::string_view::npos) return false;
    pos = found + first->size();
  }
  return true;
}

}  // namespace

bool LikeStartsWith(std::string_view haystack, std::string_view prefix) {
  return haystack.substr(0, prefix.size()) == prefix;
}

bool LikeEndsWith(std::string_view haystack, std::string_view suffix) {
  if (suffix.size() > haystack.size()) return false;
  return haystack.substr(haystack.size() - suffix.size()) == suffix;
}

bool LikeContainsSeq(std::string_view haystack,
                     std::initializer_list<std::string_view> needles) {
  return ContainsInOrder(haystack, needles.begin(), needles.end());
}

std::vector<int64_t> LikeSeqRows(
    const StringHeap& column, std::initializer_list<std::string_view> needles) {
  std::vector<int64_t> rows;
  // An empty needle matches anywhere without moving on: the sweep runs on
  // the first needle that is not empty, and with none every row matches.
  const std::string_view* first = needles.begin();
  while (first != needles.end() && first->empty()) ++first;
  if (first == needles.end()) {
    rows.resize(column.size());
    std::iota(rows.begin(), rows.end(), int64_t{0});
    return rows;
  }
  const std::string_view lead = *first;
  const std::string_view heap = column.bytes();
  const std::vector<uint32_t>& offsets = column.offsets();
  size_t pos = 0;
  size_t row = 0;
  while (pos < heap.size()) {
    const void* hit = memmem(heap.data() + pos, heap.size() - pos, lead.data(),
                             lead.size());
    if (hit == nullptr) break;
    const size_t at = static_cast<size_t>(static_cast<const char*>(hit) -
                                          heap.data());
    // The row whose bytes hold the hit; empty rows hold none.
    while (offsets[row + 1] <= at) ++row;
    const size_t end = offsets[row + 1];
    const size_t after = at + lead.size();
    if (after <= end && ContainsInOrder(heap.substr(after, end - after),
                                        first + 1, needles.end())) {
      rows.push_back(static_cast<int64_t>(row));
    }
    pos = end;
    ++row;
  }
  return rows;
}

std::string_view SqlSubstring(std::string_view s, int from1, int len) {
  if (from1 < 1) from1 = 1;
  const size_t start = static_cast<size_t>(from1 - 1);
  if (start >= s.size()) return {};
  return s.substr(start, static_cast<size_t>(len));
}

}  // namespace elastic::db
