#include "db/like.h"

namespace elastic::db {

bool LikeContains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

bool LikeStartsWith(const std::string& haystack, const std::string& prefix) {
  return haystack.compare(0, prefix.size(), prefix) == 0;
}

bool LikeEndsWith(const std::string& haystack, const std::string& suffix) {
  if (suffix.size() > haystack.size()) return false;
  return haystack.compare(haystack.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
}

bool LikeContainsSeq(std::string_view haystack,
                     std::initializer_list<std::string_view> needles) {
  size_t pos = 0;
  for (const std::string_view needle : needles) {
    const size_t found = haystack.find(needle, pos);
    if (found == std::string::npos) return false;
    pos = found + needle.size();
  }
  return true;
}

std::string SqlSubstring(const std::string& s, int from1, int len) {
  if (from1 < 1) from1 = 1;
  const size_t start = static_cast<size_t>(from1 - 1);
  if (start >= s.size()) return "";
  return s.substr(start, static_cast<size_t>(len));
}

}  // namespace elastic::db
