#ifndef ELASTICORE_DB_RESULT_H_
#define ELASTICORE_DB_RESULT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace elastic::db {

/// A scalar result cell.
class Value {
 public:
  enum class Kind { kI64, kF64, kStr };

  static Value I64(int64_t v);
  static Value F64(double v);
  /// Copies `v`: a result row owns its strings, while columns hand out
  /// views into their heaps and dictionaries.
  static Value Str(std::string_view v);

  Kind kind() const { return kind_; }
  int64_t i64() const;
  double f64() const;
  const std::string& str() const;

  /// Total order used by ORDER BY (values must have equal kinds).
  int Compare(const Value& other) const;

  std::string ToString() const;

 private:
  Kind kind_ = Kind::kI64;
  int64_t i_ = 0;
  double f_ = 0.0;
  std::string s_;
};

/// Row-major query result with ORDER BY / LIMIT helpers for the final
/// presentation step of each query.
struct QueryResult {
  std::string query;
  std::vector<std::string> column_names;
  std::vector<std::vector<Value>> rows;

  int64_t num_rows() const { return static_cast<int64_t>(rows.size()); }
  const Value& at(int64_t row, int64_t col) const;

  /// Sort spec: (column index, ascending?) applied in order.
  struct OrderBy {
    int column = 0;
    bool ascending = true;
  };

  void Sort(const std::vector<OrderBy>& spec);
  void Limit(int64_t n);

  /// Rendered as an aligned text table (examples / debugging).
  std::string ToString(int64_t max_rows = 25) const;
};

}  // namespace elastic::db

#endif  // ELASTICORE_DB_RESULT_H_
