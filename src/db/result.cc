#include "db/result.h"

#include <algorithm>
#include <cstdio>

#include "simcore/check.h"

namespace elastic::db {

Value Value::I64(int64_t v) {
  Value value;
  value.kind_ = Kind::kI64;
  value.i_ = v;
  return value;
}

Value Value::F64(double v) {
  Value value;
  value.kind_ = Kind::kF64;
  value.f_ = v;
  return value;
}

Value Value::Str(std::string_view v) {
  Value value;
  value.kind_ = Kind::kStr;
  value.s_ = std::string(v);
  return value;
}

int64_t Value::i64() const {
  ELASTIC_CHECK(kind_ == Kind::kI64, "value is not i64");
  return i_;
}

double Value::f64() const {
  ELASTIC_CHECK(kind_ == Kind::kF64, "value is not f64");
  return f_;
}

const std::string& Value::str() const {
  ELASTIC_CHECK(kind_ == Kind::kStr, "value is not str");
  return s_;
}

int Value::Compare(const Value& other) const {
  ELASTIC_CHECK(kind_ == other.kind_, "comparing values of different kinds");
  switch (kind_) {
    case Kind::kI64:
      if (i_ < other.i_) return -1;
      if (i_ > other.i_) return 1;
      return 0;
    case Kind::kF64:
      if (f_ < other.f_) return -1;
      if (f_ > other.f_) return 1;
      return 0;
    case Kind::kStr:
      return s_.compare(other.s_) < 0 ? -1 : (s_ == other.s_ ? 0 : 1);
  }
  return 0;
}

std::string Value::ToString() const {
  char buffer[32];
  switch (kind_) {
    case Kind::kI64:
      std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(i_));
      return buffer;
    case Kind::kF64:
      std::snprintf(buffer, sizeof(buffer), "%.2f", f_);
      return buffer;
    case Kind::kStr:
      return s_;
  }
  return "";
}

const Value& QueryResult::at(int64_t row, int64_t col) const {
  ELASTIC_CHECK(row >= 0 && row < num_rows(), "row out of range");
  const auto& r = rows[static_cast<size_t>(row)];
  ELASTIC_CHECK(col >= 0 && col < static_cast<int64_t>(r.size()), "col out of range");
  return r[static_cast<size_t>(col)];
}

void QueryResult::Sort(const std::vector<OrderBy>& spec) {
  std::stable_sort(rows.begin(), rows.end(),
                   [&spec](const std::vector<Value>& a, const std::vector<Value>& b) {
                     for (const OrderBy& key : spec) {
                       const int c = a[static_cast<size_t>(key.column)].Compare(
                           b[static_cast<size_t>(key.column)]);
                       if (c != 0) return key.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
}

void QueryResult::Limit(int64_t n) {
  if (num_rows() > n) rows.resize(static_cast<size_t>(n));
}

std::string QueryResult::ToString(int64_t max_rows) const {
  std::string out;
  for (size_t c = 0; c < column_names.size(); ++c) {
    if (c > 0) out += " | ";
    out += column_names[c];
  }
  out += "\n";
  const int64_t shown = std::min<int64_t>(max_rows, num_rows());
  for (int64_t r = 0; r < shown; ++r) {
    const auto& row = rows[static_cast<size_t>(r)];
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += " | ";
      out += row[c].ToString();
    }
    out += "\n";
  }
  if (shown < num_rows()) {
    out += "... (" + std::to_string(num_rows() - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace elastic::db
