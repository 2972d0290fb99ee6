#ifndef ELASTICORE_DB_COLUMN_H_
#define ELASTICORE_DB_COLUMN_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace elastic::db {

/// Physical column type. Dates are stored as kI64 (days since epoch), and a
/// string column with a fixed domain as kCoded (see CodedStrings).
enum class ColType { kI64, kF64, kStr, kCoded };

/// Per-code outcome of a predicate over a coded column's dictionary: the
/// entry for code c says whether dict[c] satisfies it. One byte indexes it,
/// so a lookup never leaves the table.
using CodeSet = std::array<bool, 256>;

/// A fixed-domain string column (flags, statuses, modes, priorities,
/// segments, manufacturers, brands, types, containers): one byte per row,
/// and row r's value is dict[codes[r]]. Queries evaluate a string
/// predicate once per dictionary entry (Match) and then select and group on
/// the codes; only result rows decode.
struct CodedStrings {
  std::vector<uint8_t> codes;
  std::vector<std::string> dict;

  /// Row `row`'s value.
  const std::string& at(size_t row) const { return dict[codes[row]]; }

  /// The codes whose dictionary entry satisfies `pred`.
  template <typename Pred>
  CodeSet Match(Pred pred) const {
    CodeSet matches{};
    for (size_t code = 0; code < dict.size(); ++code) {
      matches[code] = pred(dict[code]);
    }
    return matches;
  }
};

/// One column of a table, MonetDB BAT style: a dense vector addressed by row
/// id. Only the vector matching `type` is populated.
///
/// For the machine simulation every column is modelled 8 bytes wide (the
/// BAT/dictionary-encoded representation MonetDB and SQL Server columnstore
/// read at scan time); `sim_width_bytes` can widen that for raw string
/// columns when a workload really scans them. The host executor reads the
/// fixed-domain string columns the same way, as dictionary codes
/// (kCoded); free text stays std::string (kStr).
struct Column {
  ColType type = ColType::kI64;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string> str;
  CodedStrings coded;
  int sim_width_bytes = 8;

  int64_t size() const {
    switch (type) {
      case ColType::kI64: return static_cast<int64_t>(i64.size());
      case ColType::kF64: return static_cast<int64_t>(f64.size());
      case ColType::kStr: return static_cast<int64_t>(str.size());
      case ColType::kCoded: return static_cast<int64_t>(coded.codes.size());
    }
    return 0;
  }

  int64_t sim_bytes() const { return size() * sim_width_bytes; }
};

/// A named collection of equal-length columns.
struct Table {
  std::string name;
  std::map<std::string, Column> columns;  // ordered => deterministic iteration

  int64_t num_rows() const {
    if (columns.empty()) return 0;
    return columns.begin()->second.size();
  }

  bool has(const std::string& column) const {
    return columns.find(column) != columns.end();
  }

  const Column& col(const std::string& column) const;
  Column& col(const std::string& column);

  /// Each accessor aborts unless the column has its type: a coded column
  /// has no per-row strings, so str() on one aborts.
  const std::vector<int64_t>& i64(const std::string& column) const;
  const std::vector<double>& f64(const std::string& column) const;
  const std::vector<std::string>& str(const std::string& column) const;
  const CodedStrings& coded(const std::string& column) const;
};

/// The eight TPC-H tables.
struct Database {
  Table region;
  Table nation;
  Table supplier;
  Table customer;
  Table part;
  Table partsupp;
  Table orders;
  Table lineitem;
  double scale_factor = 0.0;

  const Table& table(const std::string& name) const;
  std::vector<const Table*> AllTables() const;
};

}  // namespace elastic::db

#endif  // ELASTICORE_DB_COLUMN_H_
