#ifndef ELASTICORE_DB_OPERATORS_H_
#define ELASTICORE_DB_OPERATORS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "db/kernels/hash_table.h"
#include "db/kernels/select.h"
#include "simcore/check.h"

namespace elastic::db {

/// Selection vector: ascending row ids into a column (MonetDB candidate
/// list). The functional executor is selection-vector based, operator-at-a-
/// time, mirroring the MAL plans the paper analyses.
using SelVec = std::vector<int64_t>;

/// Full-column selection: rows of `col` satisfying `pred`. Chunked,
/// branch-light store path (see db/kernels/select.h).
template <typename T, typename Pred>
SelVec SelectWhere(const std::vector<T>& col, Pred pred) {
  return kernels::SelectWhere(col, std::move(pred));
}

/// Candidate-list selection: rows of `in` whose `col` value satisfies `pred`.
template <typename T, typename Pred>
SelVec Refine(const std::vector<T>& col, const SelVec& in, Pred pred) {
  return kernels::Refine(col, in, std::move(pred));
}

/// Positional gather (MAL projection): col[rows].
template <typename T>
std::vector<T> Gather(const std::vector<T>& col, const SelVec& rows) {
  return kernels::Gather(col, rows);
}

/// Equi-join on int64 keys, hash build + probe over an open-addressing
/// table with a flat grouped payload (db/kernels/hash_table.h). Build rows
/// and probe rows are returned as parallel row-id vectors.
class HashJoin {
 public:
  using RowSpan = kernels::JoinHashTable::RowSpan;

  /// Builds on `keys` (optionally restricted to `rows`). The stored build
  /// row ids are positions in the underlying table.
  void Build(const std::vector<int64_t>& keys, const SelVec* rows = nullptr) {
    table_.Build(keys, rows);
  }

  /// Pre-reserves the build side for `expected_rows` entries.
  void Reserve(size_t expected_rows) { table_.Reserve(expected_rows); }

  struct Pairs {
    SelVec build_rows;
    SelVec probe_rows;
    size_t size() const { return build_rows.size(); }
  };

  /// Probes with `keys` (optionally restricted to `rows`); every match
  /// contributes one (build_row, probe_row) pair. Output vectors are sized
  /// exactly before they are filled, so high-fanout probes never
  /// reallocate: a dense build side counts its matches in a pre-pass, a
  /// hashed one looks each key up once and keeps only the matches.
  Pairs Probe(const std::vector<int64_t>& keys, const SelVec* rows = nullptr) const;

  /// Semi-join test.
  bool Contains(int64_t key) const { return table_.Contains(key); }

  /// Number of build rows holding this key.
  int64_t CountOf(int64_t key) const { return table_.CountOf(key); }

  /// Build rows holding this key (empty span when absent), contiguous and
  /// in build-insertion order.
  RowSpan RowsOf(int64_t key) const { return table_.RowsOf(key); }

  size_t num_keys() const { return table_.num_keys(); }

  /// Storage growths across Build()/Reserve() calls (see JoinHashTable).
  int64_t build_allocations() const { return table_.build_allocations(); }

 private:
  kernels::JoinHashTable table_;
};

/// Multi-column group-by over integer keys: feed key columns (all aligned
/// to the same row set), Finish() assigns dense group ids in
/// first-occurrence order.
///
/// Finish() folds each row's keys into one FNV-1a hash, a word per key, and
/// groups through an open-addressing table that verifies every match
/// against the group's representative row, with no per-row allocation. A
/// string key groups by an integer that stands for it: a dictionary code or
/// the key of a dimension row (Q7 and Q9 group by nation key and decode the
/// names per result row).
class Grouper {
 public:
  void AddI64Key(std::vector<int64_t> values);

  /// Cardinality hint: Finish() sizes its group-key table for this many
  /// groups up front, so an accurate hint means zero doubling rehashes.
  void set_expected_groups(int64_t groups) {
    expected_groups_ = std::max<int64_t>(groups, 1);
  }

  /// Computes group ids; all key columns must have equal length.
  void Finish();

  int64_t num_rows() const { return num_rows_; }
  int64_t num_groups() const { return num_groups_; }
  /// Group id of each input row.
  const std::vector<int64_t>& group_of() const { return group_of_; }
  /// A representative input row of each group (for key materialisation).
  const std::vector<int64_t>& representative_rows() const { return rep_rows_; }

  int64_t I64KeyOfGroup(int key_index, int64_t group) const;

  /// Doubling rehashes the group-key table performed during Finish().
  int64_t table_rehashes() const { return table_rehashes_; }

 private:
  std::vector<std::vector<int64_t>> keys_;
  std::vector<int64_t> group_of_;
  std::vector<int64_t> rep_rows_;
  int64_t expected_groups_ = 64;
  int64_t num_rows_ = 0;
  int64_t num_groups_ = 0;
  int64_t table_rehashes_ = 0;
  bool finished_ = false;
};

// ---- Per-group aggregates over gathered value vectors. ----

std::vector<double> SumPerGroup(const std::vector<double>& values,
                                const std::vector<int64_t>& group_of,
                                int64_t num_groups);

/// Scalar aggregate.
double Sum(const std::vector<double>& values);

}  // namespace elastic::db

#endif  // ELASTICORE_DB_OPERATORS_H_
