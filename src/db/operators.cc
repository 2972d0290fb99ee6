#include "db/operators.h"

#include <limits>

#include "db/kernels/hash.h"

namespace elastic::db {

HashJoin::Pairs HashJoin::Probe(const std::vector<int64_t>& keys,
                                const SelVec* rows) const {
  const int64_t n = rows != nullptr ? static_cast<int64_t>(rows->size())
                                    : static_cast<int64_t>(keys.size());
  auto row_at = [&](int64_t i) {
    return rows != nullptr ? (*rows)[static_cast<size_t>(i)] : i;
  };

  // Exact pre-reservation, two ways. Dense build sides make lookups a
  // bounds check plus a direct index, so counting and then re-resolving is
  // pure streaming and beats materialising anything. Sparse build sides
  // pay a linear-probe chain per lookup, so there the pre-pass keeps each
  // resolved span in a scratch vector and the fill pass does no hashing.
  Pairs pairs;
  if (table_.is_dense()) {
    size_t total = 0;
    for (int64_t i = 0; i < n; ++i) {
      total += static_cast<size_t>(
          table_.CountOf(keys[static_cast<size_t>(row_at(i))]));
    }
    pairs.build_rows.reserve(total);
    pairs.probe_rows.reserve(total);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t row = row_at(i);
      for (int64_t build_row : table_.RowsOf(keys[static_cast<size_t>(row)])) {
        pairs.build_rows.push_back(build_row);
        pairs.probe_rows.push_back(row);
      }
    }
    return pairs;
  }

  std::vector<RowSpan> spans(static_cast<size_t>(n));
  size_t total = 0;
  for (int64_t i = 0; i < n; ++i) {
    const RowSpan span = table_.RowsOf(keys[static_cast<size_t>(row_at(i))]);
    spans[static_cast<size_t>(i)] = span;
    total += span.size();
  }
  pairs.build_rows.reserve(total);
  pairs.probe_rows.reserve(total);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t row = row_at(i);
    for (int64_t build_row : spans[static_cast<size_t>(i)]) {
      pairs.build_rows.push_back(build_row);
      pairs.probe_rows.push_back(row);
    }
  }
  return pairs;
}

void Grouper::AddI64Key(std::vector<int64_t> values) {
  ELASTIC_CHECK(!finished_, "Grouper already finished");
  KeyCol key;
  key.i64 = std::move(values);
  keys_.push_back(std::move(key));
}

void Grouper::AddStrKey(const std::vector<std::string>& column,
                        const SelVec& rows) {
  ELASTIC_CHECK(!finished_, "Grouper already finished");
  KeyCol key;
  key.column = &column;
  key.rows = &rows;
  keys_.push_back(std::move(key));
}

void Grouper::Finish() {
  ELASTIC_CHECK(!finished_, "Grouper already finished");
  ELASTIC_CHECK(!keys_.empty(), "Grouper needs at least one key");
  finished_ = true;
  num_rows_ = keys_[0].size();
  for (const KeyCol& key : keys_) {
    ELASTIC_CHECK(key.size() == num_rows_,
                  "group key columns have unequal lengths");
  }

  // Each row's keys fold into a 16-byte hashed key and group through the
  // open-addressing table. No per-row heap encoding. The packed fast path
  // covers the common case of short dictionary-style strings; both paths
  // assign dense ids in first-occurrence order with exact key equality, so
  // they produce identical groupings.
  if (!FinishPacked()) FinishGeneric();
}

// Fast path: every string key value fits 15 bytes (TPC-H flags, statuses,
// ship modes, priorities, brands, containers, nation names), so each key
// column collapses to at most two canonical 64-bit words per row
// (kernels::PackString15; int64 values are one word verbatim). Rows then
// group over flat words: hashing is two multiplies per word and equality
// is a word compare against the group's stored words — no string traffic
// and no per-row allocation anywhere. Returns false (state reset) on the
// first over-long string; Finish() falls back to the generic path.
bool Grouper::FinishPacked() {
  constexpr size_t kMaxCols = 16;
  const size_t num_cols = keys_.size();
  if (num_cols > kMaxCols) return false;
  size_t stride = 0;  // packed words per row
  for (const KeyCol& key : keys_) stride += key.is_str() ? 2 : 1;
  kernels::GroupKeyTable table(static_cast<size_t>(expected_groups_));
  std::vector<uint64_t> group_words;  // `stride` packed words per group
  group_words.reserve(static_cast<size_t>(expected_groups_) * stride);
  group_of_.resize(static_cast<size_t>(num_rows_));
  for (int64_t row = 0; row < num_rows_; ++row) {
    const size_t r = static_cast<size_t>(row);
    uint64_t words[2 * kMaxCols];
    size_t w = 0;
    uint64_t h = kernels::kFnvOffset;
    for (size_t c = 0; c < num_cols; ++c) {
      const KeyCol& key = keys_[c];
      if (key.is_str()) {
        if (!kernels::PackString15(key.str_at(r), &words[w], &words[w + 1])) {
          // Abandon mid-stream: reset and let the generic path redo it.
          group_of_.clear();
          rep_rows_.clear();
          num_groups_ = 0;
          return false;
        }
        h = kernels::Fnv1aWord(h, words[w]);
        h = kernels::Fnv1aWord(h, words[w + 1]);
        w += 2;
      } else {
        words[w] = static_cast<uint64_t>(key.i64[r]);
        h = kernels::Fnv1aWord(h, words[w]);
        w += 1;
      }
    }
    const int64_t gid = table.FindOrInsertHashed(
        kernels::Mix64(h), num_groups_, [&](int64_t g) {
      const uint64_t* gw = group_words.data() + static_cast<size_t>(g) * stride;
      for (size_t i = 0; i < stride; ++i) {
        if (gw[i] != words[i]) return false;
      }
      return true;
    });
    if (gid == num_groups_) {
      rep_rows_.push_back(row);
      num_groups_++;
      group_words.insert(group_words.end(), words, words + stride);
    }
    group_of_[r] = gid;
  }
  table_rehashes_ = table.rehashes();
  return true;
}

// Generic path: arbitrary-length string keys, word-chunked FNV-1a hashing
// with exact comparison against the representative row.
void Grouper::FinishGeneric() {
  const size_t num_cols = keys_.size();
  kernels::GroupKeyTable table(static_cast<size_t>(expected_groups_));
  group_of_.resize(static_cast<size_t>(num_rows_));
  for (int64_t row = 0; row < num_rows_; ++row) {
    const size_t r = static_cast<size_t>(row);
    kernels::Hash128 h;
    for (size_t c = 0; c < num_cols; ++c) {
      const KeyCol& key = keys_[c];
      if (key.is_str()) {
        const std::string& value = key.str_at(r);
        h.UpdateBytes(value.data(), value.size());
      } else {
        h.Update(static_cast<uint64_t>(key.i64[r]));
      }
    }
    const int64_t gid = table.FindOrInsert(h, num_groups_, [&](int64_t g) {
      const size_t rep =
          static_cast<size_t>(rep_rows_[static_cast<size_t>(g)]);
      for (size_t c = 0; c < num_cols; ++c) {
        const KeyCol& key = keys_[c];
        if (key.is_str() ? key.str_at(r) != key.str_at(rep)
                         : key.i64[r] != key.i64[rep]) {
          return false;
        }
      }
      return true;
    });
    if (gid == num_groups_) {
      rep_rows_.push_back(row);
      num_groups_++;
    }
    group_of_[r] = gid;
  }
  table_rehashes_ = table.rehashes();
}

int64_t Grouper::I64KeyOfGroup(int key_index, int64_t group) const {
  ELASTIC_CHECK(finished_, "Grouper not finished");
  const KeyCol& key = keys_[static_cast<size_t>(key_index)];
  ELASTIC_CHECK(!key.is_str(), "key is a string");
  return key.i64[static_cast<size_t>(rep_rows_[static_cast<size_t>(group)])];
}

const std::string& Grouper::StrKeyOfGroup(int key_index, int64_t group) const {
  ELASTIC_CHECK(finished_, "Grouper not finished");
  const KeyCol& key = keys_[static_cast<size_t>(key_index)];
  ELASTIC_CHECK(key.is_str(), "key is not a string");
  return key.str_at(static_cast<size_t>(rep_rows_[static_cast<size_t>(group)]));
}

std::vector<double> SumPerGroup(const std::vector<double>& values,
                                const std::vector<int64_t>& group_of,
                                int64_t num_groups) {
  std::vector<double> out(static_cast<size_t>(num_groups), 0.0);
  for (size_t i = 0; i < values.size(); ++i) {
    out[static_cast<size_t>(group_of[i])] += values[i];
  }
  return out;
}

std::vector<int64_t> CountPerGroup(const std::vector<int64_t>& group_of,
                                   int64_t num_groups) {
  std::vector<int64_t> out(static_cast<size_t>(num_groups), 0);
  for (int64_t g : group_of) out[static_cast<size_t>(g)]++;
  return out;
}

std::vector<double> MinPerGroup(const std::vector<double>& values,
                                const std::vector<int64_t>& group_of,
                                int64_t num_groups) {
  std::vector<double> out(static_cast<size_t>(num_groups),
                          std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < values.size(); ++i) {
    const size_t g = static_cast<size_t>(group_of[i]);
    if (values[i] < out[g]) out[g] = values[i];
  }
  return out;
}

std::vector<double> MaxPerGroup(const std::vector<double>& values,
                                const std::vector<int64_t>& group_of,
                                int64_t num_groups) {
  std::vector<double> out(static_cast<size_t>(num_groups),
                          -std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < values.size(); ++i) {
    const size_t g = static_cast<size_t>(group_of[i]);
    if (values[i] > out[g]) out[g] = values[i];
  }
  return out;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

}  // namespace elastic::db
