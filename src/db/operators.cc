#include "db/operators.h"

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
  // pure streaming and beats materialising anything. Hashed build sides
  // look each probe key up once and keep only the matches, so the scratch
  // grows with the matches, not with the probe rows, and the fill pass
  // does no hashing.
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

  struct Hit {
    int64_t row;
    RowSpan span;
  };
  std::vector<Hit> hits;
  size_t total = 0;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t row = row_at(i);
    const RowSpan span = table_.RowsOf(keys[static_cast<size_t>(row)]);
    if (span.empty()) continue;
    hits.push_back(Hit{row, span});
    total += span.size();
  }
  pairs.build_rows.reserve(total);
  pairs.probe_rows.reserve(total);
  for (const Hit& hit : hits) {
    for (int64_t build_row : hit.span) {
      pairs.build_rows.push_back(build_row);
      pairs.probe_rows.push_back(hit.row);
    }
  }
  return pairs;
}

void Grouper::AddI64Key(std::vector<int64_t> values) {
  ELASTIC_CHECK(!finished_, "Grouper already finished");
  keys_.push_back(std::move(values));
}

void Grouper::Finish() {
  ELASTIC_CHECK(!finished_, "Grouper already finished");
  ELASTIC_CHECK(!keys_.empty(), "Grouper needs at least one key");
  finished_ = true;
  num_rows_ = static_cast<int64_t>(keys_[0].size());
  for (const std::vector<int64_t>& key : keys_) {
    ELASTIC_CHECK(static_cast<int64_t>(key.size()) == num_rows_,
                  "group key columns have unequal lengths");
  }

  // One FNV-1a step per key, and a hash match is verified against the
  // group's representative row: no row allocates.
  kernels::GroupKeyTable table(static_cast<size_t>(expected_groups_));
  group_of_.resize(static_cast<size_t>(num_rows_));
  for (int64_t row = 0; row < num_rows_; ++row) {
    const size_t r = static_cast<size_t>(row);
    uint64_t h = kernels::kFnvOffset;
    for (const std::vector<int64_t>& key : keys_) {
      h = kernels::Fnv1aWord(h, static_cast<uint64_t>(key[r]));
    }
    const int64_t gid = table.FindOrInsertHashed(
        kernels::Mix64(h), num_groups_, [&](int64_t g) {
      const size_t rep = static_cast<size_t>(rep_rows_[static_cast<size_t>(g)]);
      for (const std::vector<int64_t>& key : keys_) {
        if (key[rep] != key[r]) return false;
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
  return keys_[static_cast<size_t>(key_index)]
              [static_cast<size_t>(rep_rows_[static_cast<size_t>(group)])];
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

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

}  // namespace elastic::db
