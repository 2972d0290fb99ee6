#ifndef ELASTICORE_DB_KERNELS_HASH_TABLE_H_
#define ELASTICORE_DB_KERNELS_HASH_TABLE_H_

// Open-addressing hash tables for the join and group-by hot paths.
//
// Both tables are linear-probing with power-of-two capacity, flat slot
// arrays, and no deletion support (tombstone-free: query-lifetime build
// sides are built once and dropped whole). See README.md in this directory
// for the design rationale.
//
// Rebuilding a table never shrinks its storage: steady-state Build() calls
// at a stable cardinality perform zero allocations and zero rehashes (see
// build_allocations() / rehashes()).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "db/kernels/hash.h"
#include "db/kernels/select.h"
#include "simcore/check.h"

namespace elastic::db::kernels {

/// Multi-map from int64 key to build-row ids, built in counting passes into
/// a single flat payload array grouped by key: probe results for one key
/// are a contiguous span in build-insertion order, so fan-out iteration is
/// a pointer walk instead of a node-chain chase.
///
/// When the key range is no wider than ~2x the entry count — the normal
/// case for TPC-H surrogate keys, which are dense 1..N — the table switches
/// to direct addressing (slot = key - min, no hashing, no probing), the
/// moral equivalent of MonetDB's positional joins on void columns:
/// ascending probe keys then stream the slot and payload arrays
/// sequentially instead of scattering over them. Sparse or adversarial key
/// sets fall back to linear probing on a Mix64-scattered index.
///
/// A hashed build whose key range is small next to the key column it came
/// from (at most 64 keys per column entry, so the filter is never larger
/// than that column) also sets one bit per key over [min, max]: a probe
/// key outside the range or on a clear bit is rejected before any hashing,
/// which is what a selective build side (a few parts, one quarter's
/// orders) probed with a whole lineitem column mostly meets. Random 64-bit
/// keys get no filter and probe as before.
///
/// A semi-join needs less: BuildKeySet keeps a set of keys, which answers
/// Contains only. Under the same bound the set is the filter's bits alone,
/// with no slots and no row payload, so Contains is a range test and one
/// bit.
class JoinHashTable {
 public:
  /// Contiguous, immutable view of the build rows holding one key.
  struct RowSpan {
    const int64_t* data = nullptr;
    size_t len = 0;

    const int64_t* begin() const { return data; }
    const int64_t* end() const { return data + len; }
    size_t size() const { return len; }
    bool empty() const { return len == 0; }
    int64_t operator[](size_t i) const { return data[i]; }
  };

  /// Pre-reserves storage for a build side of `expected_rows` entries, so
  /// the following Build() of at most that cardinality allocates nothing
  /// for its slots and payload. The key filter's words depend on the key
  /// range, not the cardinality: they grow on the first filtered build of
  /// a wider range and are kept after it.
  void Reserve(size_t expected_rows);

  /// (Re)builds from `keys`, restricted to the candidate rows when `rows`
  /// is non-null. Stored row ids are positions in the underlying column.
  /// Storage is retained across rebuilds (never shrunk).
  void Build(const std::vector<int64_t>& keys,
             const std::vector<int64_t>* rows = nullptr);

  /// (Re)builds as the set of keys[i] over every row i with keep(i), and
  /// returns how many rows it kept. A key set answers Contains only;
  /// CountOf and RowsOf abort on it. When the range of the whole key column
  /// admits the key filter (at most 64 keys per entry), the set is the
  /// filter's bits alone, filled in one pass over the rows. A wider range
  /// falls back to a Build over the kept rows, which stays exact.
  template <typename Keep>
  int64_t BuildKeySet(const std::vector<int64_t>& keys, Keep keep);

  bool Contains(int64_t key) const {
    return bits_only_ ? InFilter(key) : FindSlot(key) >= 0;
  }

  int64_t CountOf(int64_t key) const {
    ELASTIC_CHECK(!key_set_, "a key set answers Contains only");
    const int64_t slot = FindSlot(key);
    return slot < 0 ? 0 : slots_[static_cast<size_t>(slot)].count;
  }

  RowSpan RowsOf(int64_t key) const {
    ELASTIC_CHECK(!key_set_, "a key set answers Contains only");
    const int64_t slot = FindSlot(key);
    if (slot < 0) return RowSpan{};
    const Slot& s = slots_[static_cast<size_t>(slot)];
    return RowSpan{rows_.data() + s.offset, static_cast<size_t>(s.count)};
  }

  /// Number of distinct keys.
  size_t num_keys() const { return num_keys_; }
  /// Number of inserted (key, row) entries.
  size_t num_entries() const { return rows_.size(); }
  size_t capacity() const { return slots_.size(); }
  /// Direct-addressing (dense key range) mode is active.
  bool is_dense() const { return dense_; }
  /// A hashed build or a key set carries the one-bit-per-key filter over
  /// [min, max].
  bool has_key_filter() const { return !filter_.empty(); }
  /// The last build was BuildKeySet.
  bool is_key_set() const { return key_set_; }
  /// Times Build()/Reserve() had to grow the slot, payload or filter
  /// storage. Flat across steady-state rebuilds at a stable cardinality
  /// and key range.
  int64_t build_allocations() const { return build_allocations_; }

 private:
  struct Slot {
    int64_t key = 0;
    int32_t offset = 0;
    int32_t count = 0;  // 0 marks an empty slot
  };

  /// Whether a key range of `range` keys (0: the full int64 span) admits
  /// the filter next to a key column of `column_entries` entries: its words
  /// are then no more than the column's entries.
  static bool FilterAdmits(uint64_t range, size_t column_entries) {
    return range != 0 && range <= 64 * static_cast<uint64_t>(column_entries);
  }

  /// Clears the filter to `range` bits, all zero. Every filtered build
  /// starts here, so no bit of an earlier build survives.
  void ResetFilter(uint64_t range);

  /// Offset `offset`'s filter bit, for a key inside [min, max].
  bool FilterBit(uint64_t offset) const {
    return ((filter_[offset >> 6] >> (offset & 63)) & 1) != 0;
  }

  /// A bits-only key set's lookup: the range test, then one bit.
  bool InFilter(int64_t key) const {
    if (key < min_key_ || key > max_key_) return false;
    return FilterBit(static_cast<uint64_t>(key) -
                     static_cast<uint64_t>(min_key_));
  }

  /// Slot index of `key`, or -1 when absent. Every build records its key
  /// range (an empty one rejects every key), so only keys inside it reach
  /// the slot array, the filter or the hash.
  int64_t FindSlot(int64_t key) const {
    if (key < min_key_ || key > max_key_) return -1;
    const uint64_t offset =
        static_cast<uint64_t>(key) - static_cast<uint64_t>(min_key_);
    if (dense_) {
      return slots_[offset].count != 0 ? static_cast<int64_t>(offset) : -1;
    }
    if (!filter_.empty() && !FilterBit(offset)) return -1;
    size_t i = Mix64(static_cast<uint64_t>(key)) & mask_;
    while (slots_[i].count != 0) {
      if (slots_[i].key == key) return static_cast<int64_t>(i);
      i = (i + 1) & mask_;
    }
    return -1;
  }

  std::vector<Slot> slots_;
  std::vector<int64_t> rows_;
  /// Bit (key - min_key_) is set for every key of a filtered hashed build
  /// or a bits-only key set; empty (capacity kept) when the build has no
  /// filter.
  std::vector<uint64_t> filter_;
  uint64_t mask_ = 0;
  size_t num_keys_ = 0;
  bool dense_ = false;
  /// Built by BuildKeySet: Contains only.
  bool key_set_ = false;
  /// A key set held in the filter's bits alone (no slots, no payload).
  bool bits_only_ = false;
  int64_t min_key_ = 0;
  int64_t max_key_ = -1;
  int64_t build_allocations_ = 0;
};

template <typename Keep>
int64_t JoinHashTable::BuildKeySet(const std::vector<int64_t>& keys,
                                   Keep keep) {
  const int64_t n = static_cast<int64_t>(keys.size());
  int64_t mn = std::numeric_limits<int64_t>::max();
  int64_t mx = std::numeric_limits<int64_t>::min();
  for (const int64_t key : keys) {
    mn = std::min(mn, key);
    mx = std::max(mx, key);
  }
  const uint64_t range =
      n == 0 ? 0 : static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn) + 1;
  if (n > 0 && !FilterAdmits(range, keys.size())) {
    std::vector<int64_t> rows;
    SelectIdxInto(n, keep, rows);
    Build(keys, &rows);
    key_set_ = true;
    return static_cast<int64_t>(rows.size());
  }
  key_set_ = true;
  bits_only_ = true;
  dense_ = false;
  slots_.clear();
  rows_.clear();
  mask_ = 0;
  min_key_ = n > 0 ? mn : 0;
  max_key_ = n > 0 ? mx : -1;
  ResetFilter(range);
  // One pass: every row stores its bit, a kept row's bit is 1. No branch
  // on `keep`, which a predictor would learn no better than a coin.
  int64_t kept = 0;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t offset =
        static_cast<uint64_t>(keys[static_cast<size_t>(i)]) -
        static_cast<uint64_t>(mn);
    const bool in = keep(i);
    filter_[offset >> 6] |= uint64_t{in} << (offset & 63);
    kept += in ? 1 : 0;
  }
  num_keys_ = 0;
  for (const uint64_t word : filter_) {
    num_keys_ += static_cast<size_t>(__builtin_popcountll(word));
  }
  return kept;
}

inline bool operator==(const JoinHashTable::RowSpan& span,
                       const std::vector<int64_t>& rows) {
  return std::equal(span.begin(), span.end(), rows.begin(), rows.end());
}

/// Open-addressing map from a hashed group key to a dense group id, growing
/// by doubling at 3/4 load. Slots hold the caller's fully mixed 64-bit hash.
/// Hash equality is a filter, not the verdict: the caller supplies an exact
/// comparison against the group's key, so results are independent of hash
/// quality.
class GroupKeyTable {
 public:
  explicit GroupKeyTable(size_t expected_groups = 0)
      : slots_(NextPow2Capacity(expected_groups * 2)),
        mask_(slots_.size() - 1) {}

  /// Grows capacity (once, up front) so `expected_groups` insertions stay
  /// under the 3/4 load factor without any doubling rehash.
  void Reserve(size_t expected_groups) {
    const size_t cap = NextPow2Capacity(expected_groups * 2);
    if (cap > slots_.size()) Rehash(cap);
  }

  /// Returns the group id of the key hashed to `hv` if present (per
  /// `equals_rep`, called with a candidate group id), otherwise inserts it
  /// with id `next_gid` and returns `next_gid`. `hv` must already be
  /// avalanched, e.g. through Mix64: the slot index is its low bits.
  template <typename EqRep>
  int64_t FindOrInsertHashed(uint64_t hv, int64_t next_gid,
                             EqRep&& equals_rep) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Rehash(slots_.size() * 2);
    size_t i = hv & mask_;
    while (slots_[i].gid >= 0) {
      if (slots_[i].hash == hv && equals_rep(slots_[i].gid)) {
        return slots_[i].gid;
      }
      i = (i + 1) & mask_;
    }
    slots_[i].hash = hv;
    slots_[i].gid = next_gid;
    size_++;
    return next_gid;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  /// Doubling rehashes since construction; 0 when the initial
  /// expected_groups hint (or Reserve) covered every insertion.
  int64_t rehashes() const { return rehashes_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    int64_t gid = -1;  // -1 marks an empty slot
  };

  void Rehash(size_t new_cap) {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(new_cap));
    mask_ = new_cap - 1;
    for (const Slot& s : old) {
      if (s.gid < 0) continue;
      size_t i = s.hash & mask_;
      while (slots_[i].gid >= 0) i = (i + 1) & mask_;
      slots_[i] = s;
    }
    if (size_ != 0) rehashes_++;  // empty-table reserve is not a rehash
  }

  std::vector<Slot> slots_;
  uint64_t mask_ = 0;
  size_t size_ = 0;
  int64_t rehashes_ = 0;
};

}  // namespace elastic::db::kernels

#endif  // ELASTICORE_DB_KERNELS_HASH_TABLE_H_
