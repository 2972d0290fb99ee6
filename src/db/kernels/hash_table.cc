#include "db/kernels/hash_table.h"

#include <limits>

namespace elastic::db::kernels {

void JoinHashTable::Reserve(size_t expected_rows) {
  // Dense mode may need up to 2n+16 slots (the range admission bound);
  // sparse mode needs the next power of two above 2n. Reserve the larger so
  // either addressing mode of the coming Build() allocates nothing.
  const size_t slot_cap =
      std::max(NextPow2Capacity(expected_rows * 2), expected_rows * 2 + 16);
  if (slot_cap > slots_.capacity()) {
    build_allocations_++;
    slots_.reserve(slot_cap);
  }
  if (expected_rows > rows_.capacity()) {
    build_allocations_++;
    rows_.reserve(expected_rows);
  }
}

void JoinHashTable::ResetFilter(uint64_t range) {
  const size_t words = static_cast<size_t>((range + 63) / 64);
  if (words > filter_.capacity()) build_allocations_++;
  filter_.assign(words, 0);
}

void JoinHashTable::Build(const std::vector<int64_t>& keys,
                          const std::vector<int64_t>* rows) {
  const int64_t n = rows != nullptr ? static_cast<int64_t>(rows->size())
                                    : static_cast<int64_t>(keys.size());
  ELASTIC_CHECK(n <= INT32_MAX, "join build side exceeds 2^31 rows");
  num_keys_ = 0;
  if (static_cast<size_t>(n) > rows_.capacity()) build_allocations_++;
  rows_.resize(static_cast<size_t>(n));

  auto row_at = [&](int64_t i) {
    return rows != nullptr ? (*rows)[static_cast<size_t>(i)] : i;
  };

  // Key range scan decides the addressing mode.
  int64_t mn = std::numeric_limits<int64_t>::max();
  int64_t mx = std::numeric_limits<int64_t>::min();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t key = keys[static_cast<size_t>(row_at(i))];
    if (key < mn) mn = key;
    if (key > mx) mx = key;
  }
  const uint64_t range =
      n == 0 ? 0 : static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn) + 1;
  // range == 0 can only mean uint64 wrap-around (full int64 span): sparse.
  dense_ = n > 0 && range != 0 && range <= 2 * static_cast<uint64_t>(n) + 16;
  const bool filtered = !dense_ && FilterAdmits(range, keys.size());
  min_key_ = n > 0 ? mn : 0;
  max_key_ = n > 0 ? mx : -1;
  key_set_ = false;
  bits_only_ = false;

  // assign() reuses the existing heap block whenever it is large enough, so
  // steady-state rebuilds at a stable cardinality allocate nothing; clear()
  // keeps the filter's block for the next filtered build.
  if (filtered) {
    ResetFilter(range);
  } else {
    filter_.clear();
  }
  if (dense_) {
    if (static_cast<size_t>(range) > slots_.capacity()) build_allocations_++;
    slots_.assign(static_cast<size_t>(range), Slot{});
    mask_ = 0;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t key = keys[static_cast<size_t>(row_at(i))];
      Slot& slot = slots_[static_cast<size_t>(key - mn)];
      if (slot.count == 0) num_keys_++;
      slot.count++;
    }
  } else {
    const size_t cap = NextPow2Capacity(static_cast<size_t>(n) * 2);
    if (cap > slots_.capacity()) build_allocations_++;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    // Pass 1: claim a slot per distinct key, count its entries and set its
    // filter bit.
    for (int64_t i = 0; i < n; ++i) {
      const int64_t key = keys[static_cast<size_t>(row_at(i))];
      if (filtered) {
        const uint64_t offset =
            static_cast<uint64_t>(key) - static_cast<uint64_t>(mn);
        filter_[offset >> 6] |= uint64_t{1} << (offset & 63);
      }
      size_t s = Mix64(static_cast<uint64_t>(key)) & mask_;
      while (slots_[s].count != 0 && slots_[s].key != key) s = (s + 1) & mask_;
      if (slots_[s].count == 0) {
        slots_[s].key = key;
        num_keys_++;
      }
      slots_[s].count++;
    }
  }

  // Assign each key's contiguous region of the payload array.
  int32_t running = 0;
  for (Slot& slot : slots_) {
    if (slot.count == 0) continue;
    slot.offset = running;
    running += slot.count;
  }

  // Pass 2: scatter rows, bumping offsets as fill cursors (restored after).
  if (dense_) {
    for (int64_t i = 0; i < n; ++i) {
      const int64_t row = row_at(i);
      const int64_t key = keys[static_cast<size_t>(row)];
      rows_[static_cast<size_t>(
          slots_[static_cast<size_t>(key - mn)].offset++)] = row;
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      const int64_t row = row_at(i);
      const int64_t key = keys[static_cast<size_t>(row)];
      size_t s = Mix64(static_cast<uint64_t>(key)) & mask_;
      while (slots_[s].key != key || slots_[s].count == 0) s = (s + 1) & mask_;
      rows_[static_cast<size_t>(slots_[s].offset++)] = row;
    }
  }
  for (Slot& slot : slots_) slot.offset -= slot.count;
}

}  // namespace elastic::db::kernels
