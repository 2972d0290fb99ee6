#ifndef ELASTICORE_DB_KERNELS_HASH_H_
#define ELASTICORE_DB_KERNELS_HASH_H_

// Hash primitives shared by the batch kernels: a 64-bit finalizer for
// open-addressing slot indices and a word-granular FNV-1a step used to fold
// multi-column integer group keys into one hash.

#include <cstddef>
#include <cstdint>

namespace elastic::db::kernels {

/// Murmur3 finalizer: full-avalanche mix of a 64-bit value. Used to derive
/// slot indices so that dense keys (TPC-H surrogate keys, dictionary codes)
/// spread over the whole table instead of clustering.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// One FNV-1a step at word granularity.
inline uint64_t Fnv1aWord(uint64_t h, uint64_t word) {
  return (h ^ word) * kFnvPrime;
}

/// Smallest power of two >= n (and >= 16): open-addressing capacities stay
/// powers of two so the probe sequence uses a mask instead of a modulo.
inline size_t NextPow2Capacity(size_t n) {
  size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace elastic::db::kernels

#endif  // ELASTICORE_DB_KERNELS_HASH_H_
