#ifndef ELASTICORE_TESTS_DB_TEST_DB_H_
#define ELASTICORE_TESTS_DB_TEST_DB_H_

#include <cstdint>
#include <string>

#include "db/column.h"
#include "tpch/dbgen.h"

namespace elastic::testutil {

/// 64-bit FNV-1a over a serialized result or plan (golden digests).
inline uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Shared TPC-H instance at SF 0.01, generated once per test binary.
inline const db::Database& TestDb() {
  static const db::Database* kDb = [] {
    tpch::DbgenOptions options;
    options.scale_factor = 0.01;
    options.seed = 19920101;
    return new db::Database(tpch::Generate(options));
  }();
  return *kDb;
}

/// Bigger instance (SF 0.05) whose working set exceeds one socket's L3 —
/// required by the NUMA-effect comparison tests (at SF 0.01 everything is
/// cache-resident and placement is irrelevant, as on real hardware).
inline const db::Database& TestDbBig() {
  static const db::Database* kDb = [] {
    tpch::DbgenOptions options;
    options.scale_factor = 0.05;
    options.seed = 19920101;
    return new db::Database(tpch::Generate(options));
  }();
  return *kDb;
}

}  // namespace elastic::testutil

#endif  // ELASTICORE_TESTS_DB_TEST_DB_H_
