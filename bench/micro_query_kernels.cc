// Micro-kernel benchmark: rows/sec of the batch kernels (open-addressing
// join build, a dense and a selective join probe, integer-key group-by,
// fused 3-predicate select, the string-heap LIKE sweep)
// against the seed executor's scalar baselines (node-based
// std::unordered_map join, per-row std::string group encoding, three
// separate selection passes, a per-row search of one std::string per row)
// on TPC-H columns at SF 0.15. Each rate is the
// median of --reps runs, reported with its quartiles: single best runs
// moved by a third between regenerations.
//
// Also times the tpch::Generate call that builds those columns (dbgen_s,
// and lineitem rows per second as dbgen_rows_per_s).
//
// glibc raises its mmap threshold (and its heap-trim threshold with it) only
// when a large block is freed, so the regrowing vectors of each rep would map
// fresh pages or reuse warm heap depending on what generation happened to
// free. main() first fixes both: mmap at 32 MiB and trim at 64 MiB, the pair
// glibc's own scheme reaches at that mmap threshold. The trim threshold
// matters as much: with only the mmap one fixed, trimming stays at 128 KiB
// and every rep faults its buffers in again.
//
// Emits a human-readable table on stdout and machine-readable JSON to
// BENCH_micro_query_kernels.json (see bench_common.h for the convention).
//
// Usage: micro_query_kernels [--sf <scale>] [--reps <n>] [--out <path>]

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "db/column.h"
#include "db/date.h"
#include "db/kernels/hash.h"
#include "db/kernels/hash_table.h"
#include "db/kernels/select.h"
#include "db/like.h"
#include "db/operators.h"
#include "simcore/check.h"

namespace elastic::bench {
namespace {

using db::SelVec;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Folds a kernel's result into the printed checksum. FNV-1a, not XOR:
/// equal results of successive reps must not cancel.
void Fold(uint64_t* sink, uint64_t result) {
  *sink = db::kernels::Fnv1aWord(*sink, result);
}

/// Wall time of each of `reps` runs of `fn`. A kernel's results are folded
/// into `*sink`; a baseline passes no sink (its case CHECKs that it agrees
/// with the kernel), and its result is stored to a volatile so the work is
/// not optimised away.
template <typename Fn>
std::vector<double> TimeReps(int reps, uint64_t* sink, Fn&& fn) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const volatile uint64_t result = fn();
    seconds.push_back(SecondsSince(t0));
    if (sink != nullptr) Fold(sink, result);
  }
  return seconds;
}

/// Rows per second over a set of runs: the median and the quartiles.
struct Rate {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quantile `p` of ascending `values`, interpolated linearly between ranks.
double Quantile(const std::vector<double>& values, double p) {
  const double h = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(h);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Rate RateOf(int64_t rows, const std::vector<double>& seconds) {
  std::vector<double> rates;
  for (double s : seconds) rates.push_back(static_cast<double>(rows) / s);
  std::sort(rates.begin(), rates.end());
  return Rate{Quantile(rates, 0.25), Quantile(rates, 0.5), Quantile(rates, 0.75)};
}

// ---- Scalar baselines: verbatim ports of the seed executor's hot paths. --

uint64_t BaselineJoinBuild(const std::vector<int64_t>& keys) {
  std::unordered_map<int64_t, std::vector<int64_t>> map;
  for (int64_t i = 0; i < static_cast<int64_t>(keys.size()); ++i) {
    map[keys[static_cast<size_t>(i)]].push_back(i);
  }
  return map.size();
}

using BaselineMap = std::unordered_map<int64_t, std::vector<int64_t>>;

/// The seed's build side over the candidate `rows` of `keys`.
BaselineMap BaselineMapOf(const std::vector<int64_t>& keys,
                          const SelVec& rows) {
  BaselineMap map;
  for (int64_t row : rows) map[keys[static_cast<size_t>(row)]].push_back(row);
  return map;
}

uint64_t BaselineJoinProbe(const BaselineMap& map,
                           const std::vector<int64_t>& keys) {
  SelVec build_rows;
  SelVec probe_rows;
  for (int64_t i = 0; i < static_cast<int64_t>(keys.size()); ++i) {
    auto it = map.find(keys[static_cast<size_t>(i)]);
    if (it == map.end()) continue;
    for (int64_t build_row : it->second) {
      build_rows.push_back(build_row);
      probe_rows.push_back(i);
    }
  }
  return build_rows.size();
}

uint64_t BaselineGroupBy(const std::vector<std::string>& key1,
                         const std::vector<std::string>& key2,
                         const std::vector<int64_t>& key3) {
  std::unordered_map<std::string, int64_t> seen;
  std::vector<int64_t> group_of(key1.size());
  int64_t num_groups = 0;
  std::string encoded;
  for (size_t row = 0; row < key1.size(); ++row) {
    encoded.clear();
    encoded += key1[row];
    encoded += '\x01';
    encoded += key2[row];
    encoded += '\x01';
    const int64_t v = key3[row];
    encoded.append(reinterpret_cast<const char*>(&v), sizeof(v));
    encoded += '\x02';
    auto [it, inserted] = seen.emplace(encoded, num_groups);
    if (inserted) num_groups++;
    group_of[row] = it->second;
  }
  return static_cast<uint64_t>(num_groups) ^ static_cast<uint64_t>(group_of.back());
}

/// The matched rows folded into one word, so that a result is its rows.
uint64_t RowsDigest(const SelVec& rows) {
  uint64_t digest = db::kernels::kFnvOffset;
  for (int64_t row : rows) {
    digest = db::kernels::Fnv1aWord(digest, static_cast<uint64_t>(row));
  }
  return digest;
}

/// '%special%requests%' row by row over one std::string per row, as the
/// executor held free text before its string heaps.
SelVec BaselineLikeSeq(const std::vector<std::string>& values) {
  SelVec rows;
  for (size_t row = 0; row < values.size(); ++row) {
    const size_t special = values[row].find("special");
    if (special == std::string::npos) continue;
    if (values[row].find("requests", special + 7) == std::string::npos) {
      continue;
    }
    rows.push_back(static_cast<int64_t>(row));
  }
  return rows;
}

uint64_t BaselineSelect3(const std::vector<double>& qty,
                         const std::vector<int64_t>& ship,
                         const std::vector<double>& disc, db::Date from,
                         db::Date to) {
  SelVec x1;
  for (int64_t i = 0; i < static_cast<int64_t>(qty.size()); ++i) {
    if (qty[static_cast<size_t>(i)] < 24.0) x1.push_back(i);
  }
  SelVec x2;
  for (int64_t row : x1) {
    const int64_t d = ship[static_cast<size_t>(row)];
    if (d >= from && d < to) x2.push_back(row);
  }
  SelVec x3;
  for (int64_t row : x2) {
    const double d = disc[static_cast<size_t>(row)];
    if (d >= 0.05 - 1e-9 && d <= 0.07 + 1e-9) x3.push_back(row);
  }
  return x3.size();
}

struct KernelResult {
  std::string name;
  int64_t rows = 0;
  Rate baseline;
  Rate kernel;

  double speedup() const { return kernel.median / baseline.median; }
};

int Run(double scale_factor, int reps, const std::string& json_path) {
  tpch::DbgenOptions options;
  options.scale_factor = scale_factor;
  options.seed = kBenchSeed;
  std::fprintf(stderr, "generating TPC-H SF %.2f ...\n", scale_factor);
  const auto dbgen_t0 = std::chrono::steady_clock::now();
  const db::Database database = tpch::Generate(options);
  const double dbgen_s = SecondsSince(dbgen_t0);
  const db::Table& L = database.lineitem;
  const db::Table& O = database.orders;
  const double dbgen_rows_per_s = L.num_rows() / dbgen_s;
  std::printf("dbgen %.3f s (%lld lineitem rows, %.0f rows/s)\n", dbgen_s,
              static_cast<long long>(L.num_rows()), dbgen_rows_per_s);

  const auto& o_orderkey = O.i64("o_orderkey");
  const auto& l_orderkey = L.i64("l_orderkey");
  const auto& l_quantity = L.f64("l_quantity");
  const auto& l_shipdate = L.i64("l_shipdate");
  const auto& l_discount = L.f64("l_discount");
  const auto& l_suppkey = L.i64("l_suppkey");
  const db::Date from = db::MakeDate(1994, 1, 1);
  const db::Date to = db::AddYears(from, 1);

  uint64_t sink = db::kernels::kFnvOffset;
  std::vector<KernelResult> results;

  // ---- join-build: orders.o_orderkey build side (unique keys), plus the
  // same shape the probe benchmark reuses. ----
  {
    KernelResult r;
    r.name = "join-build";
    r.rows = O.num_rows();
    r.baseline = RateOf(r.rows, TimeReps(reps, nullptr, [&] {
      return BaselineJoinBuild(o_orderkey);
    }));
    // Steady-state discipline: the executor reuses one HashJoin per pipeline
    // and pre-reserves from the build side's cardinality, so after the
    // reservation a rebuild must never touch the allocator.
    db::HashJoin join;
    join.Reserve(static_cast<size_t>(O.num_rows()));
    const int64_t after_reserve = join.build_allocations();
    r.kernel = RateOf(r.rows, TimeReps(reps, &sink, [&] {
      join.Build(o_orderkey);
      return static_cast<uint64_t>(join.num_keys());
    }));
    ELASTIC_CHECK(join.build_allocations() == after_reserve,
                  "steady-state join rebuild allocated");
    ELASTIC_CHECK(BaselineJoinBuild(o_orderkey) == join.num_keys(),
                  "join builds diverge");
    results.push_back(r);
  }

  // ---- join-probe: lineitem.l_orderkey against the orders build side
  // (fanout ~4 lineitems per order, dense addressing), and
  // join-probe-selective: lineitem.l_partkey against the parts of one
  // p_type, the Q8 shape (1 of 150 types, a hashed build with a key
  // filter). ----
  const auto probe_case = [&](const char* name,
                              const std::vector<int64_t>& build_keys,
                              const SelVec& build_rows,
                              const std::vector<int64_t>& probe_keys) {
    KernelResult r;
    r.name = name;
    r.rows = L.num_rows();
    const BaselineMap baseline_map = BaselineMapOf(build_keys, build_rows);
    db::HashJoin join;
    join.Build(build_keys, &build_rows);
    r.baseline = RateOf(r.rows, TimeReps(reps, nullptr, [&] {
      return BaselineJoinProbe(baseline_map, probe_keys);
    }));
    r.kernel = RateOf(r.rows, TimeReps(reps, &sink, [&] {
      return static_cast<uint64_t>(join.Probe(probe_keys).size());
    }));
    // Same pair count on both sides, or the comparison is meaningless.
    ELASTIC_CHECK(BaselineJoinProbe(baseline_map, probe_keys) ==
                      join.Probe(probe_keys).size(),
                  "probe results diverge");
    results.push_back(r);
  };
  SelVec all_orders(o_orderkey.size());
  std::iota(all_orders.begin(), all_orders.end(), 0);
  probe_case("join-probe", o_orderkey, all_orders, l_orderkey);
  const db::CodedStrings& p_type = database.part.coded("p_type");
  const db::CodeSet wanted = p_type.Match(
      [](const std::string& t) { return t == "ECONOMY ANODIZED STEEL"; });
  probe_case("join-probe-selective", database.part.i64("p_partkey"),
             db::SelectWhere(p_type.codes,
                             [&wanted](uint8_t c) { return wanted[c]; }),
             L.i64("l_partkey"));

  // ---- group-by: Q7-shaped (supp_nation, cust_nation, year) composite key
  // over the full lineitem table — the motivating case where the scalar
  // executor's per-row std::string encoding exceeds SSO and heap-allocates
  // on every input row. ----
  {
    KernelResult r;
    r.name = "group-by";
    r.rows = L.num_rows();
    const auto& o_custkey = O.i64("o_custkey");
    const auto& c_nationkey = database.customer.i64("c_nationkey");
    const auto& s_nationkey = database.supplier.i64("s_nationkey");
    const auto& n_name = database.nation.str("n_name");
    // Nation keys per lineitem, as Q7 groups them; the baseline gets the
    // names themselves.
    std::vector<int64_t> supp_nation_key(static_cast<size_t>(L.num_rows()));
    std::vector<int64_t> cust_nation_key(static_cast<size_t>(L.num_rows()));
    std::vector<std::string> supp_nation(static_cast<size_t>(L.num_rows()));
    std::vector<std::string> cust_nation(static_cast<size_t>(L.num_rows()));
    std::vector<int64_t> year(static_cast<size_t>(L.num_rows()));
    for (size_t i = 0; i < supp_nation.size(); ++i) {
      supp_nation_key[i] = s_nationkey[static_cast<size_t>(l_suppkey[i] - 1)];
      const size_t orow = static_cast<size_t>(l_orderkey[i] - 1);
      cust_nation_key[i] =
          c_nationkey[static_cast<size_t>(o_custkey[orow] - 1)];
      supp_nation[i] = n_name[static_cast<size_t>(supp_nation_key[i])];
      cust_nation[i] = n_name[static_cast<size_t>(cust_nation_key[i])];
      year[i] = db::YearOf(l_shipdate[i]);
    }
    r.baseline = RateOf(r.rows, TimeReps(reps, nullptr, [&] {
      return BaselineGroupBy(supp_nation, cust_nation, year);
    }));
    // The key columns are copied per rep outside the timed region and
    // moved in at O(1), as the query code moves its key vectors.
    std::vector<double> kernel_s;
    int64_t first_rep_groups = 0;
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<int64_t> c1 = supp_nation_key;
      std::vector<int64_t> c2 = cust_nation_key;
      std::vector<int64_t> c3 = year;
      const auto t0 = std::chrono::steady_clock::now();
      db::Grouper g;
      // Steady state: reps after the first carry the group-cardinality hint
      // (as a repeated query would), which must eliminate every doubling
      // rehash of the group-key table.
      if (rep > 0) g.set_expected_groups(first_rep_groups);
      g.AddI64Key(std::move(c1));
      g.AddI64Key(std::move(c2));
      g.AddI64Key(std::move(c3));
      g.Finish();
      kernel_s.push_back(SecondsSince(t0));
      if (rep == 0) {
        first_rep_groups = g.num_groups();
        // Same first-occurrence groups as the string-encoding baseline.
        ELASTIC_CHECK((static_cast<uint64_t>(g.num_groups()) ^
                       static_cast<uint64_t>(g.group_of().back())) ==
                          BaselineGroupBy(supp_nation, cust_nation, year),
                      "group-by results diverge");
      } else {
        ELASTIC_CHECK(g.table_rehashes() == 0, "hinted group build rehashed");
      }
      Fold(&sink, static_cast<uint64_t>(g.num_groups()) ^
                      static_cast<uint64_t>(g.group_of().back()));
    }
    r.kernel = RateOf(r.rows, kernel_s);
    results.push_back(r);
  }

  // ---- fused-select: the Q6 predicate stack, three scalar passes vs one
  // fused chunked pass. ----
  {
    KernelResult r;
    r.name = "fused-select";
    r.rows = L.num_rows();
    r.baseline = RateOf(r.rows, TimeReps(reps, nullptr, [&] {
      return BaselineSelect3(l_quantity, l_shipdate, l_discount, from, to);
    }));
    const double* q = l_quantity.data();
    const int64_t* s = l_shipdate.data();
    const double* d = l_discount.data();
    const auto fused_select = [&] {
      const auto fused = db::kernels::FusedSelect3(
          L.num_rows(), [q](int64_t i) { return q[i] < 24.0; },
          [s, from, to](int64_t i) { return s[i] >= from && s[i] < to; },
          [d](int64_t i) {
            return d[i] >= 0.05 - 1e-9 && d[i] <= 0.07 + 1e-9;
          });
      return static_cast<uint64_t>(fused.sel.size());
    };
    r.kernel = RateOf(r.rows, TimeReps(reps, &sink, fused_select));
    ELASTIC_CHECK(BaselineSelect3(l_quantity, l_shipdate, l_discount, from,
                                  to) == fused_select(),
                  "select results diverge");
    results.push_back(r);
  }

  // ---- like-seq: Q13's '%special%requests%' over every o_comment, the
  // sweep over the column's string heap against a per-row search of a
  // std::string copy of each value. ----
  {
    KernelResult r;
    r.name = "like-seq";
    r.rows = O.num_rows();
    const db::StringHeap& heap = O.str("o_comment");
    std::vector<std::string> values(heap.size());
    for (size_t row = 0; row < values.size(); ++row) values[row] = heap[row];
    r.baseline = RateOf(r.rows, TimeReps(reps, nullptr, [&] {
      return RowsDigest(BaselineLikeSeq(values));
    }));
    const auto sweep = [&] {
      return db::LikeSeqRows(heap, {"special", "requests"});
    };
    r.kernel = RateOf(r.rows, TimeReps(reps, &sink, [&] {
      return RowsDigest(sweep());
    }));
    ELASTIC_CHECK(BaselineLikeSeq(values) == sweep(),
                  "LIKE results diverge");
    results.push_back(r);
  }

  // ---- Report: medians, with quartiles in brackets. ----
  std::printf("%-20s %12s %30s %30s %9s\n", "kernel", "rows",
              "baseline rows/s [q1, q3]", "kernel rows/s [q1, q3]", "speedup");
  for (const KernelResult& r : results) {
    std::printf("%-20s %12lld %10.3g [%.3g, %.3g] %10.3g [%.3g, %.3g] %8.2fx\n",
                r.name.c_str(), static_cast<long long>(r.rows),
                r.baseline.median, r.baseline.q1, r.baseline.q3,
                r.kernel.median, r.kernel.q1, r.kernel.q3, r.speedup());
  }
  std::printf("(checksum %llu)\n", static_cast<unsigned long long>(sink));

  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"micro_query_kernels\",\n"
               "  \"scale_factor\": %.4f,\n  \"reps\": %d,\n"
               "  \"dbgen_s\": %.3f,\n  \"dbgen_rows_per_s\": %.0f,\n"
               "  \"kernels\": {\n",
               scale_factor, reps, dbgen_s, dbgen_rows_per_s);
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(json,
                 "    \"%s\": {\"rows\": %lld, "
                 "\"baseline_rows_per_s\": %.0f, "
                 "\"baseline_rows_per_s_q1\": %.0f, "
                 "\"baseline_rows_per_s_q3\": %.0f, "
                 "\"kernel_rows_per_s\": %.0f, "
                 "\"kernel_rows_per_s_q1\": %.0f, "
                 "\"kernel_rows_per_s_q3\": %.0f, \"speedup\": %.3f}%s\n",
                 r.name.c_str(), static_cast<long long>(r.rows),
                 r.baseline.median, r.baseline.q1, r.baseline.q3,
                 r.kernel.median, r.kernel.q1, r.kernel.q3, r.speedup(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  }\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace elastic::bench

int main(int argc, char** argv) {
  ELASTIC_CHECK(mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024) == 1 &&
                    mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024) == 1,
                "cannot fix the malloc thresholds");
  double sf = elastic::bench::kBenchScaleFactor;
  int reps = 5;
  // Flag scanning matches JsonOutPath: every flag takes a value and may
  // appear anywhere (the old loop stepped by two and misparsed odd layouts).
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--sf") == 0) sf = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--reps") == 0) reps = std::atoi(argv[i + 1]);
  }
  ELASTIC_CHECK(reps >= 1, "--reps must be at least 1");
  return elastic::bench::Run(
      sf, reps,
      elastic::bench::JsonOutPath(argc, argv,
                                  "BENCH_micro_query_kernels.json"));
}
