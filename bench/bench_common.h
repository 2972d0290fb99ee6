#ifndef ELASTICORE_BENCH_BENCH_COMMON_H_
#define ELASTICORE_BENCH_BENCH_COMMON_H_

// Shared setup of the bench harnesses: the TPC-H database at SF 0.15 (see
// the scale note in docs/ARCHITECTURE.md), its query plan traces, the seed
// and the --out flag.
//
// JSON emission convention: harnesses that track a performance trajectory
// over PRs (micro_query_kernels being the first) write machine-readable
// output to BENCH_<harness>.json in the working directory — a single JSON
// object carrying at least {"bench": <name>, "scale_factor": <sf>} plus
// one map of measured-unit name -> {metric name -> number} (e.g.
// "kernels": {"join-build": {"speedup": ...}}). Keep keys stable across
// PRs so the BENCH_*.json files diff and plot cleanly.

#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "db/column.h"
#include "db/plan_trace.h"
#include "db/queries.h"
#include "exec/experiment.h"
#include "metrics/table.h"
#include "perf/sampler.h"
#include "tpch/dbgen.h"

namespace elastic::bench {

inline constexpr double kBenchScaleFactor = 0.15;
inline constexpr uint64_t kBenchSeed = 19920101;

/// Unified CLI convention of the JSON-emitting harnesses: every one accepts
/// `--out <path>` to override its default `BENCH_<harness>.json`. Harnesses
/// parse their own extra flags; this helper only extracts --out so the
/// convention cannot drift per binary.
inline std::string JsonOutPath(int argc, char** argv,
                               const std::string& default_path) {
  std::string out = default_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out = argv[i + 1];
  }
  return out;
}

// Client think time and connection ramp of the concurrent workloads.
inline constexpr int64_t kBenchThinkTicks = 900;
inline constexpr int64_t kBenchRampTicks = 600;

/// The bench database, generated once per binary.
inline const db::Database& BenchDb() {
  static const db::Database* kDb = [] {
    tpch::DbgenOptions options;
    options.scale_factor = kBenchScaleFactor;
    options.seed = kBenchSeed;
    return new db::Database(tpch::Generate(options));
  }();
  return *kDb;
}

/// Plan trace of TPC-H query q (1..22), cached.
inline const db::PlanTrace& QueryTrace(int q) {
  static std::map<int, db::PlanTrace>* kCache = new std::map<int, db::PlanTrace>();
  auto it = kCache->find(q);
  if (it == kCache->end()) {
    it = kCache->emplace(q, db::RunTpchQuery(BenchDb(), q).trace).first;
  }
  return it->second;
}

}  // namespace elastic::bench

#endif  // ELASTICORE_BENCH_BENCH_COMMON_H_
