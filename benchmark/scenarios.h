#ifndef ELASTICORE_BENCHMARK_SCENARIOS_H_
#define ELASTICORE_BENCHMARK_SCENARIOS_H_

// The benchmark's workloads. scenarios.cc is the only file that calls the
// program's scenario APIs (experiments, arbiter, CC protocols, queries), so
// an API change there needs a one-file follow-up here.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.h"

namespace elasticore_bench {

/// The default input seed; the committed golden query checksums are for it.
inline constexpr uint64_t kDefaultSeed = 19920101;

struct NamedValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one pass measured besides its wall time.
struct PassResult {
  /// Operations attempted, and those that did not complete correctly (a
  /// dropped transaction, a wrong checksum, a violated invariant).
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Host latency of each operation of the pass (a simulated tick, an
  /// arbitration round, a transaction or a query; see README.md).
  LogHistogram ops;
  /// Worker threads whose spans the pass recorded (span time is thread
  /// time, so layer shares divide by threads x wall time).
  int threads = 1;
  /// Whether `values` repeat exactly from pass to pass and between traced
  /// and untraced passes (false where real threads interleave).
  bool repeatable = true;
  /// Simulated outcomes and layer counts. A traced pass may add counts of
  /// calls the benchmark only wraps when tracing.
  std::vector<NamedValue> values;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the state the next pass runs on; it is timed as set-up.
  virtual void Setup() = 0;
  /// True when a pass consumes its state, so Setup() runs before each pass.
  virtual bool SetupPerPass() const = 0;
  /// Runs one pass. Spans go to `spans` when it is non-null (a traced pass).
  virtual PassResult Pass(SpanLog* spans) = 0;
};

struct WorkloadOptions {
  /// Run the simulated arbiters on their own tick hook instead of the
  /// benchmark's timed one (the self-check that both give equal outcomes).
  bool builtin_poll_hook = false;
  /// Golden query checksums, lines of "<seed> <query> <hex checksum>".
  std::string golden_path;
};

/// The workload `name` with inputs drawn from `seed`; nullptr for an
/// unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const WorkloadOptions& options);

}  // namespace elasticore_bench

#endif  // ELASTICORE_BENCHMARK_SCENARIOS_H_
