#ifndef ELASTICORE_BENCHMARK_PROBE_H_
#define ELASTICORE_BENCHMARK_PROBE_H_

// Timing primitives of the benchmark: a log-bucket latency histogram and an
// in-memory span log that aggregates per-span totals and writes Chrome
// trace-event JSON. All timing is taken from outside the program's layers:
// a span brackets one call the benchmark makes into a layer's public API.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace elasticore_bench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Latency histogram with 64 linear sub-buckets per power of two (bucket
/// width under 1.6% of its values), interpolated within a bucket on read:
/// constant memory, so per-thread histograms take millions of samples and
/// merge exactly. Up to kExactSamples samples are also kept as they are, so
/// quantiles of small samples are exact instead of bucket-quantized.
class LogHistogram {
 public:
  LogHistogram() : buckets_(kBuckets, 0) {}

  void Add(int64_t ns);
  void Merge(const LogHistogram& other);
  int64_t count() const { return count_; }
  /// Quantile q in [0, 1] in ns, interpolated between neighbouring ranks
  /// and clamped to the observed range; 0 when empty.
  double QuantileNs(double q) const;

 private:
  static constexpr int kSubBits = 6;
  static constexpr int64_t kSub = int64_t{1} << kSubBits;
  static constexpr int kBuckets = static_cast<int>(64 * kSub);
  static constexpr size_t kExactSamples = size_t{1} << 16;

  void DropExact();

  std::vector<int64_t> buckets_;
  std::vector<int64_t> exact_;
  bool exact_complete_ = true;
  int64_t count_ = 0;
  int64_t min_ns_ = 0;
  int64_t max_ns_ = 0;
};

/// Spans recorded by one thread. Every span adds to its name's totals; kept
/// spans (up to `max_kept`) also go to the Chrome trace. Span and parent
/// names must be string literals: they are stored by pointer.
class SpanLog {
 public:
  struct Total {
    const char* name = nullptr;
    const char* parent = nullptr;
    int64_t ns = 0;
    int64_t calls = 0;
    LogHistogram hist;
  };

  explicit SpanLog(int tid = 0, size_t max_kept = 200000)
      : tid_(tid), max_kept_(max_kept) {}

  /// Records [start_ns, end_ns) under `name`, a child of `parent` (nullptr
  /// for a root span). `keep` = false aggregates without keeping the span.
  void Add(const char* name, const char* parent, int64_t start_ns,
           int64_t end_ns, bool keep = true);

  /// Folds another thread's log into this one (totals and kept spans).
  void Merge(const SpanLog& other);

  const std::vector<Total>& totals() const { return totals_; }
  /// Totals of one span name; nullptr when never recorded.
  const Total* Find(const std::string& name) const;
  int64_t TotalNs(const std::string& name) const;
  /// Total minus the totals of the spans naming it as parent.
  int64_t SelfNs(const std::string& name) const;

  /// Writes the kept spans as Chrome trace-event JSON (opens in Perfetto
  /// and chrome://tracing). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path, int64_t origin_ns) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t dur_ns;
    int tid;
  };

  Total& TotalFor(const char* name, const char* parent);

  int tid_;
  size_t max_kept_;
  std::vector<Span> kept_;
  std::vector<Total> totals_;
};

}  // namespace elasticore_bench

#endif  // ELASTICORE_BENCHMARK_PROBE_H_
