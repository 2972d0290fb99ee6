#ifndef ELASTICORE_PERF_SAMPLER_H_
#define ELASTICORE_PERF_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perf/counters.h"
#include "platform/cpu_mask.h"
#include "simcore/clock.h"

namespace elastic::perf {

/// Counter deltas over one monitoring window.
///
/// This is what the paper's mechanism reads from mpstat / likwid on every
/// monitoring round: windowed CPU load, L3 misses, HT and IMC traffic.
struct WindowStats {
  simcore::Tick ticks = 0;
  double seconds = 0.0;

  std::vector<int64_t> l3_hits;
  std::vector<int64_t> l3_misses;
  std::vector<int64_t> imc_bytes;
  std::vector<int64_t> node_access_pages;
  std::vector<int64_t> core_busy_cycles;
  int64_t ht_bytes = 0;
  int64_t minor_faults = 0;
  int64_t stolen_tasks = 0;
  int64_t thread_migrations = 0;
  int64_t tasks_spawned = 0;

  /// Average CPU load (0..100) over the cores of `mask` during the window.
  /// `cycles_per_tick` is the per-core cycle budget of one tick.
  double CpuLoadPercent(const platform::CpuMask& mask, int64_t cycles_per_tick) const;

  /// Ratio of interconnect traffic to memory-controller traffic; the
  /// NUMA-friendliness metric of Section V-B (smaller is better).
  double HtImcRatio() const;

  /// Interconnect bandwidth in bytes per second of simulated time.
  double HtBytesPerSecond() const;

  /// Memory throughput of one node in bytes per second.
  double ImcBytesPerSecond(int node) const;

  int64_t TotalL3Misses() const;
  int64_t TotalImcBytes() const;
};

/// Windowed utilization source, the measurement half of the platform seam:
/// the elastic mechanism calls Sample() once per monitoring round and never
/// cares whether the deltas came from simulated counters or /proc.
class UtilizationSampler {
 public:
  virtual ~UtilizationSampler() = default;

  /// Returns the deltas accumulated since the previous Sample() (or since
  /// construction) and re-baselines.
  virtual WindowStats Sample() = 0;

  /// Re-baselines without producing stats.
  virtual void Reset() = 0;
};

/// One immutable reading of a CounterSet and the tick it was taken at.
struct CounterSnapshot {
  simcore::Tick tick = 0;
  CounterSet counters;
};

/// The snapshots every Sampler of one CounterSet shares. A monitoring
/// round polls many tenants at one tick; through the cache they read the
/// counters once and difference them once, instead of each sampler copying
/// and differencing the whole set (1024 cores' worth at the scale bench's
/// width). The platform owning the counters owns one cache.
class SnapshotCache {
 public:
  SnapshotCache(const CounterSet* counters, const simcore::Clock* clock);

  /// A snapshot equal to the live counters now. The latest snapshot is
  /// reused only when both its tick and its contents still match: a
  /// counter bumped within the tick gets a fresh snapshot.
  std::shared_ptr<const CounterSnapshot> Latest();

  /// Deltas from `from` to `to`. Computed once for the latest pair asked
  /// for; every further caller with the same pair gets a copy.
  WindowStats Window(const std::shared_ptr<const CounterSnapshot>& from,
                     const std::shared_ptr<const CounterSnapshot>& to);

 private:
  const CounterSet* counters_;
  const simcore::Clock* clock_;
  std::shared_ptr<const CounterSnapshot> latest_;
  /// The pair window_ spans. Holding them keeps their addresses from being
  /// reused by later snapshots, so comparing pointers identifies the pair.
  std::shared_ptr<const CounterSnapshot> window_from_;
  std::shared_ptr<const CounterSnapshot> window_to_;
  WindowStats window_;
};

/// Yields the deltas of a CounterSet since its baseline snapshot (the
/// simulator-backed UtilizationSampler).
class Sampler : public UtilizationSampler {
 public:
  /// A sampler with a private cache.
  Sampler(const CounterSet* counters, const simcore::Clock* clock);
  /// A sampler sharing `cache` with the other samplers of its CounterSet.
  explicit Sampler(std::shared_ptr<SnapshotCache> cache);

  WindowStats Sample() override;
  void Reset() override;

 private:
  std::shared_ptr<SnapshotCache> cache_;
  std::shared_ptr<const CounterSnapshot> baseline_;
};

}  // namespace elastic::perf

#endif  // ELASTICORE_PERF_SAMPLER_H_
