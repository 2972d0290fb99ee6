#ifndef ELASTICORE_PERF_SAMPLER_H_
#define ELASTICORE_PERF_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perf/counters.h"
#include "platform/cpu_mask.h"
#include "simcore/clock.h"

namespace elastic::perf {

/// One immutable reading of the counters a window reads, and the tick it
/// was taken at. It holds ten of the CounterSet's counters: four per-node
/// groups, per-core busy cycles and five machine-wide totals. WindowStats
/// reads nothing else, so a counter a window reads must be added here,
/// copied by the constructor from a CounterSet and compared by Matches.
struct CounterSnapshot {
  CounterSnapshot() = default;
  /// All-zero counters of `num_nodes` nodes and `num_cores` cores.
  CounterSnapshot(int num_nodes, int num_cores);
  /// The window-read counters of `counters` at `tick`.
  CounterSnapshot(const CounterSet& counters, simcore::Tick tick);

  /// Whether every counter held here equals its live value in `counters`.
  bool Matches(const CounterSet& counters) const;

  simcore::Tick tick = 0;
  /// Length of one tick, which turns a window's ticks into seconds.
  double seconds_per_tick = simcore::Clock::kSecondsPerTick;

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
};

/// Counter deltas over one monitoring window.
///
/// This is what the paper's mechanism reads from mpstat / likwid on every
/// monitoring round: windowed CPU load, L3 misses, HT and IMC traffic. A
/// window is the pair of snapshots at its two ends, shared with every other
/// window that starts or ends at the same reading; each delta is read on
/// demand, so copying a window copies two pointers.
class WindowStats {
 public:
  /// An empty zero-width window (no nodes, no cores).
  WindowStats();
  /// The window from `from` to `to`; both must have the same dimensions.
  WindowStats(std::shared_ptr<const CounterSnapshot> from,
              std::shared_ptr<const CounterSnapshot> to);

  simcore::Tick ticks() const { return to_->tick - from_->tick; }
  double seconds() const {
    return static_cast<double>(ticks()) * to_->seconds_per_tick;
  }
  int num_nodes() const { return static_cast<int>(to_->l3_hits.size()); }
  int num_cores() const {
    return static_cast<int>(to_->core_busy_cycles.size());
  }

  int64_t l3_hits(int node) const {
    return Delta(&CounterSnapshot::l3_hits, node);
  }
  int64_t l3_misses(int node) const {
    return Delta(&CounterSnapshot::l3_misses, node);
  }
  int64_t imc_bytes(int node) const {
    return Delta(&CounterSnapshot::imc_bytes, node);
  }
  int64_t node_access_pages(int node) const {
    return Delta(&CounterSnapshot::node_access_pages, node);
  }
  int64_t core_busy_cycles(int core) const {
    return Delta(&CounterSnapshot::core_busy_cycles, core);
  }
  int64_t ht_bytes() const { return to_->ht_bytes - from_->ht_bytes; }
  int64_t minor_faults() const {
    return to_->minor_faults - from_->minor_faults;
  }
  int64_t stolen_tasks() const {
    return to_->stolen_tasks - from_->stolen_tasks;
  }
  int64_t thread_migrations() const {
    return to_->thread_migrations - from_->thread_migrations;
  }
  int64_t tasks_spawned() const {
    return to_->tasks_spawned - from_->tasks_spawned;
  }

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

  /// The snapshots at the window's two ends.
  const std::shared_ptr<const CounterSnapshot>& from() const { return from_; }
  const std::shared_ptr<const CounterSnapshot>& to() const { return to_; }

 private:
  int64_t Delta(const std::vector<int64_t> CounterSnapshot::*counter,
                int index) const {
    const size_t i = static_cast<size_t>(index);
    return ((*to_).*counter)[i] - ((*from_).*counter)[i];
  }

  std::shared_ptr<const CounterSnapshot> from_;
  std::shared_ptr<const CounterSnapshot> to_;
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

/// The snapshots every Sampler of one CounterSet shares. A monitoring
/// round polls many tenants at one tick; through the cache they take one
/// snapshot between them, and each window is that snapshot paired with
/// the sampler's previous one. The platform owning the counters owns one
/// cache.
class SnapshotCache {
 public:
  SnapshotCache(const CounterSet* counters, const simcore::Clock* clock);

  /// A snapshot equal to the live counters now. The latest snapshot is
  /// reused only when both its tick and the counters it holds still match:
  /// a window-read counter bumped within the tick gets a fresh snapshot,
  /// any other counter does not.
  const std::shared_ptr<const CounterSnapshot>& Latest();

 private:
  const CounterSet* counters_;
  const simcore::Clock* clock_;
  std::shared_ptr<const CounterSnapshot> latest_;
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
