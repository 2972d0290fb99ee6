#include "perf/sampler.h"

#include <utility>

#include "simcore/check.h"

namespace elastic::perf {

double WindowStats::CpuLoadPercent(const platform::CpuMask& mask,
                                   int64_t cycles_per_tick) const {
  if (ticks <= 0 || mask.Empty()) return 0.0;
  int64_t busy = 0;
  mask.ForEachCore([this, &busy](numasim::CoreId core) {
    busy += core_busy_cycles[static_cast<size_t>(core)];
  });
  const double capacity =
      static_cast<double>(ticks) * static_cast<double>(cycles_per_tick) *
      static_cast<double>(mask.Count());
  if (capacity <= 0.0) return 0.0;
  return 100.0 * static_cast<double>(busy) / capacity;
}

double WindowStats::HtImcRatio() const {
  const int64_t imc = TotalImcBytes();
  if (imc == 0) return 0.0;
  return static_cast<double>(ht_bytes) / static_cast<double>(imc);
}

double WindowStats::HtBytesPerSecond() const {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(ht_bytes) / seconds;
}

double WindowStats::ImcBytesPerSecond(int node) const {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(imc_bytes[static_cast<size_t>(node)]) / seconds;
}

int64_t WindowStats::TotalL3Misses() const {
  int64_t sum = 0;
  for (int64_t v : l3_misses) sum += v;
  return sum;
}

int64_t WindowStats::TotalImcBytes() const {
  int64_t sum = 0;
  for (int64_t v : imc_bytes) sum += v;
  return sum;
}

namespace {

/// Writes now - before into `out`, reusing its storage.
void Delta(const std::vector<int64_t>& now, const std::vector<int64_t>& before,
           std::vector<int64_t>& out) {
  ELASTIC_CHECK(now.size() == before.size(), "counter vector size changed");
  out.resize(now.size());
  for (size_t i = 0; i < now.size(); ++i) out[i] = now[i] - before[i];
}

}  // namespace

SnapshotCache::SnapshotCache(const CounterSet* counters,
                             const simcore::Clock* clock)
    : counters_(counters), clock_(clock) {}

std::shared_ptr<const CounterSnapshot> SnapshotCache::Latest() {
  const simcore::Tick now = clock_->now();
  if (latest_ == nullptr || latest_->tick != now ||
      !(latest_->counters == *counters_)) {
    latest_ = std::make_shared<const CounterSnapshot>(
        CounterSnapshot{now, *counters_});
  }
  return latest_;
}

WindowStats SnapshotCache::Window(
    const std::shared_ptr<const CounterSnapshot>& from,
    const std::shared_ptr<const CounterSnapshot>& to) {
  if (from == window_from_ && to == window_to_) return window_;
  const CounterSet& before = from->counters;
  const CounterSet& now = to->counters;
  window_.ticks = to->tick - from->tick;
  window_.seconds = simcore::Clock::ToSeconds(window_.ticks);
  Delta(now.l3_hits, before.l3_hits, window_.l3_hits);
  Delta(now.l3_misses, before.l3_misses, window_.l3_misses);
  Delta(now.imc_bytes, before.imc_bytes, window_.imc_bytes);
  Delta(now.node_access_pages, before.node_access_pages,
        window_.node_access_pages);
  Delta(now.core_busy_cycles, before.core_busy_cycles,
        window_.core_busy_cycles);
  window_.ht_bytes = now.ht_bytes_total - before.ht_bytes_total;
  window_.minor_faults = now.minor_faults - before.minor_faults;
  window_.stolen_tasks = now.stolen_tasks - before.stolen_tasks;
  window_.thread_migrations = now.thread_migrations - before.thread_migrations;
  window_.tasks_spawned = now.tasks_spawned - before.tasks_spawned;
  window_from_ = from;
  window_to_ = to;
  return window_;
}

Sampler::Sampler(const CounterSet* counters, const simcore::Clock* clock)
    : Sampler(std::make_shared<SnapshotCache>(counters, clock)) {}

Sampler::Sampler(std::shared_ptr<SnapshotCache> cache)
    : cache_(std::move(cache)), baseline_(cache_->Latest()) {}

WindowStats Sampler::Sample() {
  std::shared_ptr<const CounterSnapshot> end = cache_->Latest();
  WindowStats stats = cache_->Window(baseline_, end);
  baseline_ = std::move(end);
  return stats;
}

void Sampler::Reset() { baseline_ = cache_->Latest(); }

}  // namespace elastic::perf
