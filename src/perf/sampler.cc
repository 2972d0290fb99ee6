#include "perf/sampler.h"

#include <utility>

#include "simcore/check.h"

namespace elastic::perf {

CounterSnapshot::CounterSnapshot(int num_nodes, int num_cores)
    : l3_hits(static_cast<size_t>(num_nodes), 0),
      l3_misses(static_cast<size_t>(num_nodes), 0),
      imc_bytes(static_cast<size_t>(num_nodes), 0),
      node_access_pages(static_cast<size_t>(num_nodes), 0),
      core_busy_cycles(static_cast<size_t>(num_cores), 0) {}

CounterSnapshot::CounterSnapshot(const CounterSet& counters,
                                 simcore::Tick tick)
    : tick(tick),
      l3_hits(counters.l3_hits),
      l3_misses(counters.l3_misses),
      imc_bytes(counters.imc_bytes),
      node_access_pages(counters.node_access_pages),
      core_busy_cycles(counters.core_busy_cycles),
      ht_bytes(counters.ht_bytes_total),
      minor_faults(counters.minor_faults),
      stolen_tasks(counters.stolen_tasks),
      thread_migrations(counters.thread_migrations),
      tasks_spawned(counters.tasks_spawned) {}

bool CounterSnapshot::Matches(const CounterSet& counters) const {
  return ht_bytes == counters.ht_bytes_total &&
         minor_faults == counters.minor_faults &&
         stolen_tasks == counters.stolen_tasks &&
         thread_migrations == counters.thread_migrations &&
         tasks_spawned == counters.tasks_spawned &&
         core_busy_cycles == counters.core_busy_cycles &&
         l3_hits == counters.l3_hits && l3_misses == counters.l3_misses &&
         imc_bytes == counters.imc_bytes &&
         node_access_pages == counters.node_access_pages;
}

namespace {

const std::shared_ptr<const CounterSnapshot>& EmptySnapshot() {
  static const std::shared_ptr<const CounterSnapshot> empty =
      std::make_shared<const CounterSnapshot>();
  return empty;
}

}  // namespace

WindowStats::WindowStats() : WindowStats(EmptySnapshot(), EmptySnapshot()) {}

WindowStats::WindowStats(std::shared_ptr<const CounterSnapshot> from,
                         std::shared_ptr<const CounterSnapshot> to)
    : from_(std::move(from)), to_(std::move(to)) {
  ELASTIC_CHECK(from_->l3_hits.size() == to_->l3_hits.size() &&
                    from_->core_busy_cycles.size() ==
                        to_->core_busy_cycles.size(),
                "window ends differ in size");
}

double WindowStats::CpuLoadPercent(const platform::CpuMask& mask,
                                   int64_t cycles_per_tick) const {
  const simcore::Tick window_ticks = ticks();
  if (window_ticks <= 0 || mask.Empty()) return 0.0;
  int64_t busy = 0;
  mask.ForEachCore([this, &busy](numasim::CoreId core) {
    busy += core_busy_cycles(core);
  });
  const double capacity =
      static_cast<double>(window_ticks) * static_cast<double>(cycles_per_tick) *
      static_cast<double>(mask.Count());
  if (capacity <= 0.0) return 0.0;
  return 100.0 * static_cast<double>(busy) / capacity;
}

double WindowStats::HtImcRatio() const {
  const int64_t imc = TotalImcBytes();
  if (imc == 0) return 0.0;
  return static_cast<double>(ht_bytes()) / static_cast<double>(imc);
}

double WindowStats::HtBytesPerSecond() const {
  const double window_seconds = seconds();
  if (window_seconds <= 0.0) return 0.0;
  return static_cast<double>(ht_bytes()) / window_seconds;
}

double WindowStats::ImcBytesPerSecond(int node) const {
  const double window_seconds = seconds();
  if (window_seconds <= 0.0) return 0.0;
  return static_cast<double>(imc_bytes(node)) / window_seconds;
}

int64_t WindowStats::TotalL3Misses() const {
  int64_t sum = 0;
  for (int node = 0; node < num_nodes(); ++node) sum += l3_misses(node);
  return sum;
}

int64_t WindowStats::TotalImcBytes() const {
  int64_t sum = 0;
  for (int node = 0; node < num_nodes(); ++node) sum += imc_bytes(node);
  return sum;
}

SnapshotCache::SnapshotCache(const CounterSet* counters,
                             const simcore::Clock* clock)
    : counters_(counters), clock_(clock) {}

const std::shared_ptr<const CounterSnapshot>& SnapshotCache::Latest() {
  const simcore::Tick now = clock_->now();
  if (latest_ == nullptr || latest_->tick != now ||
      !latest_->Matches(*counters_)) {
    latest_ = std::make_shared<const CounterSnapshot>(*counters_, now);
  }
  return latest_;
}

TickReading::TickReading(TickFn now, Reader read)
    : now_(std::move(now)), read_(std::move(read)) {}

const std::shared_ptr<const CounterSnapshot>& TickReading::Latest() {
  const simcore::Tick now = now_();
  if (latest_ == nullptr || latest_->tick != now) {
    latest_ = read_(now);
    ELASTIC_CHECK(latest_ != nullptr && latest_->tick == now,
                  "a tick's reading must carry that tick");
  }
  return latest_;
}

Sampler::Sampler(const CounterSet* counters, const simcore::Clock* clock)
    : Sampler(std::make_shared<SnapshotCache>(counters, clock)) {}

Sampler::Sampler(std::shared_ptr<SnapshotSource> source)
    : source_(std::move(source)), baseline_(source_->Latest()) {}

WindowStats Sampler::Sample() {
  const std::shared_ptr<const CounterSnapshot>& end = source_->Latest();
  WindowStats window(std::move(baseline_), end);
  baseline_ = end;
  return window;
}

void Sampler::Reset() { baseline_ = source_->Latest(); }

}  // namespace elastic::perf
