#include "exec/raw_kernel.h"

#include <memory>
#include <utility>

#include "simcore/check.h"

namespace elastic::exec {

RawKernelEngine::RawKernelEngine(ossim::Machine* machine,
                                 const BaseCatalog* catalog,
                                 const RawKernelOptions& options)
    : machine_(machine), catalog_(catalog), options_(options) {
  ELASTIC_CHECK(options_.threads >= 1, "kernel needs at least one thread");
}

void RawKernelEngine::Submit(const std::vector<std::string>& columns, int stream,
                             RawAffinity affinity,
                             std::function<void()> on_complete) {
  ELASTIC_CHECK(!columns.empty(), "fused kernel needs at least one column");
  const numasim::Topology& topo = machine_->topology();
  const int threads = options_.threads;

  // Completion latch shared by the per-thread exit callbacks.
  struct Latch {
    int remaining;
    std::function<void()> done;
  };
  auto latch = std::make_shared<Latch>();
  latch->remaining = threads;
  latch->done = std::move(on_complete);

  const int64_t rows = catalog_->RowsOf(columns.front());

  for (int t = 0; t < threads; ++t) {
    ossim::Job job;
    job.stream = stream;
    int64_t task_pages = 0;
    for (const std::string& column : columns) {
      const int64_t pages = catalog_->PagesOf(column);
      const int64_t begin = pages * t / threads;
      const int64_t end = pages * (t + 1) / threads;
      if (end <= begin) continue;
      ossim::PageRange range;
      range.buffer = catalog_->BufferOf(column);
      range.begin = begin;
      range.end = end;
      range.write = false;
      task_pages += range.num_pages();
      job.ranges.push_back(range);
    }
    const double compute =
        options_.cycles_per_row * static_cast<double>(rows) / threads;
    job.cpu_cycles_per_page = static_cast<int64_t>(
        compute / static_cast<double>(std::max<int64_t>(task_pages, 1)));

    std::optional<platform::CpuMask> pin;
    switch (affinity) {
      case RawAffinity::kOsDefault:
        break;
      case RawAffinity::kSparse: {
        // Thread t pinned to a single core, iterating nodes fastest so
        // consecutive threads land on different sockets.
        const int nodes = topo.num_nodes();
        const int d = topo.config().cores_per_node;
        const int i = static_cast<int>((spawn_rr_ + t) % nodes);
        const int j = static_cast<int>(((spawn_rr_ + t) / nodes) % d);
        platform::CpuMask mask;
        mask.Set(topo.CoreAt(i, j));
        pin = mask;
        break;
      }
      case RawAffinity::kDense:
        // Every thread confined to node 0 (the paper's "all pthreads sent
        // to the same node").
        pin = platform::CpuMask::NodeCores(topo, 0);
        break;
    }

    machine_->scheduler().SpawnOneShot(
        std::move(job), pin, [this, latch](ossim::ThreadId) {
          latch->remaining--;
          if (latch->remaining == 0) {
            completed_++;
            if (latch->done) latch->done();
          }
        });
  }
  spawn_rr_ += threads;
}

}  // namespace elastic::exec
