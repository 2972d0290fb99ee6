#ifndef ELASTICORE_EXEC_TASK_GRAPH_H_
#define ELASTICORE_EXEC_TASK_GRAPH_H_

#include <functional>
#include <string>
#include <vector>

#include "db/plan_trace.h"
#include "exec/base_catalog.h"
#include "numasim/page_table.h"
#include "ossim/thread.h"
#include "simcore/clock.h"

namespace elastic::exec {

/// Tuning of the trace-to-jobs conversion.
struct TaskGraphOptions {
  /// Parallel tasks per stage — the Volcano horizontal parallelism degree.
  /// MonetDB sets one worker thread per core (paper footnote 2); the
  /// default matches the 16 cores of the default 4x4 MachineConfig.
  int parallelism = 16;
  /// Interpreted-engine compute cost per row (~80 cycles/row, in line with
  /// MonetDB's per-BAT operator cost on the paper's hardware). Together with
  /// the memory-system costs this puts memory stalls at roughly a third of a
  /// scan's runtime under bad placement — the regime in which the paper's
  /// locality improvements translate into its reported speedups.
  double cycles_per_row = 80.0;
  /// When set, stage start/end ticks are recorded (tomograph-style
  /// operator timelines, Fig. 6).
  const simcore::Clock* clock = nullptr;
};

/// One query execution instantiated from a PlanTrace: per-stage parallel
/// jobs with real page ranges over the base buffers and fresh intermediate
/// buffers, advanced stage-by-stage with a barrier (operator-at-a-time).
///
/// The engine drives the graph: TakeReadyJobs() hands out the current
/// stage's jobs, OnJobComplete() advances the barrier. Intermediates are
/// freed when the query finishes.
class TaskGraph {
 public:
  TaskGraph(numasim::PageTable* page_table, const BaseCatalog* catalog,
            const db::PlanTrace* trace, const TaskGraphOptions& options,
            std::function<void()> on_complete);
  ~TaskGraph();

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Jobs of the current stage that have not been handed out yet. Returns an
  /// empty vector when the stage is exhausted (wait for completions) or the
  /// graph is done.
  std::vector<ossim::Job> TakeReadyJobs();

  /// Engine notification: one job of the current stage finished. Advances to
  /// the next stage at the barrier; fires on_complete at the end.
  void OnJobComplete();

  bool done() const { return done_; }
  int current_stage() const { return stage_; }
  int num_stages() const { return static_cast<int>(trace_->stages.size()); }
  const db::PlanTrace& trace() const { return *trace_; }

  /// Per-stage execution window (valid when options.clock was set).
  struct StageTiming {
    simcore::Tick started = 0;
    simcore::Tick finished = 0;
    int tasks = 0;
  };
  const std::vector<StageTiming>& stage_timings() const { return timings_; }

 private:
  void PrepareStage();
  void Finish();

  numasim::PageTable* page_table_;
  const BaseCatalog* catalog_;
  const db::PlanTrace* trace_;
  TaskGraphOptions options_;
  std::function<void()> on_complete_;

  int stage_ = 0;
  int jobs_outstanding_ = 0;
  bool done_ = false;
  std::vector<ossim::Job> ready_;
  /// Output buffer of each completed/running stage.
  std::vector<numasim::BufferId> stage_buffers_;
  std::vector<int64_t> stage_buffer_pages_;
  std::vector<StageTiming> timings_;
};

}  // namespace elastic::exec

#endif  // ELASTICORE_EXEC_TASK_GRAPH_H_
