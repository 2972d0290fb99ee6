#ifndef ELASTICORE_EXEC_DBMS_ENGINE_H_
#define ELASTICORE_EXEC_DBMS_ENGINE_H_

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "db/plan_trace.h"
#include "exec/base_catalog.h"
#include "exec/task_graph.h"
#include "ossim/machine.h"

namespace elastic::exec {

/// Engine thread/data placement model.
enum class ThreadModel {
  /// MonetDB: a pool of interchangeable workers, one per core, scheduled
  /// wherever the OS pleases; a single global job queue.
  kOsScheduled,
  /// SQL Server soft-NUMA: workers pinned per socket, per-node job queues,
  /// jobs dispatched to the node that owns their input pages.
  kNumaPinned,
};

struct EngineOptions {
  ThreadModel model = ThreadModel::kOsScheduled;
  TaskGraphOptions task_graph;
  /// Cpuset group the engine's workers are confined to. kGlobalCpuset for a
  /// single-tenant engine; a CoreArbiter tenant cpuset in multi-tenant
  /// deployments (the arbiter then rebalances the group's cores while the
  /// engine stays oblivious, exactly like cgroups on a real DBMS).
  ossim::CpusetId cpuset = ossim::kGlobalCpuset;
};

/// A Volcano-style DBMS execution engine running on the simulated machine.
///
/// Queries are submitted as plan traces; each becomes a TaskGraph whose
/// stage jobs are executed by the worker pool. The engine is deliberately
/// oblivious to the elastic mechanism — cores come and go underneath it via
/// the scheduler's cpuset mask, exactly as cgroups act on a real DBMS.
class DbmsEngine {
 public:
  DbmsEngine(ossim::Machine* machine, const BaseCatalog* catalog,
             const EngineOptions& options);

  DbmsEngine(const DbmsEngine&) = delete;
  DbmsEngine& operator=(const DbmsEngine&) = delete;

  /// Starts one execution of `trace`. `on_complete` fires when the final
  /// stage's last job finishes; it may immediately Submit() again.
  /// `timing_sink`, when given, receives the per-stage execution windows at
  /// completion (requires options.task_graph.clock).
  void Submit(const db::PlanTrace* trace, std::function<void()> on_complete,
              std::vector<TaskGraph::StageTiming>* timing_sink = nullptr);

  int64_t active_queries() const { return static_cast<int64_t>(graphs_.size()); }
  int64_t completed_queries() const { return completed_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  struct PendingJob {
    ossim::Job job;
    TaskGraph* graph;
  };

  void PumpGraph(TaskGraph* graph);
  void Dispatch();
  void OnJobDone(ossim::ThreadId worker);
  void HandleComplete(TaskGraph* graph);
  /// Queue index a job should go to (node id, or the global queue).
  size_t QueueFor(const ossim::Job& job) const;
  /// Pops the best job for a worker; returns false when none fits.
  bool PopJobFor(ossim::ThreadId worker, PendingJob* out);

  ossim::Machine* machine_;
  const BaseCatalog* catalog_;
  EngineOptions options_;

  std::vector<ossim::ThreadId> workers_;
  std::unordered_map<ossim::ThreadId, int> worker_node_;  // -1 = unpinned
  std::vector<int> workers_per_node_;
  std::deque<ossim::ThreadId> idle_workers_;
  /// Per-node queues plus one global queue at index num_nodes.
  std::vector<std::deque<PendingJob>> queues_;
  std::unordered_map<ossim::ThreadId, TaskGraph*> running_graph_;
  std::vector<std::unique_ptr<TaskGraph>> graphs_;
  std::unordered_map<TaskGraph*, std::function<void()>> on_complete_;
  std::unordered_map<TaskGraph*, std::vector<TaskGraph::StageTiming>*> timing_sinks_;
  int64_t completed_ = 0;
};

}  // namespace elastic::exec

#endif  // ELASTICORE_EXEC_DBMS_ENGINE_H_
