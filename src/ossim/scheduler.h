#ifndef ELASTICORE_OSSIM_SCHEDULER_H_
#define ELASTICORE_OSSIM_SCHEDULER_H_

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "numasim/memory_system.h"
#include "numasim/topology.h"
#include "platform/cpu_mask.h"
#include "ossim/thread.h"
#include "perf/counters.h"
#include "simcore/clock.h"
#include "simcore/trace.h"

namespace elastic::ossim {

/// Scheduler tuning knobs.
struct SchedulerConfig {
  /// Rebalance run queues every this many ticks (Linux-style periodic load
  /// balancing that is oblivious to NUMA data placement).
  int load_balance_period = 10;
  /// A thread is preempted after this many consecutive ticks when other
  /// threads wait on the same core.
  int timeslice_ticks = 4;
  /// Record a "run" trace event per running thread per tick (thread
  /// migration maps, Figs. 5 and 16). Expensive; enable for single-client
  /// experiments only.
  bool trace_placement = false;
  /// Record "migrate" and "steal" trace events.
  bool trace_migrations = false;
};

/// Simulated OS CPU scheduler: one run queue per core, node-oblivious load
/// balancing, and work stealing — the baseline behaviour the paper's Section
/// II measures. The elastic mechanism narrows the scheduler's world through
/// SetAllowedMask(), the cgroup cpuset emulation. Multi-tenant deployments
/// instead carve the machine into named cpuset *groups* (CreateCpuset):
/// every thread attached to a group is confined to that group's mask, which
/// the core arbiter rebalances at monitor-round boundaries.
class Scheduler {
 public:
  Scheduler(const numasim::Topology* topology, numasim::MemorySystem* memory,
            perf::CounterSet* counters, simcore::Clock* clock,
            simcore::Trace* trace, SchedulerConfig config);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Creates a long-lived pool worker (starts idle). `on_job_done` runs every
  /// time the worker finishes a job; the engine uses it to hand the worker
  /// its next job or leave it parked. `cpuset` confines the worker to a
  /// cpuset group for its whole lifetime.
  ThreadId SpawnWorker(std::optional<platform::CpuMask> pin,
                       std::function<void(ThreadId)> on_job_done,
                       CpusetId cpuset = kGlobalCpuset);

  /// Creates a one-shot thread that executes `job` and exits (the hand-coded
  /// C microbenchmark model: one pthread per work unit).
  ThreadId SpawnOneShot(Job job, std::optional<platform::CpuMask> pin,
                        std::function<void(ThreadId)> on_exit,
                        CpusetId cpuset = kGlobalCpuset);

  /// Creates a cpuset group (simulated cgroup cpuset). Threads attached to
  /// the group run only on `mask ∩ allowed_mask()`; work stealing and load
  /// balancing never cross group boundaries.
  CpusetId CreateCpuset(platform::CpuMask mask);

  /// Rewrites a group's mask. Threads of the group sitting on cores that
  /// left the mask are migrated immediately, exactly like SetAllowedMask.
  void SetCpusetMask(CpusetId cpuset, platform::CpuMask mask);

  platform::CpuMask cpuset_mask(CpusetId cpuset) const;
  int num_cpusets() const { return static_cast<int>(cpusets_.size()); }

  /// Queues a job on a worker. Wakes the worker if it was idle.
  void AssignJob(ThreadId thread, Job job);

  /// Installs the cores the OS may use (cgroup cpuset). Threads sitting on
  /// now-forbidden cores are migrated immediately.
  void SetAllowedMask(platform::CpuMask mask);
  platform::CpuMask allowed_mask() const { return allowed_; }

  /// Runs one scheduler quantum on every allowed core.
  void Tick();

  /// Number of threads that currently have work (ready or running).
  int64_t runnable_threads() const { return runnable_count_; }

  /// True when any thread still has work queued.
  bool AnyRunnable() const { return runnable_count_ > 0; }

  const Thread& thread(ThreadId id) const { return threads_[id]; }
  int64_t num_threads() const { return static_cast<int64_t>(threads_.size()); }

  /// Queue length + running occupancy of one core (diagnostics/tests).
  int CoreLoad(numasim::CoreId core) const;

  /// Cycle budget of one core per tick.
  int64_t cycles_per_tick() const { return cycles_per_tick_; }

 private:
  /// Where a newly runnable thread goes: the least-loaded allowed core, with
  /// ties broken towards the least-loaded node and then round-robin — the
  /// spread-for-balance behaviour of the default OS policy.
  numasim::CoreId PickCoreForPlacement(const Thread& thread);

  /// Effective mask of a thread: world = cpuset ∩ allowed (falling back to
  /// allowed when empty), then pin ∩ world (falling back to world).
  platform::CpuMask EffectiveMask(const Thread& thread) const;

  /// Re-places a thread that lost its core (mask shrank under it).
  void MigrateThread(ThreadId id);
  /// Restores the placement invariant after any mask change: every
  /// ready/running thread sits on a core of its effective mask.
  void ReconfineThreads();

  void EnqueueReady(ThreadId id, numasim::CoreId core);
  void RemoveFromCore(ThreadId id);
  /// Runs the thread within `budget` cycles; returns cycles consumed.
  int64_t RunThreadOnCore(ThreadId id, numasim::CoreId core, int64_t budget,
                          std::vector<ThreadId>* completed_jobs);
  void LoadBalance();
  ThreadId TrySteal(numasim::CoreId thief);

  const numasim::Topology* topology_;
  numasim::MemorySystem* memory_;
  perf::CounterSet* counters_;
  simcore::Clock* clock_;
  simcore::Trace* trace_;
  SchedulerConfig config_;

  platform::CpuMask allowed_;
  std::vector<platform::CpuMask> cpusets_;
  int64_t cycles_per_tick_;
  std::deque<Thread> threads_;
  std::vector<std::deque<ThreadId>> run_queue_;  // per core, ready threads
  std::vector<ThreadId> running_;                // per core, current thread
  int64_t runnable_count_ = 0;
  int placement_rr_ = 0;  // round-robin tie breaker
};

}  // namespace elastic::ossim

#endif  // ELASTICORE_OSSIM_SCHEDULER_H_
