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

/// Scheduler tracing switches.
struct SchedulerConfig {
  /// Record a "run" trace event per running thread per tick (thread
  /// migration maps, Figs. 5 and 16). Expensive; enable for single-client
  /// experiments only.
  bool trace_placement = false;
  /// Record "migrate" and "steal" trace events.
  bool trace_migrations = false;
};

/// Simulated OS CPU scheduler: one run queue per core, node-oblivious load
/// balancing, and work stealing — the baseline behaviour the paper's Section
/// II measures. Cpuset *groups* (CreateCpuset, the cgroup cpuset emulation)
/// are the one way to confine threads: a thread's world is its group's
/// mask, or every core for the global group. The core arbiter rewrites the
/// groups' masks at monitor-round boundaries, for one DBMS or many.
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
  /// the group run only on `mask`; work stealing and load balancing never
  /// cross group boundaries.
  CpusetId CreateCpuset(platform::CpuMask mask);

  /// Rewrites a group's mask. Threads of the group sitting on cores that
  /// left the mask are migrated immediately.
  void SetCpusetMask(CpusetId cpuset, platform::CpuMask mask);

  platform::CpuMask cpuset_mask(CpusetId cpuset) const;
  int num_cpusets() const { return static_cast<int>(cpusets_.size()); }

  /// Queues a job on a worker. Wakes the worker if it was idle.
  void AssignJob(ThreadId thread, Job job);

  /// Runs one scheduler quantum on every core.
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
  /// Where a newly runnable thread goes: the least-loaded core of its
  /// effective mask, with ties broken towards the node whose cores in the
  /// thread's world carry the least load, then round-robin — the
  /// spread-for-balance behaviour of the default OS policy.
  numasim::CoreId PickCoreForPlacement(const Thread& thread);

  /// Cores a thread may ever use: its cpuset's mask, or every core for the
  /// global group.
  const platform::CpuMask& World(const Thread& thread) const;

  /// Effective mask of a thread: pin ∩ world, falling back to the world
  /// when the pin lies outside it.
  platform::CpuMask EffectiveMask(const Thread& thread) const;
  /// EffectiveMask(thread).Has(core), without building the mask.
  bool MayRun(const Thread& thread, numasim::CoreId core) const;

  /// Re-places a thread that lost its core (mask shrank under it).
  void MigrateThread(ThreadId id);
  /// Restores the placement invariant after any mask change: every
  /// ready/running thread sits on a core of its effective mask.
  void ReconfineThreads();

  void EnqueueReady(ThreadId id, numasim::CoreId core);
  /// Runs the thread within `budget` cycles; returns cycles consumed.
  int64_t RunThreadOnCore(ThreadId id, numasim::CoreId core, int64_t budget,
                          std::vector<ThreadId>* completed_jobs);
  /// Balances every cpuset group over its own cores, in id order, then the
  /// global group over every core.
  void LoadBalance();
  /// Moves queued threads of `group` from the busiest to the idlest core of
  /// `mask` until the imbalance collapses below two.
  void BalanceGroup(CpusetId group, const platform::CpuMask& mask);
  ThreadId TrySteal(numasim::CoreId thief);

  const numasim::Topology* topology_;
  numasim::MemorySystem* memory_;
  perf::CounterSet* counters_;
  simcore::Clock* clock_;
  simcore::Trace* trace_;
  SchedulerConfig config_;

  /// Every core of the machine: the global group's world.
  const platform::CpuMask all_cores_;
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
