#include "ossim/scheduler.h"

#include <algorithm>
#include <utility>

#include "simcore/check.h"

namespace elastic::ossim {

namespace {

/// Rebalance run queues every this many ticks (Linux-style periodic load
/// balancing that is oblivious to NUMA data placement).
constexpr int kLoadBalancePeriod = 10;
/// A thread is preempted after this many consecutive ticks when other
/// threads wait on the same core.
constexpr int kTimesliceTicks = 4;

/// Prepares the progress cursors for a thread's new front job.
void InitFrontJob(Thread* thread) {
  if (thread->jobs.empty()) return;
  const Job& job = thread->jobs.front();
  thread->range_pos.assign(job.ranges.size(), 0);
  thread->range_cursor = 0;
}

}  // namespace

Scheduler::Scheduler(const numasim::Topology* topology,
                     numasim::MemorySystem* memory, perf::CounterSet* counters,
                     simcore::Clock* clock, simcore::Trace* trace,
                     SchedulerConfig config)
    : topology_(topology),
      memory_(memory),
      counters_(counters),
      clock_(clock),
      trace_(trace),
      config_(config),
      all_cores_(platform::CpuMask::AllOf(*topology)),
      cycles_per_tick_(static_cast<int64_t>(topology->config().cycles_per_second *
                                            simcore::Clock::kSecondsPerTick)) {
  run_queue_.resize(static_cast<size_t>(topology_->total_cores()));
  running_.assign(static_cast<size_t>(topology_->total_cores()), kInvalidThread);
}

ThreadId Scheduler::SpawnWorker(std::optional<platform::CpuMask> pin,
                                std::function<void(ThreadId)> on_job_done,
                                CpusetId cpuset) {
  ELASTIC_CHECK(cpuset == kGlobalCpuset || (cpuset >= 0 && cpuset < num_cpusets()),
                "unknown cpuset");
  Thread thread;
  thread.id = static_cast<ThreadId>(threads_.size());
  thread.state = ThreadState::kIdle;
  thread.pin = pin;
  thread.cpuset = cpuset;
  thread.on_job_done = std::move(on_job_done);
  threads_.push_back(std::move(thread));
  return threads_.back().id;
}

ThreadId Scheduler::SpawnOneShot(Job job, std::optional<platform::CpuMask> pin,
                                 std::function<void(ThreadId)> on_exit,
                                 CpusetId cpuset) {
  ELASTIC_CHECK(cpuset == kGlobalCpuset || (cpuset >= 0 && cpuset < num_cpusets()),
                "unknown cpuset");
  Thread thread;
  thread.id = static_cast<ThreadId>(threads_.size());
  thread.state = ThreadState::kIdle;
  thread.pin = pin;
  thread.cpuset = cpuset;
  thread.one_shot = true;
  thread.on_exit = std::move(on_exit);
  threads_.push_back(std::move(thread));
  AssignJob(threads_.back().id, std::move(job));
  return threads_.back().id;
}

CpusetId Scheduler::CreateCpuset(platform::CpuMask mask) {
  ELASTIC_CHECK(!mask.Empty(), "cpuset must hold at least one core");
  ELASTIC_CHECK(mask.IsSubsetOf(all_cores_), "cpuset exceeds machine cores");
  cpusets_.push_back(mask);
  return static_cast<CpusetId>(cpusets_.size()) - 1;
}

platform::CpuMask Scheduler::cpuset_mask(CpusetId cpuset) const {
  ELASTIC_CHECK(cpuset >= 0 && cpuset < num_cpusets(), "unknown cpuset");
  return cpusets_[static_cast<size_t>(cpuset)];
}

void Scheduler::SetCpusetMask(CpusetId cpuset, platform::CpuMask mask) {
  ELASTIC_CHECK(cpuset >= 0 && cpuset < num_cpusets(), "unknown cpuset");
  ELASTIC_CHECK(!mask.Empty(), "cpuset must keep at least one core");
  ELASTIC_CHECK(mask.IsSubsetOf(all_cores_), "cpuset exceeds machine cores");
  if (mask == cpusets_[static_cast<size_t>(cpuset)]) return;
  cpusets_[static_cast<size_t>(cpuset)] = mask;
  ReconfineThreads();
}

void Scheduler::AssignJob(ThreadId id, Job job) {
  ELASTIC_CHECK(id >= 0 && id < num_threads(), "bad thread id");
  Thread& thread = threads_[id];
  ELASTIC_CHECK(thread.state != ThreadState::kFinished,
                "assigning job to finished thread");
  counters_->tasks_spawned++;
  thread.jobs.push_back(std::move(job));
  if (thread.state == ThreadState::kIdle) {
    InitFrontJob(&thread);
    const numasim::CoreId core = PickCoreForPlacement(thread);
    thread.consecutive_ticks_on_core = 0;
    EnqueueReady(id, core);
    runnable_count_++;
  }
}

void Scheduler::MigrateThread(ThreadId id) {
  Thread& thread = threads_[id];
  const numasim::CoreId target = PickCoreForPlacement(thread);
  thread.migrations++;
  counters_->thread_migrations++;
  if (config_.trace_migrations) {
    trace_->Add(clock_->now(), "migrate", id, target);
  }
  thread.consecutive_ticks_on_core = 0;
  EnqueueReady(id, target);
}

void Scheduler::ReconfineThreads() {
  // Migrate every ready/running thread whose current core left its
  // effective mask. Checking the invariant (rather than diffing old vs new
  // cores) also repairs fallback placements: a pinned thread parked on its
  // world because the pin lay outside it returns to its pin as soon as a
  // mask change brings the pinned cores back.
  for (numasim::CoreId core = 0; core < topology_->total_cores(); ++core) {
    const ThreadId running = running_[core];
    if (running != kInvalidThread &&
        !MayRun(threads_[running], core)) {
      running_[core] = kInvalidThread;
      MigrateThread(running);
    }
    auto& queue = run_queue_[core];
    for (size_t scan = queue.size(); scan > 0; --scan) {
      const ThreadId id = queue.front();
      queue.pop_front();
      if (!MayRun(threads_[id], core)) {
        MigrateThread(id);
      } else {
        queue.push_back(id);  // still legally placed, keep queue order
      }
    }
  }
}

const platform::CpuMask& Scheduler::World(const Thread& thread) const {
  return thread.cpuset == kGlobalCpuset
             ? all_cores_
             : cpusets_[static_cast<size_t>(thread.cpuset)];
}

platform::CpuMask Scheduler::EffectiveMask(const Thread& thread) const {
  const platform::CpuMask& world = World(thread);
  if (thread.pin.has_value()) {
    const platform::CpuMask effective = thread.pin->Intersect(world);
    if (!effective.Empty()) return effective;
  }
  return world;
}

bool Scheduler::MayRun(const Thread& thread, numasim::CoreId core) const {
  const platform::CpuMask& world = World(thread);
  if (!world.Has(core)) return false;
  if (!thread.pin.has_value() || thread.pin->Has(core)) return true;
  // The core is outside the pin: allowed only when the pin misses the
  // world entirely and the thread falls back to the whole world.
  return thread.pin->Intersect(world).Empty();
}

int Scheduler::CoreLoad(numasim::CoreId core) const {
  return static_cast<int>(run_queue_[core].size()) +
         (running_[core] != kInvalidThread ? 1 : 0);
}

numasim::CoreId Scheduler::PickCoreForPlacement(const Thread& thread) {
  const platform::CpuMask mask = EffectiveMask(thread);
  const std::vector<numasim::CoreId> cores = mask.ToCores();
  ELASTIC_CHECK(!cores.empty(), "no core available for placement");

  // Minimum per-core load.
  int min_load = INT32_MAX;
  for (numasim::CoreId core : cores) min_load = std::min(min_load, CoreLoad(core));

  // Among min-load cores prefer the least-loaded node (the OS spreads for
  // balance, scattering threads across sockets). A node's load counts only
  // the cores of the thread's world: other groups' queues are not its
  // business.
  std::vector<int64_t> node_load(static_cast<size_t>(topology_->num_nodes()), 0);
  for (numasim::CoreId core : World(thread).ToCores()) {
    node_load[topology_->NodeOfCore(core)] += CoreLoad(core);
  }
  std::vector<numasim::CoreId> candidates;
  for (numasim::CoreId core : cores) {
    if (CoreLoad(core) == min_load) candidates.push_back(core);
  }
  int64_t best_node_load = INT64_MAX;
  for (numasim::CoreId core : candidates) {
    best_node_load = std::min(best_node_load, node_load[topology_->NodeOfCore(core)]);
  }
  std::vector<numasim::CoreId> finalists;
  for (numasim::CoreId core : candidates) {
    if (node_load[topology_->NodeOfCore(core)] == best_node_load) {
      finalists.push_back(core);
    }
  }
  const numasim::CoreId chosen =
      finalists[static_cast<size_t>(placement_rr_++) % finalists.size()];
  return chosen;
}

void Scheduler::EnqueueReady(ThreadId id, numasim::CoreId core) {
  Thread& thread = threads_[id];
  thread.state = ThreadState::kReady;
  thread.core = core;
  run_queue_[core].push_back(id);
}

ThreadId Scheduler::TrySteal(numasim::CoreId thief) {
  numasim::CoreId richest = numasim::kInvalidCore;
  size_t richest_depth = 0;
  for (numasim::CoreId core = 0; core < topology_->total_cores(); ++core) {
    if (core == thief) continue;
    if (run_queue_[core].size() > richest_depth) {
      richest_depth = run_queue_[core].size();
      richest = core;
    }
  }
  if (richest == numasim::kInvalidCore || richest_depth == 0) return kInvalidThread;
  // Steal the coldest (back) thread whose mask permits the thief core.
  auto& queue = run_queue_[richest];
  for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
    Thread& thread = threads_[*it];
    if (!MayRun(thread, thief)) continue;
    const ThreadId id = *it;
    queue.erase(std::next(it).base());
    counters_->stolen_tasks++;
    if (config_.trace_migrations) {
      trace_->Add(clock_->now(), "steal", id, thief);
    }
    thread.core = thief;
    thread.consecutive_ticks_on_core = 0;
    return id;
  }
  return kInvalidThread;
}

void Scheduler::LoadBalance() {
  counters_->load_balance_rounds++;
  for (CpusetId group = 0; group < num_cpusets(); ++group) {
    BalanceGroup(group, cpusets_[static_cast<size_t>(group)]);
  }
  BalanceGroup(kGlobalCpuset, all_cores_);
}

void Scheduler::BalanceGroup(CpusetId group, const platform::CpuMask& mask) {
  const std::vector<numasim::CoreId> cores = mask.ToCores();
  if (cores.size() < 2) return;
  // Repeatedly move one queued thread from the busiest to the idlest core
  // until the imbalance collapses below two.
  for (int iteration = 0; iteration < topology_->total_cores(); ++iteration) {
    numasim::CoreId busiest = cores[0];
    numasim::CoreId idlest = cores[0];
    for (numasim::CoreId core : cores) {
      if (CoreLoad(core) > CoreLoad(busiest)) busiest = core;
      if (CoreLoad(core) < CoreLoad(idlest)) idlest = core;
    }
    if (CoreLoad(busiest) - CoreLoad(idlest) < 2) break;
    if (run_queue_[busiest].empty()) break;
    // Migrate the group's coldest queued thread allowed on the idle core.
    bool moved = false;
    auto& queue = run_queue_[busiest];
    for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
      Thread& thread = threads_[*it];
      if (thread.cpuset != group || !MayRun(thread, idlest)) continue;
      const ThreadId id = *it;
      queue.erase(std::next(it).base());
      thread.migrations++;
      counters_->thread_migrations++;
      if (config_.trace_migrations) {
        trace_->Add(clock_->now(), "migrate", id, idlest);
      }
      EnqueueReady(id, idlest);
      moved = true;
      break;
    }
    if (!moved) break;
  }
}

int64_t Scheduler::RunThreadOnCore(ThreadId id, numasim::CoreId core,
                                   int64_t budget,
                                   std::vector<ThreadId>* completed_jobs) {
  Thread& thread = threads_[id];
  thread.state = ThreadState::kRunning;
  thread.core = core;
  if (config_.trace_placement) {
    trace_->Add(clock_->now(), "run", id, core);
  }

  const int64_t initial_budget = budget;
  int64_t used = 0;
  while (budget > 0 && !thread.jobs.empty()) {
    Job& job = thread.jobs.front();
    // Find the next range with remaining pages, round-robin across ranges so
    // multi-column scans interleave their streams.
    size_t scanned = 0;
    bool advanced = false;
    while (scanned < job.ranges.size()) {
      const size_t r = thread.range_cursor;
      if (++thread.range_cursor == job.ranges.size()) thread.range_cursor = 0;
      scanned++;
      const PageRange& range = job.ranges[r];
      if (thread.range_pos[r] >= range.num_pages()) continue;
      const numasim::PageId page =
          numasim::PageTable::PageOf(range.buffer, range.begin + thread.range_pos[r]);
      const numasim::AccessResult access =
          memory_->Access(core, page, range.write, job.stream);
      const int64_t cycles = access.cycles + job.cpu_cycles_per_page;
      budget -= cycles;
      used += cycles;
      counters_->stream_busy_cycles[job.stream] += cycles;
      thread.range_pos[r]++;
      thread.pages_processed++;
      if (access.remote) thread.remote_pages++;
      advanced = true;
      break;
    }
    if (!advanced) {
      // All ranges exhausted: the job is complete.
      thread.jobs.pop_front();
      completed_jobs->push_back(id);
      if (thread.jobs.empty()) break;
      InitFrontJob(&thread);
    }
  }
  used = std::min(used, initial_budget);
  counters_->core_busy_cycles[core] += used;
  thread.consecutive_ticks_on_core++;
  return used;
}

void Scheduler::Tick() {
  memory_->BeginTick();
  if (clock_->now() % kLoadBalancePeriod == 0) LoadBalance();

  std::vector<ThreadId> completed_jobs;
  for (numasim::CoreId core = 0; core < topology_->total_cores(); ++core) {
    // A core's quantum is consumed by as many threads as fit: when a job
    // finishes mid-tick the next runnable thread is dispatched immediately,
    // like a real OS (no idle tail on a busy core).
    int64_t remaining = cycles_per_tick_;
    while (remaining > 0) {
      // Dispatch: continue the running thread, else pop the queue, else steal.
      if (running_[core] == kInvalidThread) {
        if (!run_queue_[core].empty()) {
          running_[core] = run_queue_[core].front();
          run_queue_[core].pop_front();
          threads_[running_[core]].consecutive_ticks_on_core = 0;
        } else {
          const ThreadId stolen = TrySteal(core);
          if (stolen != kInvalidThread) running_[core] = stolen;
        }
      }
      const ThreadId current = running_[core];
      if (current == kInvalidThread) break;  // nothing runnable anywhere

      completed_jobs.clear();
      const int64_t used = RunThreadOnCore(current, core, remaining,
                                           &completed_jobs);
      remaining -= std::max<int64_t>(used, 1);

      Thread& thread = threads_[current];
      bool exited = false;
      if (thread.jobs.empty()) {
        // Worker goes idle (or exits, for one-shot threads); the core frees.
        running_[core] = kInvalidThread;
        thread.core = numasim::kInvalidCore;
        runnable_count_--;
        if (thread.one_shot) {
          thread.state = ThreadState::kFinished;
          exited = true;
        } else {
          thread.state = ThreadState::kIdle;
        }
      } else if (thread.consecutive_ticks_on_core >= kTimesliceTicks &&
                 !run_queue_[core].empty()) {
        // Preempt: rotate to the back of this core's queue.
        running_[core] = kInvalidThread;
        EnqueueReady(current, core);
      }

      // Completion callbacks run after the thread's slice so they can safely
      // assign new jobs (possibly to this very thread, waking it again).
      // One-shot threads get a single on_exit instead of per-job callbacks.
      for (ThreadId done : completed_jobs) {
        Thread& owner = threads_[done];
        if (owner.one_shot) continue;
        if (owner.on_job_done) owner.on_job_done(done);
      }
      if (exited && thread.on_exit) thread.on_exit(current);
    }
  }
}

}  // namespace elastic::ossim
