#ifndef ELASTICORE_OSSIM_THREAD_H_
#define ELASTICORE_OSSIM_THREAD_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "numasim/page_table.h"
#include "platform/cpu_mask.h"
#include "perf/counters.h"

namespace elastic::ossim {

using ThreadId = int64_t;
inline constexpr ThreadId kInvalidThread = -1;

/// Identifier of a scheduler cpuset group (the simulated cgroup cpuset a
/// thread is confined to). kGlobalCpuset means the thread only obeys the
/// scheduler's global allowed mask.
using CpusetId = int;
inline constexpr CpusetId kGlobalCpuset = -1;

/// One contiguous page range of a buffer accessed by a job.
struct PageRange {
  numasim::BufferId buffer = 0;
  int64_t begin = 0;  // first page index (inclusive)
  int64_t end = 0;    // one past the last page index
  /// Writes materialise output (first-touch allocation + invalidation).
  bool write = false;

  int64_t num_pages() const { return end - begin; }
};

/// A unit of database work executed by one thread: a set of page-range
/// access streams advanced in lockstep (a scan reading N input columns and
/// writing one output vector), plus a per-page compute cost.
///
/// Streams are interleaved proportionally to their lengths, which models
/// operators that consume inputs and produce outputs at matched rates.
struct Job {
  std::vector<PageRange> ranges;
  /// Pure compute cycles charged per page processed (operator logic,
  /// interpretation overhead, tuple materialisation).
  int64_t cpu_cycles_per_page = 0;
  /// perf attribution stream (query class).
  int stream = perf::kNoStream;

  int64_t total_pages() const {
    int64_t total = 0;
    for (const PageRange& r : ranges) total += r.num_pages();
    return total;
  }
};

enum class ThreadState {
  /// Parked: no job assigned; does not occupy a core. (A DBMS pool worker
  /// waiting on its job queue.)
  kIdle,
  /// Has work and waits in a core's run queue.
  kReady,
  /// Currently assigned to a core.
  kRunning,
  /// Exited (one-shot threads only).
  kFinished,
};

/// A simulated OS thread. DBMS engines either keep pools of long-lived
/// workers (MonetDB / SQL Server model: AssignJob + on_job_done) or spawn
/// one-shot threads per query (the hand-coded C model).
struct Thread {
  ThreadId id = kInvalidThread;
  ThreadState state = ThreadState::kIdle;
  /// Current core (valid while kReady/kRunning).
  numasim::CoreId core = numasim::kInvalidCore;
  /// Optional hard pin (SQL Server soft-NUMA): scheduler intersects it with
  /// the thread's world (cpuset ∩ global allowed mask); if the intersection
  /// is empty the world wins (the OS cannot run a thread nowhere).
  std::optional<platform::CpuMask> pin;
  /// Cpuset group the thread belongs to (multi-tenant isolation); the
  /// scheduler confines the thread to the group's mask and never steals it
  /// onto a core outside that mask.
  CpusetId cpuset = kGlobalCpuset;
  /// One-shot threads exit after their last job instead of going idle.
  bool one_shot = false;

  /// Pending jobs (executed in order).
  std::deque<Job> jobs;
  /// Progress inside jobs.front(): per-range next page offset.
  std::vector<int64_t> range_pos;
  /// Round-robin cursor over ranges.
  size_t range_cursor = 0;

  /// Called when the front job completes (engine assigns the next job).
  std::function<void(ThreadId)> on_job_done;
  /// Called when a one-shot thread exits.
  std::function<void(ThreadId)> on_exit;

  // -- statistics --
  int64_t pages_processed = 0;
  int64_t remote_pages = 0;  // pages whose home node != the accessing core's
  int64_t migrations = 0;
  int64_t consecutive_ticks_on_core = 0;

  bool HasWork() const { return !jobs.empty(); }
};

}  // namespace elastic::ossim

#endif  // ELASTICORE_OSSIM_THREAD_H_
