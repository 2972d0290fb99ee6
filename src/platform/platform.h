#ifndef ELASTICORE_PLATFORM_PLATFORM_H_
#define ELASTICORE_PLATFORM_PLATFORM_H_

#include <functional>
#include <memory>
#include <string>

#include "numasim/topology.h"
#include "perf/sampler.h"
#include "platform/cpu_mask.h"
#include "simcore/clock.h"
#include "simcore/trace.h"

namespace elastic::platform {

/// Identifier of a platform cpuset (a cgroup cpuset directory on Linux, a
/// scheduler cpuset group in the simulator).
using CpusetId = int;
inline constexpr CpusetId kNoCpuset = -1;

/// What the elastic layer actually consumes from an operating system — the
/// seam between the paper's mechanism and the machine it manages.
///
/// The mechanism/arbiter control loop only ever (1) enumerates the NUMA
/// topology, (2) carves the machine into cpusets and rewrites their masks,
/// (3) reads windowed utilization counters, and (4) asks for the time. Two
/// backends implement this surface:
///
///   SimPlatform   — wraps ossim::Machine/ossim::Scheduler; deterministic,
///                   the test and figure-reproduction harness.
///   LinuxPlatform — writes cgroup-v2 cpuset.cpus files and samples
///                   /proc/stat, attaching the same arbiter code to real
///                   processes (tools/elasticored).
///
/// Everything above this interface (CoreArbiter, ElasticMechanism, the
/// entitlement policies, the allocation modes) is backend-agnostic.
class Platform {
 public:
  virtual ~Platform() = default;

  /// NUMA layout of the managed machine: nodes, cores per node, links.
  virtual const numasim::Topology& topology() const = 0;

  /// Monotonic time in ticks. Simulated ticks on SimPlatform; wall-clock
  /// monitor quanta (seconds_per_tick) on LinuxPlatform.
  virtual simcore::Tick Now() const = 0;

  /// Per-core cycle budget of one tick, the denominator of
  /// perf::WindowStats::CpuLoadPercent (scheduler cycles in the simulator,
  /// clock-tick jiffies on Linux).
  virtual int64_t cycles_per_tick() const = 0;

  /// Creates a cpuset confined to `mask`. `name` labels the cpuset where
  /// the backend can (the cgroup directory name on Linux; ignored by the
  /// simulator).
  virtual CpusetId CreateCpuset(const std::string& name, const CpuMask& mask) = 0;

  /// Rewrites a cpuset's mask; processes/threads inside it are re-confined
  /// immediately. Returns whether the mask is now known to be installed in
  /// the OS — false means the backend could not apply it (a failed cgroup
  /// write, an injected fault) and the caller must treat the cpuset as
  /// still holding its previous mask. The simulator never fails.
  virtual bool SetCpusetMask(CpusetId cpuset, const CpuMask& mask) = 0;

  virtual CpuMask cpuset_mask(CpusetId cpuset) const = 0;

  /// Does nothing, and nothing in src/ calls it: a workload is confined
  /// through a cpuset, for one DBMS as for many. It stays only because
  /// benchmark/scenarios.cc's TimedPlatform overrides it, and goes with the
  /// next change to benchmark/.
  virtual void SetAllowedMask(const CpuMask& /*mask*/) {}

  /// New windowed utilization source baselined at the current instant. Each
  /// mechanism owns one; Sample() yields the deltas of the last window.
  virtual std::unique_ptr<perf::UtilizationSampler> CreateSampler() = 0;

  /// Registers a hook invoked once per tick (the monitoring cadence). The
  /// hook decides itself whether a monitoring round is due (now % period).
  /// SimPlatform fires hooks from the machine's tick loop; LinuxPlatform
  /// stores them for a driving loop (tools/elasticored) to fire.
  virtual void AddTickHook(std::function<void(simcore::Tick)> hook) = 0;

  /// The backend's event sink; never null. Nothing in src/ calls it
  /// through this interface: it stays only because benchmark/scenarios.cc's
  /// TimedPlatform overrides it, and goes with the next change to
  /// benchmark/.
  virtual simcore::Trace* trace() = 0;
};

}  // namespace elastic::platform

#endif  // ELASTICORE_PLATFORM_PLATFORM_H_
