#ifndef ELASTICORE_PLATFORM_FAULT_INJECTION_PLATFORM_H_
#define ELASTICORE_PLATFORM_FAULT_INJECTION_PLATFORM_H_

#include <functional>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "platform/platform.h"
#include "simcore/rng.h"

namespace elastic::platform {

/// The control-plane failure classes the decorator can inject. Each models
/// a real degradation of the seam between arbiter and OS, not a crash: the
/// layer above is supposed to survive all of them.
enum class FaultKind {
  /// SetCpusetMask fails (returns false without forwarding): a cgroup
  /// write denied by the kernel (EBUSY, EACCES, a removed directory).
  kCpusetWriteFail,
  /// Sample() returns a zero-width empty window: the probe did not answer
  /// this round (mpstat hung, /proc momentarily unreadable).
  kSampleDropout,
  /// Sample() returns absurd counter values: a wrapped or corrupted
  /// counter read.
  kSampleGarbage,
  /// Now() freezes at the window start, and tick hooks fire with the
  /// frozen tick: a stalled clock source pauses the monitoring cadence.
  kClockStall,
  /// Tick hooks are suppressed during the window and the newest suppressed
  /// tick is replayed on the first delivery after it: a late timer.
  kTickDelay,
};

const char* FaultKindName(FaultKind kind);

/// One scheduled fault: `kind` is injected while the platform time is in
/// [from, until), on `target` (a CpusetId for kCpusetWriteFail, a sampler
/// creation index for the sample kinds, a hook registration index for
/// kTickDelay; -1 matches any), with `probability` per event. kClockStall
/// ignores target and probability — a stall is a property of the clock,
/// and a probabilistic one would make Now() non-monotonic.
struct FaultRule {
  FaultKind kind = FaultKind::kCpusetWriteFail;
  simcore::Tick from = 0;
  simcore::Tick until = 0;
  int target = -1;
  double probability = 1.0;
};

/// A seeded fault schedule: the same schedule and seed against the same
/// workload reproduces the same injections, byte for byte — chaos runs are
/// as replayable as the fault-free benches.
struct FaultSchedule {
  uint64_t seed = 1;
  std::vector<FaultRule> rules;
};

/// Platform decorator injecting deterministic faults from a schedule into
/// any backend — SimPlatform in the chaos bench and the degraded-telemetry
/// tests, LinuxPlatform under `elasticored --inject`. Pure passthrough for
/// every call no rule matches: with an empty schedule the decorated
/// platform is byte-for-byte the inner one.
///
/// Non-owning: the inner platform must outlive the decorator.
class FaultInjectionPlatform : public Platform {
 public:
  FaultInjectionPlatform(Platform* inner, const FaultSchedule& schedule);

  // -- Platform interface --
  const numasim::Topology& topology() const override {
    return inner_->topology();
  }
  simcore::Tick Now() const override;
  int64_t cycles_per_tick() const override { return inner_->cycles_per_tick(); }
  CpusetId CreateCpuset(const std::string& name, const CpuMask& mask) override {
    return inner_->CreateCpuset(name, mask);
  }
  bool SetCpusetMask(CpusetId cpuset, const CpuMask& mask) override;
  CpuMask cpuset_mask(CpusetId cpuset) const override {
    return inner_->cpuset_mask(cpuset);
  }
  std::unique_ptr<perf::UtilizationSampler> CreateSampler() override;
  void AddTickHook(std::function<void(simcore::Tick)> hook) override;
  simcore::Trace* trace() override { return inner_->trace(); }

  // -- Inspection surface --

  /// Chronological "tick <t>: <kind> target=<n> ..." lines, one per
  /// injected fault; the determinism test surface. Bounded like the Linux
  /// backend's op log (oldest half dropped at kMaxLog).
  const std::vector<std::string>& injection_log() const {
    return injection_log_;
  }
  static constexpr size_t kMaxLog = 65536;

  /// Number of injections of one kind so far.
  int64_t injected(FaultKind kind) const;

  Platform* inner() { return inner_; }

 private:
  class FaultySampler;
  struct HookState {
    std::function<void(simcore::Tick)> hook;
    int index = 0;
    bool pending = false;
    simcore::Tick pending_tick = 0;
  };

  /// Whether a per-event rule of `kind` fires for `target` at time `now`
  /// (draws the seeded stream only for probabilistic rules).
  bool Fire(FaultKind kind, int target, simcore::Tick now);
  /// `now` mapped through any active kClockStall window.
  simcore::Tick MappedNow(simcore::Tick now) const;
  void Log(FaultKind kind, int target, simcore::Tick now,
           const std::string& detail);
  void DeliverTick(HookState* state, simcore::Tick inner_now);

  Platform* inner_;
  FaultSchedule schedule_;
  simcore::Rng rng_;
  /// Floor for Now(): the last tick an externally driven backend (the dry
  /// run's synthetic FireTickHooks clock) delivered through a hook. In the
  /// simulator it always equals the machine clock, so it changes nothing.
  simcore::Tick last_hook_tick_ = 0;
  int samplers_created_ = 0;
  /// std::list: hook lambdas capture stable HookState addresses.
  std::list<HookState> hook_states_;
  std::vector<std::string> injection_log_;
  int64_t injected_[5] = {0, 0, 0, 0, 0};
};

}  // namespace elastic::platform

#endif  // ELASTICORE_PLATFORM_FAULT_INJECTION_PLATFORM_H_
