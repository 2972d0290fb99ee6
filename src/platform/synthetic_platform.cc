#include "platform/synthetic_platform.h"

#include <utility>

#include "simcore/check.h"

namespace elastic::platform {

SyntheticPlatform::SyntheticPlatform(const numasim::MachineConfig& config)
    : topology_(config),
      counters_(topology_.num_nodes(), topology_.num_links(),
                topology_.total_cores()),
      reading_(std::make_shared<perf::TickReading>(
          [this] { return clock_.now(); },
          [this](simcore::Tick tick) {
            return std::make_shared<const perf::CounterSnapshot>(counters_,
                                                                 tick);
          })),
      cycles_per_tick_(static_cast<int64_t>(config.cycles_per_second *
                                            simcore::Clock::kSecondsPerTick)),
      busy_fraction_(static_cast<size_t>(topology_.total_cores()), 0.0) {}

CpusetId SyntheticPlatform::CreateCpuset(const std::string& name,
                                         const CpuMask& mask) {
  (void)name;
  cpusets_.push_back(mask);
  return static_cast<CpusetId>(cpusets_.size()) - 1;
}

bool SyntheticPlatform::SetCpusetMask(CpusetId cpuset, const CpuMask& mask) {
  ELASTIC_CHECK(cpuset >= 0 && cpuset < static_cast<int>(cpusets_.size()),
                "unknown cpuset");
  cpusets_[static_cast<size_t>(cpuset)] = mask;
  return true;
}

CpuMask SyntheticPlatform::cpuset_mask(CpusetId cpuset) const {
  ELASTIC_CHECK(cpuset >= 0 && cpuset < static_cast<int>(cpusets_.size()),
                "unknown cpuset");
  return cpusets_[static_cast<size_t>(cpuset)];
}

std::unique_ptr<perf::UtilizationSampler> SyntheticPlatform::CreateSampler() {
  return std::make_unique<perf::Sampler>(reading_);
}

void SyntheticPlatform::AddTickHook(
    std::function<void(simcore::Tick)> hook) {
  hooks_.push_back(std::move(hook));
}

void SyntheticPlatform::SetCoreBusyFraction(int core, double fraction) {
  ELASTIC_CHECK(core >= 0 && core < topology_.total_cores(),
                "core id out of range");
  ELASTIC_CHECK(fraction >= 0.0 && fraction <= 1.0,
                "busy fraction must be in [0, 1]");
  const size_t index = static_cast<size_t>(core);
  if (busy_fraction_[index] == 0.0 && fraction > 0.0) {
    busy_cores_.push_back(core);
  }
  busy_fraction_[index] = fraction;
}

void SyntheticPlatform::AdvanceTicks(int64_t ticks) {
  ELASTIC_CHECK(ticks >= 0, "cannot advance backwards");
  for (int64_t t = 0; t < ticks; ++t) {
    clock_.Advance(1);
    for (const int core : busy_cores_) {
      const double fraction = busy_fraction_[static_cast<size_t>(core)];
      if (fraction <= 0.0) continue;
      counters_.core_busy_cycles[static_cast<size_t>(core)] +=
          static_cast<int64_t>(fraction *
                               static_cast<double>(cycles_per_tick_));
    }
    const simcore::Tick now = clock_.now();
    for (const auto& hook : hooks_) hook(now);
  }
}

}  // namespace elastic::platform
