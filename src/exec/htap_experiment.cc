#include "exec/htap_experiment.h"

#include <algorithm>

#include "exec/tenant_builder.h"
#include "simcore/check.h"

namespace elastic::exec {
namespace {

constexpr char kOltpName[] = "oltp";
constexpr char kOlapName[] = "olap";
/// OLTP wants its few cores clustered on one socket (latch and log
/// locality), hence the dense mode.
constexpr char kOltpMode[] = "dense";
constexpr char kOlapMode[] = "adaptive";

}  // namespace

HtapExperiment::HtapExperiment(const db::Database* database,
                               const HtapOptions& options,
                               const HtapOltpTenant& oltp_spec,
                               const HtapOlapTenant& olap_spec)
    : options_(options), oltp_spec_(oltp_spec), olap_spec_(olap_spec) {
  ossim::MachineOptions machine_options;
  machine_options.seed = options.seed;
  machine_ = std::make_unique<ossim::Machine>(machine_options);
  platform_ = std::make_unique<platform::SimPlatform>(machine_.get());

  catalog_ = std::make_unique<BaseCatalog>(
      &machine_->page_table(), *database, options.placement,
      machine_->topology().config().page_bytes);

  platform::CpusetId oltp_cpuset;
  platform::CpusetId olap_cpuset;
  if (options_.static_split) {
    // OS-style fixed partitioning: OLTP takes its initial_cores clustered
    // from core 0 upwards (dense on the first socket(s)), OLAP the rest.
    const int total = machine_->topology().total_cores();
    const int oltp_n = oltp_spec_.mechanism.initial_cores;
    ELASTIC_CHECK(oltp_n >= 1 && oltp_n < total,
                  "static split needs 1 <= oltp initial_cores < machine");
    const platform::CpuMask oltp_mask = platform::CpuMask::FirstN(oltp_n);
    const platform::CpuMask olap_mask =
        platform::CpuMask::AllOf(machine_->topology()).Difference(oltp_mask);
    static_oltp_cpuset_ = platform_->CreateCpuset(kOltpName, oltp_mask);
    static_olap_cpuset_ = platform_->CreateCpuset(kOlapName, olap_mask);
    oltp_cpuset = static_oltp_cpuset_;
    olap_cpuset = static_olap_cpuset_;
  } else {
    core::ArbiterConfig arbiter_config;
    arbiter_config.policy = options_.policy;
    arbiter_config.monitor_period_ticks = options_.monitor_period_ticks;
    arbiter_ =
        std::make_unique<core::CoreArbiter>(platform_.get(), arbiter_config);

    // Both tenants keep TenantBuilder's weight of 1.0.
    TenantBuilder oltp_builder = TenantBuilder(kOltpName)
                                     .mechanism(oltp_spec_.mechanism)
                                     .mode(kOltpMode)
                                     .slo(oltp_spec_.slo_p99_s);
    if (oltp_spec_.slo_p99_s >= 0.0) {
      // The tail signal is the client's max(windowed p99, oldest in-flight
      // age); shed-rate telemetry additionally closes the overload-control
      // loop when an admission gate is configured (see TenantBuilder).
      oltp_builder.telemetry(
          [this]() { return oltp_client_.get(); },
          oltp_spec_.probe_window_ticks,
          /*report_shed_rate=*/oltp_spec_.admission.policy !=
              oltp::AdmissionPolicy::kNone);
    }
    oltp_arbiter_index_ = arbiter_->AddTenant(oltp_builder.Build());

    olap_arbiter_index_ = arbiter_->AddTenant(TenantBuilder(kOlapName)
                                                  .mechanism(olap_spec_.mechanism)
                                                  .mode(kOlapMode)
                                                  .Build());

    oltp_cpuset = arbiter_->tenant_cpuset(oltp_arbiter_index_);
    olap_cpuset = arbiter_->tenant_cpuset(olap_arbiter_index_);
  }

  oltp::TxnEngineOptions oltp_options = oltp_spec_.engine;
  oltp_options.cpuset = oltp_cpuset;
  oltp_engine_ = std::make_unique<oltp::TxnEngine>(
      machine_.get(), catalog_.get(), oltp_options);

  EngineOptions olap_options;
  olap_options.cpuset = olap_cpuset;
  olap_engine_ = std::make_unique<DbmsEngine>(machine_.get(), catalog_.get(),
                                              olap_options);
}

void HtapExperiment::Start() {
  ELASTIC_CHECK(!started_, "HTAP experiment started twice");
  started_ = true;
  if (arbiter_) arbiter_->Install();

  // One budget, one signal: an adaptive admission gate under an SLO tenant
  // defends the tenant's SLO through the same probe window the arbiter
  // watches (see HtapOltpTenant::admission).
  oltp::AdmissionConfig admission = oltp_spec_.admission;
  if (admission.policy == oltp::AdmissionPolicy::kAdaptive &&
      oltp_spec_.slo_p99_s >= 0.0) {
    admission.target_tail_s = oltp_spec_.slo_p99_s;
    admission.probe_window_ticks = oltp_spec_.probe_window_ticks;
  }
  oltp_client_ = std::make_unique<oltp::OltpClient>(
      machine_.get(), oltp_engine_.get(), oltp_spec_.workload,
      options_.seed ^ 0x0117, admission);
  olap_driver_ = std::make_unique<ClientDriver>(
      machine_.get(), olap_engine_.get(), olap_spec_.workload,
      olap_spec_.num_clients, options_.seed ^ 0x01A9);
  oltp_client_->Start();
  olap_driver_->Start();
}

int64_t HtapExperiment::RunUntilDone(int64_t max_ticks) {
  ELASTIC_CHECK(started_, "RunUntilDone before Start");
  int64_t ticks = 0;
  while (ticks < max_ticks) {
    const bool oltp_done = oltp_client_->AllDone();
    const bool olap_done = olap_driver_->AllDone();
    if (oltp_done && oltp_finished_ < 0) {
      oltp_finished_ = machine_->clock().now();
    }
    if (olap_done && olap_finished_ < 0) {
      olap_finished_ = machine_->clock().now();
    }
    if (oltp_done && olap_done) return ticks;
    machine_->Step();
    ticks++;
  }
  ELASTIC_CHECK(oltp_client_->AllDone() && olap_driver_->AllDone(),
                "HTAP workloads did not finish within max_ticks");
  return ticks;
}

int HtapExperiment::oltp_cores() const {
  if (arbiter_) return arbiter_->nalloc(oltp_arbiter_index_);
  return platform_->cpuset_mask(static_oltp_cpuset_).Count();
}

int HtapExperiment::olap_cores() const {
  if (arbiter_) return arbiter_->nalloc(olap_arbiter_index_);
  return platform_->cpuset_mask(static_olap_cpuset_).Count();
}

}  // namespace elastic::exec
