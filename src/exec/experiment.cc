#include "exec/experiment.h"

#include "exec/tenant_builder.h"
#include "simcore/check.h"

namespace elastic::exec {

Experiment::Experiment(const db::Database* database,
                       const ExperimentOptions& options)
    : options_(options) {
  ossim::MachineOptions machine_options;
  machine_options.scheduler = options.scheduler;
  machine_options.seed = options.seed;
  machine_ = std::make_unique<ossim::Machine>(machine_options);
  platform_ = std::make_unique<platform::SimPlatform>(machine_.get());

  catalog_ = std::make_unique<BaseCatalog>(
      &machine_->page_table(), *database, options.placement,
      machine_->topology().config().page_bytes);

  platform::Platform* arbiter_platform = platform_.get();
  if (options.fault_schedule != nullptr) {
    fault_platform_ = std::make_unique<platform::FaultInjectionPlatform>(
        platform_.get(), *options.fault_schedule);
    arbiter_platform = fault_platform_.get();
  }

  core::ArbiterConfig arbiter_config;
  arbiter_config.policy = options.policy;
  arbiter_config.monitor_period_ticks = options.monitor_period_ticks;
  arbiter_ =
      std::make_unique<core::CoreArbiter>(arbiter_platform, arbiter_config);
}

int Experiment::AddTenant(const TenantSpec& spec) {
  ELASTIC_CHECK(!started_, "AddTenant after Start");
  // The OS baseline hands the engine every core, so it shares the machine
  // with no other tenant.
  const bool os = spec.mode == "os";
  ELASTIC_CHECK(
      tenants_.empty() || (!os && arbiter_->num_tenants() == num_tenants()),
      "an \"os\" tenant must be the experiment's only tenant");

  EngineOptions engine_options;
  engine_options.model = spec.engine_model;
  if (!os) {
    // The engine's workers are spawned into the tenant's cpuset, so the
    // arbiter slot comes first.
    engine_options.cpuset = arbiter_->tenant_cpuset(
        arbiter_->AddTenant(TenantBuilder(spec.name)
                                .mechanism(spec.mechanism)
                                .mode(spec.mode)
                                .weight(spec.weight)
                                .Build()));
  }

  Tenant tenant;
  tenant.spec = spec;
  tenant.engine = std::make_unique<DbmsEngine>(machine_.get(), catalog_.get(),
                                               engine_options);
  tenants_.push_back(std::move(tenant));
  return num_tenants() - 1;
}

void Experiment::Start() {
  ELASTIC_CHECK(!started_, "experiment started twice");
  ELASTIC_CHECK(!tenants_.empty(), "no tenants registered");
  started_ = true;
  if (arbiter_->num_tenants() > 0) arbiter_->Install();
  // Per-tenant driver seeds are decorrelated so tenants do not submit in
  // lockstep even with identical workloads.
  uint64_t index = 0;
  for (Tenant& tenant : tenants_) {
    tenant.driver = std::make_unique<ClientDriver>(
        machine_.get(), tenant.engine.get(), tenant.spec.workload,
        tenant.spec.num_clients, options_.seed ^ (0x9E37 + 0x85EB * index));
    tenant.driver->Start();
    index++;
  }
}

int64_t Experiment::RunUntilDone(int64_t max_ticks) {
  ELASTIC_CHECK(started_, "RunUntilDone before Start");
  int64_t ticks = 0;
  auto all_done = [this]() {
    for (const Tenant& tenant : tenants_) {
      if (!tenant.driver->AllDone()) return false;
    }
    return true;
  };
  while (!all_done() && ticks < max_ticks) {
    machine_->Step();
    ticks++;
  }
  ELASTIC_CHECK(all_done(), "tenant workloads did not finish within max_ticks");
  return ticks;
}

}  // namespace elastic::exec
