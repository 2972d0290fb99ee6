#ifndef ELASTICORE_EXEC_EXPERIMENT_H_
#define ELASTICORE_EXEC_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/arbiter.h"
#include "core/mechanism.h"
#include "db/column.h"
#include "exec/base_catalog.h"
#include "exec/client_driver.h"
#include "exec/dbms_engine.h"
#include "ossim/machine.h"
#include "platform/fault_injection_platform.h"
#include "platform/sim_platform.h"

namespace elastic::exec {

/// One experiment configuration: machine + loaded data + engine + (optional)
/// elastic mechanism. `policy` selects the paper's four configurations:
///   "os"       — baseline: all 16 cores handed to the OS, no mechanism
///   "dense"    — elastic mechanism with the dense allocation mode
///   "sparse"   — elastic mechanism with the sparse allocation mode
///   "adaptive" — elastic mechanism with the adaptive priority mode
/// The elastic configurations run one tenant under a fair_share CoreArbiter
/// — the control path elasticored deploys — whose floor is initial_cores,
/// whose cap is every core, and whose cpuset confines the engine.
struct ExperimentOptions {
  numasim::MachineConfig machine_config;
  ossim::SchedulerConfig scheduler;
  uint64_t seed = 42;

  std::string policy = "os";
  core::TransitionStrategy strategy = core::TransitionStrategy::kCpuLoad;
  int monitor_period_ticks = 20;
  int initial_cores = 1;
  /// Threshold overrides; negative keeps the strategy's paper defaults
  /// (10/70 for CPU load, 0.1/0.4 for HT/IMC).
  double thmin_override = -1.0;
  double thmax_override = -1.0;

  ThreadModel engine_model = ThreadModel::kOsScheduled;
  int pool_size = -1;
  TaskGraphOptions task_graph;
  BasePlacement placement = BasePlacement::kChunkedRoundRobin;
};

/// Owns the full simulated stack for one experiment run. Benches construct
/// one Experiment per configuration, attach a ClientDriver, and run to
/// completion.
class Experiment {
 public:
  Experiment(const db::Database* database, const ExperimentOptions& options);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  ossim::Machine& machine() { return *machine_; }
  platform::SimPlatform& platform() { return *platform_; }
  BaseCatalog& catalog() { return *catalog_; }
  DbmsEngine& engine() { return *engine_; }
  /// The tenant's mechanism; null under the "os" policy.
  core::ElasticMechanism* mechanism() {
    return arbiter_ ? &arbiter_->mechanism(0) : nullptr;
  }
  const ExperimentOptions& options() const { return options_; }

  /// Runs a client workload to completion (bounded by max_ticks); returns
  /// the driver for stats. The driver lives as long as the experiment.
  ClientDriver& RunWorkload(const ClientWorkload& workload, int num_clients,
                            int64_t max_ticks);

 private:
  ExperimentOptions options_;
  std::unique_ptr<ossim::Machine> machine_;
  std::unique_ptr<platform::SimPlatform> platform_;
  std::unique_ptr<BaseCatalog> catalog_;
  /// Null under the "os" policy.
  std::unique_ptr<core::CoreArbiter> arbiter_;
  std::unique_ptr<DbmsEngine> engine_;
  std::unique_ptr<ClientDriver> driver_;
};

/// One tenant of a multi-tenant experiment: an independent DBMS instance
/// (own engine + worker pool + client population) whose cores are managed by
/// the shared CoreArbiter.
struct TenantSpec {
  std::string name = "tenant";
  /// Per-tenant elastic mechanism (thresholds, initial/max cores),
  /// allocation mode and arbitration weight — see core::ArbiterTenantConfig.
  core::MechanismConfig mechanism;
  std::string mode = "adaptive";
  double weight = 1.0;

  ThreadModel engine_model = ThreadModel::kOsScheduled;
  int pool_size = -1;
  TaskGraphOptions task_graph;

  /// The tenant's own TPC-H schedule: typically the Fig. 18 stable-phases
  /// generator (WorkloadMode::kPhases) or the Fig. 19 mixed generator
  /// (WorkloadMode::kRandomMix).
  ClientWorkload workload;
  int num_clients = 1;
};

struct MultiTenantOptions {
  numasim::MachineConfig machine_config;
  ossim::SchedulerConfig scheduler;
  uint64_t seed = 42;

  core::ArbitrationPolicy policy = core::ArbitrationPolicy::kFairShare;
  int monitor_period_ticks = 20;
  bool log_rounds = true;
  BasePlacement placement = BasePlacement::kChunkedRoundRobin;

  /// Optional fault schedule: when set, the arbiter (and every tenant
  /// mechanism) talks to the sim machine through a FaultInjectionPlatform
  /// replaying this schedule. Not owned; must outlive the experiment. Null =
  /// no injection, the arbiter uses the SimPlatform directly.
  const platform::FaultSchedule* fault_schedule = nullptr;
};

/// N tenant DBMS instances contending for one simulated machine under a
/// CoreArbiter — the multi-tenant deployment regime of "OLTP on Hardware
/// Islands" applied to the paper's mechanism. Every tenant shares the base
/// catalog (read-only TPC-H data) but owns its engine, worker pool, client
/// driver and elastic mechanism.
class MultiTenantExperiment {
 public:
  MultiTenantExperiment(const db::Database* database,
                        const MultiTenantOptions& options);

  MultiTenantExperiment(const MultiTenantExperiment&) = delete;
  MultiTenantExperiment& operator=(const MultiTenantExperiment&) = delete;

  /// Registers a tenant (engine + cpuset + arbiter slot). Call before
  /// Start(); returns the tenant index.
  int AddTenant(const TenantSpec& spec);

  /// Installs the arbiter (initial disjoint masks) and starts every
  /// tenant's client driver.
  void Start();

  /// Steps the machine until every tenant's driver finished (bounded by
  /// max_ticks; CHECK-fails on timeout). Returns ticks executed.
  int64_t RunUntilDone(int64_t max_ticks);

  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  ossim::Machine& machine() { return *machine_; }
  platform::SimPlatform& platform() { return *platform_; }
  /// Null unless options.fault_schedule was set.
  platform::FaultInjectionPlatform* fault_platform() {
    return fault_platform_.get();
  }
  core::CoreArbiter& arbiter() { return *arbiter_; }
  DbmsEngine& engine(int tenant) { return *tenants_[static_cast<size_t>(tenant)].engine; }
  ClientDriver& driver(int tenant) { return *tenants_[static_cast<size_t>(tenant)].driver; }
  const std::string& tenant_name(int tenant) const {
    return tenants_[static_cast<size_t>(tenant)].spec.name;
  }
  const MultiTenantOptions& options() const { return options_; }

 private:
  struct Tenant {
    TenantSpec spec;
    int arbiter_index = -1;
    std::unique_ptr<DbmsEngine> engine;
    std::unique_ptr<ClientDriver> driver;
  };

  MultiTenantOptions options_;
  std::unique_ptr<ossim::Machine> machine_;
  std::unique_ptr<platform::SimPlatform> platform_;
  std::unique_ptr<platform::FaultInjectionPlatform> fault_platform_;
  std::unique_ptr<BaseCatalog> catalog_;
  std::unique_ptr<core::CoreArbiter> arbiter_;
  std::vector<Tenant> tenants_;
  bool started_ = false;
};

}  // namespace elastic::exec

#endif  // ELASTICORE_EXEC_EXPERIMENT_H_
