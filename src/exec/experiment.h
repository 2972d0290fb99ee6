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

/// One tenant of an experiment: an independent DBMS instance (own engine,
/// worker pool and client population). `mode` selects how its cores are
/// managed:
///   "os"       — the paper's baseline: the engine runs on every core and
///                the OS schedules it; no mechanism, no arbiter slot. An
///                "os" tenant must be the experiment's only tenant.
///   "dense" | "sparse" | "adaptive" — the elastic mechanism with that
///                allocation mode, as a tenant of the experiment's
///                CoreArbiter whose cpuset confines the engine.
/// The paper's four configurations are one-tenant experiments of each mode.
struct TenantSpec {
  std::string name = "tenant";
  /// Per-tenant elastic mechanism (strategy, thresholds, initial/max cores)
  /// and arbitration weight — see core::ArbiterTenantConfig.
  core::MechanismConfig mechanism;
  std::string mode = "adaptive";
  double weight = 1.0;

  ThreadModel engine_model = ThreadModel::kOsScheduled;

  /// The tenant's own TPC-H schedule: typically the Fig. 18 stable-phases
  /// generator (WorkloadMode::kPhases) or the Fig. 19 mixed generator
  /// (WorkloadMode::kRandomMix).
  ClientWorkload workload;
  int num_clients = 1;
};

struct ExperimentOptions {
  ossim::SchedulerConfig scheduler;
  uint64_t seed = 42;

  core::ArbitrationPolicy policy = core::ArbitrationPolicy::kFairShare;
  int monitor_period_ticks = 20;
  BasePlacement placement = BasePlacement::kChunkedRoundRobin;

  /// Optional fault schedule: when set, the arbiter (and every tenant
  /// mechanism) talks to the sim machine through a FaultInjectionPlatform
  /// replaying this schedule. Not owned; must outlive the experiment. Null =
  /// no injection, the arbiter uses the SimPlatform directly.
  const platform::FaultSchedule* fault_schedule = nullptr;
};

/// TPC-H tenants on one simulated machine: the paper's single-DBMS setting
/// as one tenant, and N tenants contending under a CoreArbiter — the
/// multi-tenant deployment regime of "OLTP on Hardware Islands" applied to
/// the paper's mechanism. Every tenant shares the base catalog (read-only
/// TPC-H data) but owns its engine, worker pool, client driver and, unless
/// it runs under "os", its elastic mechanism.
class Experiment {
 public:
  Experiment(const db::Database* database, const ExperimentOptions& options);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Registers a tenant (engine, and for an elastic mode its cpuset and
  /// arbiter slot). Call before Start(); returns the tenant index.
  int AddTenant(const TenantSpec& spec);

  /// Installs the arbiter (initial disjoint masks) when it holds a tenant,
  /// then starts every tenant's client driver in tenant order. Drivers
  /// submit at once, so counter baselines are taken before this. Call once.
  void Start();

  /// Steps the machine until every tenant's driver finished (bounded by
  /// max_ticks; CHECK-fails on timeout). Returns ticks executed.
  int64_t RunUntilDone(int64_t max_ticks);

  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  ossim::Machine& machine() { return *machine_; }
  BaseCatalog& catalog() { return *catalog_; }
  /// Holds no tenant when the one tenant runs under "os".
  core::CoreArbiter& arbiter() { return *arbiter_; }
  /// Null unless options.fault_schedule was set.
  platform::FaultInjectionPlatform* fault_platform() {
    return fault_platform_.get();
  }
  DbmsEngine& engine(int tenant) { return *tenants_[static_cast<size_t>(tenant)].engine; }
  ClientDriver& driver(int tenant) { return *tenants_[static_cast<size_t>(tenant)].driver; }
  const std::string& tenant_name(int tenant) const {
    return tenants_[static_cast<size_t>(tenant)].spec.name;
  }

 private:
  struct Tenant {
    TenantSpec spec;
    std::unique_ptr<DbmsEngine> engine;
    std::unique_ptr<ClientDriver> driver;
  };

  ExperimentOptions options_;
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
