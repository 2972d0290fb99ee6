#ifndef ELASTICORE_EXEC_HTAP_EXPERIMENT_H_
#define ELASTICORE_EXEC_HTAP_EXPERIMENT_H_

#include <memory>

#include "core/arbiter.h"
#include "exec/base_catalog.h"
#include "exec/client_driver.h"
#include "exec/dbms_engine.h"
#include "oltp/oltp_client.h"
#include "oltp/txn_engine.h"
#include "platform/sim_platform.h"

namespace elastic::exec {

/// The OLTP tenant of an HTAP experiment: a partition-latched transaction
/// engine driven by an open-loop client, with an optional p99 SLO the
/// slo_aware arbitration policy protects. It runs the dense mode under the
/// tenant name "oltp".
struct HtapOltpTenant {
  core::MechanismConfig mechanism;
  /// Target p99 in simulated seconds; < 0 = best-effort (no SLO).
  double slo_p99_s = -1.0;
  /// Window over which the arbiter's tail-latency probe computes the
  /// recent p99.
  int64_t probe_window_ticks = 2000;

  /// Admission gate in front of the transaction engine (default: admit
  /// everything). Under kAdaptive with an SLO configured, target_tail_s and
  /// probe_window_ticks are synced to slo_p99_s / probe_window_ticks above,
  /// so the admission controller and the arbiter defend the same budget
  /// from the same signal.
  oltp::AdmissionConfig admission;

  oltp::TxnEngineOptions engine;
  oltp::OltpWorkload workload;
};

/// The OLAP tenant: the familiar TPC-H engine (OS-scheduled workers) +
/// closed-loop client driver, under the adaptive mode and the tenant name
/// "olap".
struct HtapOlapTenant {
  core::MechanismConfig mechanism;
  ClientWorkload workload;
  int num_clients = 1;
};

struct HtapOptions {
  uint64_t seed = 42;

  core::ArbitrationPolicy policy = core::ArbitrationPolicy::kSloAware;
  /// OS-style static split: each tenant keeps a fixed cpuset of its
  /// initial_cores (OLTP) / the remaining cores (OLAP) for the whole run —
  /// no arbiter, no rebalancing. Overrides `policy`.
  bool static_split = false;
  int monitor_period_ticks = 20;
  BasePlacement placement = BasePlacement::kTableAffine;
};

/// One OLTP tenant and one OLAP tenant sharing a machine — the HTAP
/// co-location scenario. Under arbitration both tenants' mechanisms run
/// against the shared CoreArbiter (the OLTP tenant additionally feeding its
/// recent p99 into the slo_aware policy); under static_split the machine is
/// carved once and never rebalanced, the baseline a cgroup-pinned deployment
/// would give.
class HtapExperiment {
 public:
  HtapExperiment(const db::Database* database, const HtapOptions& options,
                 const HtapOltpTenant& oltp_spec,
                 const HtapOlapTenant& olap_spec);

  HtapExperiment(const HtapExperiment&) = delete;
  HtapExperiment& operator=(const HtapExperiment&) = delete;

  /// Installs masks/cpusets and starts both clients. Call once.
  void Start();

  /// Steps the machine until both tenants' workloads finished (bounded by
  /// max_ticks; CHECK-fails on timeout). Returns ticks executed.
  int64_t RunUntilDone(int64_t max_ticks);

  ossim::Machine& machine() { return *machine_; }
  platform::SimPlatform& platform() { return *platform_; }
  /// Null under static_split.
  core::CoreArbiter* arbiter() { return arbiter_.get(); }
  oltp::TxnEngine& oltp_engine() { return *oltp_engine_; }
  oltp::OltpClient& oltp_client() { return *oltp_client_; }
  DbmsEngine& olap_engine() { return *olap_engine_; }
  ClientDriver& olap_driver() { return *olap_driver_; }

  /// Tick at which the OLAP (resp. OLTP) workload finished; -1 until then.
  /// Throughput comparisons across policies must divide by the tenant's own
  /// finish time, not the joint run length.
  simcore::Tick olap_finished_tick() const { return olap_finished_; }
  simcore::Tick oltp_finished_tick() const { return oltp_finished_; }

  /// Cores currently assigned to each tenant.
  int oltp_cores() const;
  int olap_cores() const;

  const HtapOptions& options() const { return options_; }

 private:
  HtapOptions options_;
  HtapOltpTenant oltp_spec_;
  HtapOlapTenant olap_spec_;

  std::unique_ptr<ossim::Machine> machine_;
  std::unique_ptr<platform::SimPlatform> platform_;
  std::unique_ptr<BaseCatalog> catalog_;
  std::unique_ptr<core::CoreArbiter> arbiter_;

  /// Static-split cpusets (unused under arbitration).
  platform::CpusetId static_oltp_cpuset_ = platform::kNoCpuset;
  platform::CpusetId static_olap_cpuset_ = platform::kNoCpuset;
  int oltp_arbiter_index_ = -1;
  int olap_arbiter_index_ = -1;

  std::unique_ptr<oltp::TxnEngine> oltp_engine_;
  std::unique_ptr<oltp::OltpClient> oltp_client_;
  std::unique_ptr<DbmsEngine> olap_engine_;
  std::unique_ptr<ClientDriver> olap_driver_;

  simcore::Tick olap_finished_ = -1;
  simcore::Tick oltp_finished_ = -1;
  bool started_ = false;
};

}  // namespace elastic::exec

#endif  // ELASTICORE_EXEC_HTAP_EXPERIMENT_H_
