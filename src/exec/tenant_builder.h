#ifndef ELASTICORE_EXEC_TENANT_BUILDER_H_
#define ELASTICORE_EXEC_TENANT_BUILDER_H_

#include <functional>
#include <string>
#include <vector>

#include "core/arbiter.h"
#include "core/telemetry.h"
#include "oltp/oltp_client.h"
#include "oltp/txn_engine.h"

namespace elastic::exec {

/// Fluent construction of an arbiter tenant — the one seam through which
/// every experiment (TPC-H tenants, HTAP, contention sweep) and the
/// production daemon wire a tenant into the CoreArbiter, so the
/// constructors cannot drift apart.
///
///   int index = arbiter->AddTenant(
///       TenantBuilder("oltp")
///           .mechanism(spec.mechanism)
///           .mode("dense")
///           .weight(2.0)
///           .slo(0.060)
///           .telemetry([this]() { return oltp_client_.get(); }, window)
///           .Build());
///
/// The telemetry overloads compose: each call appends its signals to the
/// tenant's single pull-based core::TelemetrySource and widens the
/// advertised capability mask, so a tenant can report tail + shed (OLTP
/// client) and abort + goodput (transaction engine) through one snapshot.
/// Engine resolvers are invoked at probe time, not build time — the engine
/// is usually constructed after AddTenant, since it needs the tenant's
/// cpuset — and a null engine reads as "no signal yet".
class TenantBuilder {
 public:
  explicit TenantBuilder(std::string name);

  TenantBuilder& mechanism(const core::MechanismConfig& mechanism);
  /// Allocation mode, "sparse" | "dense" | "adaptive" (see
  /// core::MakeMode): where the tenant's grows land and which core a shrink
  /// releases.
  TenantBuilder& mode(std::string mode);
  TenantBuilder& weight(double weight);
  /// Target p99 in simulated seconds the slo_aware policy defends.
  TenantBuilder& slo(double p99_s);

  /// Tail-latency (and, when `report_shed_rate`, shed-rate) telemetry from
  /// an OLTP client, windowed over `probe_window_ticks`. The tail signal is
  /// the client's max(windowed p99, oldest in-flight age); shed rate closes
  /// the overload-control loop (a shedding tenant has demand its
  /// admitted-only latency cannot show).
  TenantBuilder& telemetry(std::function<oltp::OltpClient*()> client,
                           int64_t probe_window_ticks,
                           bool report_shed_rate = false);

  /// Contention telemetry (windowed abort fraction + commit rate) from a
  /// transaction engine — the pair the contention_aware policy reads. A
  /// window with no finished attempt reads as no-signal (-1) rather than 0,
  /// which the policy could mistake for "contention cleared".
  TenantBuilder& telemetry(std::function<oltp::TxnEngine*()> engine,
                           int64_t probe_window_ticks);

  /// Memory telemetry (remote-access fraction + per-node residency) from a
  /// transaction engine — the kMemory signal the island-affinity term in
  /// the arbiter's core handout consumes.
  TenantBuilder& memory_telemetry(std::function<oltp::TxnEngine*()> engine);

  core::ArbiterTenantConfig Build() const;

 private:
  using Filler =
      std::function<void(simcore::Tick, core::TelemetrySnapshot*)>;

  std::string name_;
  core::MechanismConfig mechanism_;
  std::string mode_ = "adaptive";
  double weight_ = 1.0;
  double slo_p99_s_ = -1.0;

  uint32_t caps_ = 0;
  std::vector<Filler> fillers_;
};

}  // namespace elastic::exec

#endif  // ELASTICORE_EXEC_TENANT_BUILDER_H_
