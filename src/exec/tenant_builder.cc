#include "exec/tenant_builder.h"

#include <utility>

namespace elastic::exec {

TenantBuilder::TenantBuilder(std::string name) : name_(std::move(name)) {}

TenantBuilder& TenantBuilder::mechanism(
    const core::MechanismConfig& mechanism) {
  mechanism_ = mechanism;
  return *this;
}

TenantBuilder& TenantBuilder::mode(std::string mode) {
  mode_ = std::move(mode);
  return *this;
}

TenantBuilder& TenantBuilder::weight(double weight) {
  weight_ = weight;
  return *this;
}

TenantBuilder& TenantBuilder::slo(double p99_s) {
  slo_p99_s_ = p99_s;
  return *this;
}

TenantBuilder& TenantBuilder::telemetry(
    std::function<oltp::OltpClient*()> client, int64_t probe_window_ticks,
    bool report_shed_rate) {
  caps_ |= core::TelemetrySnapshot::kTail;
  fillers_.push_back([client, probe_window_ticks](
                         simcore::Tick now, core::TelemetrySnapshot* snap) {
    const oltp::OltpClient* c = client();
    snap->p99_s =
        c == nullptr ? -1.0 : c->TailSignalSeconds(now, probe_window_ticks);
    snap->valid_mask |= core::TelemetrySnapshot::kTail;
  });
  if (report_shed_rate) {
    caps_ |= core::TelemetrySnapshot::kShed;
    fillers_.push_back([client, probe_window_ticks](
                           simcore::Tick now, core::TelemetrySnapshot* snap) {
      const oltp::OltpClient* c = client();
      snap->shed_rate =
          c == nullptr ? 0.0 : c->RecentShedRate(now, probe_window_ticks);
      snap->valid_mask |= core::TelemetrySnapshot::kShed;
    });
  }
  return *this;
}

TenantBuilder& TenantBuilder::telemetry(
    std::function<oltp::TxnEngine*()> engine, int64_t probe_window_ticks) {
  caps_ |= core::TelemetrySnapshot::kAbort | core::TelemetrySnapshot::kGoodput;
  fillers_.push_back([engine, probe_window_ticks](
                         simcore::Tick now, core::TelemetrySnapshot* snap) {
    const oltp::TxnEngine* e = engine();
    if (e == nullptr || e->RecentAttempts(now, probe_window_ticks) == 0) {
      snap->abort_fraction = -1.0;
    } else {
      snap->abort_fraction = e->RecentAbortFraction(now, probe_window_ticks);
    }
    snap->valid_mask |= core::TelemetrySnapshot::kAbort;
    snap->goodput =
        e == nullptr ? 0.0 : e->RecentCommitRate(now, probe_window_ticks);
    snap->valid_mask |= core::TelemetrySnapshot::kGoodput;
  });
  return *this;
}

TenantBuilder& TenantBuilder::memory_telemetry(
    std::function<oltp::TxnEngine*()> engine) {
  caps_ |= core::TelemetrySnapshot::kMemory;
  fillers_.push_back(
      [engine](simcore::Tick, core::TelemetrySnapshot* snap) {
        oltp::TxnEngine* e = engine();
        if (e == nullptr) {
          snap->remote_access_fraction = -1.0;
        } else {
          snap->remote_access_fraction = e->RemotePageFraction();
          snap->resident_pages_per_node = e->ResidentPagesPerNode();
        }
        snap->valid_mask |= core::TelemetrySnapshot::kMemory;
      });
  return *this;
}

core::ArbiterTenantConfig TenantBuilder::Build() const {
  core::ArbiterTenantConfig config;
  config.name = name_;
  config.mechanism = mechanism_;
  config.mode = mode_;
  config.weight = weight_;
  config.slo_p99_s = slo_p99_s_;
  config.telemetry_caps = caps_;
  if (!fillers_.empty()) {
    const std::vector<Filler> fillers = fillers_;
    config.telemetry = [fillers](simcore::Tick now) {
      core::TelemetrySnapshot snap;
      for (const Filler& fill : fillers) fill(now, &snap);
      return snap;
    };
  }
  return config;
}

}  // namespace elastic::exec
