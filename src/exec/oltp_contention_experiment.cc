#include "exec/oltp_contention_experiment.h"

#include <algorithm>
#include <cstdio>

#include "exec/tenant_builder.h"
#include "oltp/cc/workload.h"
#include "simcore/check.h"

namespace elastic::exec {

OltpContentionExperiment::OltpContentionExperiment(
    const OltpContentionOptions& options)
    : options_(options) {
  ELASTIC_CHECK(options_.cores >= 1, "need at least one core");
  ELASTIC_CHECK(options_.cores <= 4 || options_.cores % 4 == 0,
                "above 4 cores the machine is built from 4-core nodes");

  ossim::MachineOptions machine_options;
  machine_options.config.num_nodes =
      options_.cores <= 4 ? 1 : options_.cores / 4;
  machine_options.config.cores_per_node =
      options_.cores <= 4 ? options_.cores : 4;
  machine_options.seed = options_.machine_seed;
  machine_ = std::make_unique<ossim::Machine>(machine_options);

  oltp::TxnEngineOptions engine_options;
  engine_options.pool_size = options_.pool_size;
  engine_options.cpu_cycles_per_page = options_.cpu_cycles_per_page;
  engine_options.cc.protocol = options_.protocol;
  engine_options.cc.record_history = options_.record_history;
  engine_options.cc.num_records =
      options_.workload == oltp::cc::WorkloadKind::kSmallBank
          ? oltp::cc::SmallBankNumRecords(options_.smallbank)
          : options_.ycsb.num_records;
  // The CC path never touches the base catalog, so a contention point runs
  // without generating a database.
  engine_ = std::make_unique<oltp::TxnEngine>(machine_.get(),
                                              /*catalog=*/nullptr,
                                              engine_options);
  if (options_.workload == oltp::cc::WorkloadKind::kSmallBank) {
    engine_->cc_table().FillValues(options_.smallbank.initial_balance);
  }
}

void OltpContentionExperiment::Submit(const oltp::TxnRequest& request,
                                      const oltp::cc::CcTxn& cc,
                                      int attempts) {
  engine_->Submit(request, cc, [this, request, cc, attempts](bool committed) {
    if (committed) {
      committed_++;
      return;
    }
    // Deterministic backoff: scale with the attempt count and stagger by
    // transaction id so two transactions that aborted on each other cannot
    // re-collide forever. The first retry waits one backoff step.
    const int64_t backoff =
        std::max<int64_t>(1, options_.retry_backoff_ticks);
    Retry retry;
    retry.due = machine_->clock().now() +
                backoff * std::min<int64_t>(attempts + 1, 8) +
                request.id % backoff;
    retry.request = request;
    retry.cc = cc;
    retry.attempts = attempts + 1;
    retry_queue_.push_back(std::move(retry));
  });
}

void OltpContentionExperiment::PumpRetries(simcore::Tick now) {
  for (size_t i = 0; i < retry_queue_.size();) {
    if (retry_queue_[i].due > now) {
      ++i;
      continue;
    }
    const Retry retry = std::move(retry_queue_[i]);
    retry_queue_.erase(retry_queue_.begin() +
                       static_cast<std::ptrdiff_t>(i));
    retries_++;
    Submit(retry.request, retry.cc, retry.attempts);
  }
}

OltpContentionResult OltpContentionExperiment::Run(int64_t max_ticks) {
  machine_->AddTickHook([this](simcore::Tick now) { PumpRetries(now); });

  oltp::cc::YcsbGenerator ycsb(options_.ycsb, options_.seed);
  oltp::cc::SmallBankGenerator smallbank(options_.smallbank, options_.seed);
  for (int64_t i = 0; i < options_.total_txns; ++i) {
    oltp::TxnRequest request;
    request.id = i;
    const oltp::cc::CcTxn txn =
        options_.workload == oltp::cc::WorkloadKind::kSmallBank
            ? smallbank.Next()
            : ycsb.Next();
    Submit(request, txn, /*attempts=*/0);
  }

  int64_t ticks = 0;
  while (committed_ < options_.total_txns && ticks < max_ticks) {
    machine_->Step();
    ticks++;
  }
  ELASTIC_CHECK(committed_ == options_.total_txns,
                "contention run did not finish within max_ticks");

  OltpContentionResult result;
  result.commits = engine_->cc_commits();
  result.aborts = engine_->cc_aborts();
  result.lock_conflicts = engine_->cc_lock_conflicts();
  result.validation_failures = engine_->cc_validation_failures();
  result.retries = retries_;
  result.finish_tick = machine_->clock().now();
  result.seconds = simcore::Clock::ToSeconds(result.finish_tick);
  result.goodput_tps =
      result.seconds > 0.0
          ? static_cast<double>(result.commits) / result.seconds
          : 0.0;
  const double attempts =
      static_cast<double>(result.commits + result.aborts);
  result.abort_fraction =
      attempts > 0.0 ? static_cast<double>(result.aborts) / attempts : 0.0;
  return result;
}

std::string OltpContentionJsonFragment(const OltpContentionOptions& options,
                                       const OltpContentionResult& result) {
  const double theta = options.workload == oltp::cc::WorkloadKind::kSmallBank
                           ? options.smallbank.theta
                           : options.ycsb.theta;
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"protocol\": \"%s\", \"workload\": \"%s\", \"theta\": %.2f, "
      "\"cores\": %d, \"commits\": %lld, \"aborts\": %lld, "
      "\"lock_conflicts\": %lld, \"validation_failures\": %lld, "
      "\"retries\": %lld, \"finish_s\": %.4f, \"goodput_tps\": %.4f, "
      "\"abort_fraction\": %.4f}",
      oltp::cc::ProtocolKindName(options.protocol),
      oltp::cc::WorkloadKindName(options.workload), theta, options.cores,
      static_cast<long long>(result.commits),
      static_cast<long long>(result.aborts),
      static_cast<long long>(result.lock_conflicts),
      static_cast<long long>(result.validation_failures),
      static_cast<long long>(result.retries), result.seconds,
      result.goodput_tps, result.abort_fraction);
  return std::string(buffer);
}

ContentionArbiterExperiment::ContentionArbiterExperiment(
    const ContentionArbiterOptions& options,
    const std::vector<ContentionTenantSpec>& specs)
    : options_(options) {
  ELASTIC_CHECK(!specs.empty(), "need at least one tenant");
  ELASTIC_CHECK(options_.cores >= 1, "need at least one core");

  ossim::MachineOptions machine_options;
  if (options_.cores_per_node > 0) {
    ELASTIC_CHECK(options_.cores % options_.cores_per_node == 0,
                  "cores must be a multiple of cores_per_node");
    machine_options.config.num_nodes =
        options_.cores / options_.cores_per_node;
    machine_options.config.cores_per_node = options_.cores_per_node;
  } else {
    ELASTIC_CHECK(options_.cores <= 4 || options_.cores % 4 == 0,
                  "above 4 cores the machine is built from 4-core nodes");
    machine_options.config.num_nodes =
        options_.cores <= 4 ? 1 : options_.cores / 4;
    machine_options.config.cores_per_node =
        options_.cores <= 4 ? options_.cores : 4;
  }
  machine_options.seed = options_.machine_seed;
  machine_ = std::make_unique<ossim::Machine>(machine_options);
  platform_ = std::make_unique<platform::SimPlatform>(machine_.get());
  arbiter_ =
      std::make_unique<core::CoreArbiter>(platform_.get(), options_.arbiter);

  tenants_.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const ContentionTenantSpec& spec = specs[i];
    TenantRt rt;
    rt.spec = spec;

    // Telemetry resolves the engine at probe time: the engine is built
    // after AddTenant below (it needs the tenant's cpuset), and the arbiter
    // only pulls these signals under the contention_aware policy.
    const int index = static_cast<int>(i);
    const auto engine_of = [this, index]() {
      return tenants_[static_cast<size_t>(index)].engine.get();
    };
    TenantBuilder builder = TenantBuilder(spec.name)
                                .mechanism(spec.mechanism)
                                .mode(spec.mode)
                                .weight(spec.weight)
                                .telemetry(engine_of, spec.probe_window_ticks);
    if (spec.memory_telemetry) builder.memory_telemetry(engine_of);
    rt.arbiter_index = arbiter_->AddTenant(builder.Build());

    oltp::TxnEngineOptions engine_options;
    engine_options.cpuset = arbiter_->tenant_cpuset(rt.arbiter_index);
    // The whole point of arbiter-managed contention: a shrink must narrow
    // the conflict set, not just time-slice the survivors.
    engine_options.concurrency_follow_cpuset = true;
    engine_options.cpu_cycles_per_page = options_.cpu_cycles_per_page;
    engine_options.cc.protocol = spec.protocol;
    engine_options.cc.num_records = spec.ycsb.num_records;
    engine_options.mem_policy = spec.mem_policy;
    engine_options.mem_island = spec.mem_island;
    rt.engine = std::make_unique<oltp::TxnEngine>(machine_.get(),
                                                  /*catalog=*/nullptr,
                                                  engine_options);
    rt.generator = std::make_unique<oltp::cc::YcsbGenerator>(
        spec.ycsb, options_.seed ^ (0x9E3779B9u * (i + 1)));
    tenants_.push_back(std::move(rt));
  }
}

ContentionArbiterExperiment::Pending ContentionArbiterExperiment::NextTxn(
    TenantRt& rt) const {
  Pending pending;
  pending.due = machine_->clock().now();
  pending.request.id = rt.next_txn_id++;
  pending.cc = rt.generator->Next();
  pending.attempts = 0;
  return pending;
}

void ContentionArbiterExperiment::SubmitOne(int tenant,
                                            const Pending& pending) {
  TenantRt& rt = tenants_[static_cast<size_t>(tenant)];
  const oltp::TxnRequest request = pending.request;
  const oltp::cc::CcTxn cc = pending.cc;
  const int attempts = pending.attempts;
  rt.engine->Submit(request, cc, [this, tenant, request, cc,
                                  attempts](bool committed) {
    TenantRt& owner = tenants_[static_cast<size_t>(tenant)];
    if (committed) {
      // Closed loop: the logical client immediately starts its next
      // transaction (picked up by the pump on the following tick).
      owner.queue.push_back(NextTxn(owner));
      return;
    }
    // The fixed-batch experiment's discipline (scale with the attempt
    // count, stagger by transaction id) one step later: the first retry
    // waits two backoff steps (attempts + 2), where OltpContentionExperiment
    // waits one. The strict BENCH_contention_policy.json and
    // BENCH_numa_islands.json pin this timing.
    const int64_t backoff = std::max<int64_t>(1, options_.retry_backoff_ticks);
    Pending retry;
    retry.due = machine_->clock().now() +
                backoff * std::min<int64_t>(attempts + 2, 8) +
                request.id % backoff;
    retry.request = request;
    retry.cc = cc;
    retry.attempts = attempts + 1;
    owner.queue.push_back(std::move(retry));
  });
}

void ContentionArbiterExperiment::Pump(simcore::Tick now) {
  for (size_t t = 0; t < tenants_.size(); ++t) {
    TenantRt& rt = tenants_[t];
    for (size_t i = 0; i < rt.queue.size();) {
      if (rt.queue[i].due > now) {
        ++i;
        continue;
      }
      const Pending pending = std::move(rt.queue[i]);
      rt.queue.erase(rt.queue.begin() + static_cast<std::ptrdiff_t>(i));
      if (pending.attempts > 0) rt.retries++;
      SubmitOne(static_cast<int>(t), pending);
    }
  }
}

void ContentionArbiterExperiment::Start() {
  ELASTIC_CHECK(!started_, "contention experiment started twice");
  started_ = true;
  arbiter_->Install();
  machine_->AddTickHook([this](simcore::Tick now) { Pump(now); });
  for (TenantRt& rt : tenants_) {
    for (int c = 0; c < rt.spec.clients; ++c) {
      rt.queue.push_back(NextTxn(rt));
    }
  }
}

void ContentionArbiterExperiment::Run(int64_t ticks) {
  ELASTIC_CHECK(started_, "Run before Start");
  for (int64_t i = 0; i < ticks; ++i) machine_->Step();
}

std::vector<ContentionTenantStats> ContentionArbiterExperiment::Stats() const {
  std::vector<ContentionTenantStats> stats;
  stats.reserve(tenants_.size());
  const double seconds =
      simcore::Clock::ToSeconds(machine_->clock().now());
  for (const TenantRt& rt : tenants_) {
    ContentionTenantStats s;
    s.commits = rt.engine->cc_commits();
    s.aborts = rt.engine->cc_aborts();
    s.retries = rt.retries;
    const double attempts = static_cast<double>(s.commits + s.aborts);
    s.abort_fraction =
        attempts > 0.0 ? static_cast<double>(s.aborts) / attempts : 0.0;
    s.goodput_tps =
        seconds > 0.0 ? static_cast<double>(s.commits) / seconds : 0.0;
    s.cores_end = arbiter_->nalloc(rt.arbiter_index);
    stats.push_back(s);
  }
  return stats;
}

double ContentionArbiterExperiment::AggregateGoodput() const {
  double sum = 0.0;
  for (const ContentionTenantStats& s : Stats()) sum += s.goodput_tps;
  return sum;
}

}  // namespace elastic::exec
