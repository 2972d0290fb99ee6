// The six workloads. Sizes are chosen so one pass takes half a second to
// three seconds on a 4-core host, and a 20-second run holds six or more
// passes; why each workload exists is in README.md.

#include "scenarios.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "core/arbiter.h"
#include "db/queries.h"
#include "exec/htap_experiment.h"
#include "exec/oltp_contention_experiment.h"
#include "exec/tenant_builder.h"
#include "oltp/cc/protocol.h"
#include "oltp/cc/workload.h"
#include "platform/synthetic_platform.h"
#include "simcore/rng.h"
#include "tpch/dbgen.h"

namespace elasticore_bench {
namespace {

using namespace elastic;

constexpr double kScaleFactor = 0.15;

void Put(PassResult& result, const std::string& name, double value,
         const char* unit) {
  result.values.push_back(NamedValue{name, value, unit});
}

/// Simulator counters of one pass: the difference of two snapshots of the
/// machine's counter registry.
struct MachineCounters {
  int64_t page_accesses = 0;
  int64_t l3_hits = 0;
  int64_t l3_misses = 0;
  int64_t remote_in_bytes = 0;
  int64_t ht_bytes = 0;
  int64_t thread_migrations = 0;
  int64_t stolen_tasks = 0;
  int64_t busy_cycles = 0;

  static MachineCounters Of(const ossim::Machine& machine) {
    const perf::CounterSet& c = machine.counters();
    MachineCounters m;
    for (const int64_t v : c.node_access_pages) m.page_accesses += v;
    for (const int64_t v : c.remote_in_bytes) m.remote_in_bytes += v;
    m.l3_hits = c.total_l3_hits();
    m.l3_misses = c.total_l3_misses();
    m.ht_bytes = c.ht_bytes_total;
    m.thread_migrations = c.thread_migrations;
    m.stolen_tasks = c.stolen_tasks;
    m.busy_cycles = c.total_busy_cycles();
    return m;
  }
};

void PutMachineCounters(PassResult& result, const MachineCounters& start,
                        const MachineCounters& end, int64_t ticks,
                        int cores, int64_t cycles_per_tick) {
  const double hits = static_cast<double>(end.l3_hits - start.l3_hits);
  const double misses = static_cast<double>(end.l3_misses - start.l3_misses);
  Put(result, "ossim.ticks", static_cast<double>(ticks), "count");
  Put(result, "ossim.thread_migrations",
      static_cast<double>(end.thread_migrations - start.thread_migrations),
      "count");
  Put(result, "ossim.stolen_tasks",
      static_cast<double>(end.stolen_tasks - start.stolen_tasks), "count");
  Put(result, "ossim.busy_frac",
      static_cast<double>(end.busy_cycles - start.busy_cycles) /
          (static_cast<double>(ticks) * cores *
           static_cast<double>(cycles_per_tick)),
      "fraction");
  Put(result, "numasim.page_accesses",
      static_cast<double>(end.page_accesses - start.page_accesses), "count");
  Put(result, "numasim.l3_miss_ratio",
      hits + misses > 0 ? misses / (hits + misses) : 0.0, "fraction");
  Put(result, "numasim.remote_in_bytes",
      static_cast<double>(end.remote_in_bytes - start.remote_in_bytes),
      "bytes");
  Put(result, "numasim.ht_bytes",
      static_cast<double>(end.ht_bytes - start.ht_bytes), "bytes");
}

/// Times the tick loop of a simulated machine from outside, through a tick
/// hook registered first (BeginHooks) and one registered last (EndHooks).
/// Machine::Step runs the hooks before the scheduler quantum, so a tick
/// lasts from one first-hook call to the next (or to End() for the last
/// tick of a pass), and the quantum from the last hook to the next tick.
///
/// One operation of a simulated workload is `ticks_per_op` ticks, chosen per
/// workload so that operations are alike: either each holds exactly one
/// arbitration round, or rounds cost little next to the ticks around them.
/// Single ticks would not do: the 1% of ticks that carry a round would sit
/// right at the p99.
class TickTimer {
 public:
  explicit TickTimer(int ticks_per_op) : ticks_per_op_(ticks_per_op) {}

  /// Starts timing a pass: operations go to `ops`, spans to `spans` when
  /// non-null. Ticks outside Begin()..End() (set-up) are not timed.
  void Begin(LogHistogram* ops, SpanLog* spans) {
    ops_ = ops;
    spans_ = spans;
    tick_start_ = -1;
    op_ns_ = 0;
    op_ticks_ = 0;
  }
  /// Ends the pass's last tick and stops timing.
  void End() {
    if (ops_ != nullptr && tick_start_ >= 0) EndTick(NowNs());
    ops_ = nullptr;
    spans_ = nullptr;
  }
  SpanLog* spans() const { return spans_; }

  /// First hook of a tick: ends the previous tick and starts this one.
  void BeginHooks() {
    if (ops_ == nullptr) return;
    const int64_t now = NowNs();
    if (tick_start_ >= 0) EndTick(now);
    tick_start_ = now;
  }
  /// Last hook of the tick; `round` marks a tick carrying an arbiter round.
  void EndHooks(bool round) {
    if (spans_ == nullptr) return;
    hooks_end_ = NowNs();
    spans_->Add(round ? "exec.hooks_round" : "exec.hooks", "ossim.step",
                tick_start_, hooks_end_);
  }

 private:
  void EndTick(int64_t end) {
    op_ns_ += end - tick_start_;
    if (++op_ticks_ == ticks_per_op_) {
      ops_->Add(op_ns_);
      op_ns_ = 0;
      op_ticks_ = 0;
    }
    if (spans_ != nullptr) {
      spans_->Add("ossim.step", "pass", tick_start_, end);
      spans_->Add("ossim.sched", "ossim.step", hooks_end_, end);
    }
  }

  const int ticks_per_op_;
  LogHistogram* ops_ = nullptr;
  SpanLog* spans_ = nullptr;
  int64_t tick_start_ = -1;
  int64_t hooks_end_ = 0;
  int64_t op_ns_ = 0;
  int op_ticks_ = 0;
};

// ---------------------------------------------------------------------------
// htap_burst: the htap_slo slo_aware_adaptive cell (open-loop OLTP with 3x
// bursts + 24 closed-loop TPC-H clients on the 16-core machine). Admission
// retries are uncapped in practice, so shed arrivals are delayed, not lost.

class HtapBurst : public Workload {
 public:
  explicit HtapBurst(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    plans_.clear();
    db_.reset();
    tpch::DbgenOptions options;
    options.scale_factor = kScaleFactor;
    options.seed = seed_;
    db_ = std::make_unique<db::Database>(tpch::Generate(options));
    // Three recorded query plans the OLAP clients replay.
    for (const int q : {1, 6, 14}) {
      plans_.push_back(db::RunTpchQuery(*db_, q).trace);
    }
  }
  bool SetupPerPass() const override { return false; }

  PassResult Pass(SpanLog* spans) override {
    PassResult result;
    const int64_t start = NowNs();
    exec::HtapOptions options;
    options.seed = seed_;
    options.placement = exec::BasePlacement::kTableAffine;
    options.monitor_period_ticks = kPeriod;
    options.policy = core::ArbitrationPolicy::kSloAware;
    exec::HtapExperiment experiment(db_.get(), options, OltpTenant(),
                                    OlapTenant());
    ossim::Machine& machine = experiment.machine();
    machine.AddTickHook([this](simcore::Tick) { timer_.BeginHooks(); });
    experiment.Start();
    machine.AddTickHook([this](simcore::Tick now) {
      timer_.EndHooks(now % kPeriod == 0 && now > 0);
    });
    if (spans != nullptr) spans->Add("exec.start", "pass", start, NowNs());

    const MachineCounters counters_start = MachineCounters::Of(machine);
    timer_.Begin(&result.ops, spans);
    // Aborts the run when the workload does not finish within kMaxTicks.
    const int64_t ticks = experiment.RunUntilDone(kMaxTicks);
    timer_.End();

    const oltp::OltpClient& client = experiment.oltp_client();
    const oltp::LatencyRecorder& latencies = client.latencies();
    const int64_t olap_expected = int64_t{kOlapClients} * kQueriesPerClient;
    result.attempted = kTotalTxns + olap_expected;
    // Every transaction must be accounted for (completed + dropped ==
    // offered) and none may be dropped; every query must complete.
    result.failed = client.failed() +
                    std::abs(kTotalTxns - client.completed() - client.failed()) +
                    std::abs(olap_expected - experiment.olap_driver().completed());

    const double oltp_s = simcore::Clock::ToSeconds(
        std::max<int64_t>(experiment.oltp_finished_tick(), 1));
    const double olap_s = simcore::Clock::ToSeconds(
        std::max<int64_t>(experiment.olap_finished_tick(), 1));
    Put(result, "sim_p50_ms", latencies.PercentileSeconds(0.50) * 1e3, "sim ms");
    Put(result, "sim_p99_ms", latencies.PercentileSeconds(0.99) * 1e3, "sim ms");
    Put(result, "sim_goodput_tps",
        static_cast<double>(latencies.CountWithinSeconds(kSloSeconds)) / oltp_s,
        "sim txn/s");
    Put(result, "sim_olap_qps",
        static_cast<double>(experiment.olap_driver().completed()) / olap_s,
        "sim q/s");
    Put(result, "oltp.completed", static_cast<double>(client.completed()), "count");
    Put(result, "oltp.shed_events", static_cast<double>(client.shed_events()), "count");
    Put(result, "oltp.admission_retries", static_cast<double>(client.retries()), "count");
    Put(result, "oltp.latch_waits",
        static_cast<double>(experiment.oltp_engine().latch_waits()), "count");
    const core::CoreArbiter& arbiter = *experiment.arbiter();
    Put(result, "core.rounds", static_cast<double>(arbiter.log().size()), "count");
    Put(result, "core.handoffs", static_cast<double>(arbiter.core_handoffs()), "count");
    Put(result, "core.preemptions", static_cast<double>(arbiter.preemptions()), "count");
    Put(result, "core.starved_rounds", static_cast<double>(arbiter.starved_rounds()), "count");
    PutMachineCounters(result, counters_start, MachineCounters::Of(machine), ticks,
                       machine.topology().total_cores(),
                       machine.scheduler().cycles_per_tick());
    return result;
  }

 private:
  static constexpr int kPeriod = 10;
  static constexpr int64_t kTotalTxns = 9000;
  static constexpr int kOlapClients = 24;
  static constexpr int kQueriesPerClient = 54;
  static constexpr double kSloSeconds = 0.060;
  static constexpr int64_t kMaxTicks = 5'000'000;

  static exec::HtapOltpTenant OltpTenant() {
    exec::HtapOltpTenant oltp;
    oltp.mechanism.initial_cores = 4;
    oltp.mechanism.max_cores = 8;
    oltp.slo_p99_s = kSloSeconds;
    oltp.probe_window_ticks = 400;
    oltp.engine.num_partitions = 64;
    oltp.engine.pool_size = 8;
    oltp.engine.cpu_cycles_per_page = 1'500'000;
    oltp.engine.neworder_stock_rows = 8192;
    oltp.workload.total_txns = kTotalTxns;
    oltp.workload.arrival_interval_ticks = 3;
    oltp.workload.new_order_fraction = 0.5;
    oltp.workload.burst_period_ticks = 2500;
    oltp.workload.burst_length_ticks = 800;
    oltp.workload.burst_interval_ticks = 1;
    oltp.admission.policy = oltp::AdmissionPolicy::kAdaptive;
    oltp.admission.max_in_flight = 32;
    oltp.admission.initial_window = 24;
    oltp.admission.max_retries = 1'000'000;
    return oltp;
  }

  exec::HtapOlapTenant OlapTenant() const {
    exec::HtapOlapTenant olap;
    olap.mechanism.initial_cores = 4;
    olap.workload.mode = exec::WorkloadMode::kRandomMix;
    for (const db::PlanTrace& plan : plans_) olap.workload.traces.push_back(&plan);
    olap.workload.queries_per_client = kQueriesPerClient;
    olap.workload.ramp_ticks = 600;
    olap.num_clients = kOlapClients;
    return olap;
  }

  uint64_t seed_;
  std::unique_ptr<db::Database> db_;
  std::vector<db::PlanTrace> plans_;
  /// One operation is one arbitration round.
  TickTimer timer_{kPeriod};
};

// ---------------------------------------------------------------------------
// numa_islands and contention_hot: closed-loop YCSB tenants under one
// CoreArbiter on the simulated machine, driven for a fixed horizon. The
// arbiter's own tick hook is replaced by the benchmark's, which keeps its
// condition and its place (first) in the hook order and times Poll.

struct ContentionSpec {
  exec::ContentionArbiterOptions options;
  std::vector<exec::ContentionTenantSpec> tenants;
  /// Rounds run as set-up (engines' lazy CC tables, first touches, the
  /// tenants' initial growth), then rounds timed as the pass.
  int warmup_rounds = 0;
  int pass_rounds = 0;
  /// Simulated ticks per timed operation (see TickTimer).
  int ticks_per_op = 0;
};

class ContentionSim : public Workload {
 public:
  ContentionSim(ContentionSpec spec, bool builtin_poll_hook)
      : spec_(std::move(spec)),
        builtin_poll_hook_(builtin_poll_hook),
        timer_(spec_.ticks_per_op) {}

  void Setup() override {
    experiment_.reset();
    exec::ContentionArbiterOptions options = spec_.options;
    options.arbiter.register_tick_hook = builtin_poll_hook_;
    experiment_ = std::make_unique<exec::ContentionArbiterExperiment>(
        options, spec_.tenants);
    exec::ContentionArbiterExperiment* experiment = experiment_.get();
    const int period = options.arbiter.monitor_period_ticks;
    ossim::Machine& machine = experiment->machine();
    machine.AddTickHook([this, experiment, period](simcore::Tick now) {
      timer_.BeginHooks();
      if (builtin_poll_hook_ || now % period != 0 || now == 0) return;
      SpanLog* spans = timer_.spans();
      const int64_t start = spans != nullptr ? NowNs() : 0;
      experiment->arbiter().Poll(now);
      if (spans != nullptr) spans->Add("core.poll", "exec.hooks_round", start, NowNs());
    });
    experiment->Start();
    machine.AddTickHook([this, period](simcore::Tick now) {
      timer_.EndHooks(now % period == 0 && now > 0);
    });
    experiment->Run(int64_t{spec_.warmup_rounds} * period);
  }
  bool SetupPerPass() const override { return true; }

  PassResult Pass(SpanLog* spans) override {
    PassResult result;
    exec::ContentionArbiterExperiment& experiment = *experiment_;
    ossim::Machine& machine = experiment.machine();
    core::CoreArbiter& arbiter = experiment.arbiter();
    const int period = spec_.options.arbiter.monitor_period_ticks;
    const int64_t ticks = int64_t{spec_.pass_rounds} * period;

    const MachineCounters counters_start = MachineCounters::Of(machine);
    const CcCounts cc_start = CcCountsOf(experiment);
    const int64_t handoffs = arbiter.core_handoffs();
    const int64_t preemptions = arbiter.preemptions();
    const int64_t starved = arbiter.starved_rounds();
    timer_.Begin(&result.ops, spans);
    experiment.Run(ticks);
    timer_.End();

    const CcCounts cc_end = CcCountsOf(experiment);
    const int64_t commits = cc_end.commits - cc_start.commits;
    const std::vector<exec::ContentionTenantStats> stats = experiment.Stats();
    for (size_t i = 0; i < stats.size(); ++i) {
      Put(result, "tenant" + std::to_string(i) + ".cores_end",
          stats[i].cores_end, "count");
    }
    // Invariants of the arbiter's output: disjoint, non-empty tenant masks.
    platform::CpuMask owned;
    int64_t violations = 0;
    for (int i = 0; i < arbiter.num_tenants(); ++i) {
      const platform::CpuMask& mask = arbiter.tenant_mask(i);
      if (mask.Empty() || !owned.Intersect(mask).Empty()) violations++;
      owned = owned.Union(mask);
    }
    result.attempted = commits + arbiter.num_tenants();
    result.failed = violations;

    Put(result, "sim_goodput_tps",
        static_cast<double>(commits) / simcore::Clock::ToSeconds(ticks),
        "sim txn/s");
    Put(result, "cc.attempts",
        static_cast<double>(cc_end.commits + cc_end.aborts - cc_start.commits -
                            cc_start.aborts),
        "count");
    Put(result, "cc.commits", static_cast<double>(commits), "count");
    Put(result, "cc.op_conflicts",
        static_cast<double>(cc_end.conflicts - cc_start.conflicts), "count");
    Put(result, "cc.validation_failures",
        static_cast<double>(cc_end.validation - cc_start.validation), "count");
    Put(result, "core.rounds", spec_.pass_rounds, "count");
    Put(result, "core.handoffs", static_cast<double>(arbiter.core_handoffs() - handoffs), "count");
    Put(result, "core.preemptions", static_cast<double>(arbiter.preemptions() - preemptions), "count");
    Put(result, "core.starved_rounds", static_cast<double>(arbiter.starved_rounds() - starved), "count");
    double remote = 0.0;
    for (int i = 0; i < experiment.num_tenants(); ++i) {
      remote += std::max(0.0, experiment.engine(i).RemotePageFraction());
    }
    Put(result, "mem.remote_frac", remote / experiment.num_tenants(), "fraction");
    PutMachineCounters(result, counters_start, MachineCounters::Of(machine), ticks,
                       machine.topology().total_cores(),
                       machine.scheduler().cycles_per_tick());
    return result;
  }

 private:
  struct CcCounts {
    int64_t commits = 0;
    int64_t aborts = 0;
    int64_t conflicts = 0;
    int64_t validation = 0;
  };
  static CcCounts CcCountsOf(exec::ContentionArbiterExperiment& experiment) {
    CcCounts counts;
    for (int i = 0; i < experiment.num_tenants(); ++i) {
      const oltp::TxnEngine& engine = experiment.engine(i);
      counts.commits += engine.cc_commits();
      counts.aborts += engine.cc_aborts();
      counts.conflicts += engine.cc_lock_conflicts();
      counts.validation += engine.cc_validation_failures();
    }
    return counts;
  }

  ContentionSpec spec_;
  bool builtin_poll_hook_;
  std::unique_ptr<exec::ContentionArbiterExperiment> experiment_;
  TickTimer timer_;
};

/// The numa_islands island_bound / affinity-weight-4 cell: 2 sockets x 8
/// cores, two uniform 2PL YCSB tenants whose slabs sit on the socket the
/// oblivious handout would not give them. 262144 records per tenant is about
/// 2.7x a socket's L3, so the pass is DRAM-bound with remote traffic.
ContentionSpec NumaIslands(uint64_t seed) {
  ContentionSpec spec;
  spec.options.cores = 16;
  spec.options.cores_per_node = 8;
  spec.options.arbiter.policy = core::ArbitrationPolicy::kFairShare;
  spec.options.arbiter.monitor_period_ticks = 100;
  spec.options.arbiter.numa_affinity_weight = 4.0;
  spec.options.cpu_cycles_per_page = 10'000;
  spec.options.retry_backoff_ticks = 5;
  spec.options.seed = seed;
  spec.options.machine_seed = seed;
  exec::ContentionTenantSpec alpha;
  alpha.name = "alpha";
  alpha.protocol = oltp::cc::ProtocolKind::kTwoPhaseLock;
  alpha.ycsb.num_records = 262144;
  alpha.ycsb.ops_per_txn = 8;
  alpha.ycsb.read_fraction = 0.5;
  alpha.ycsb.theta = 0.0;
  alpha.mechanism.initial_cores = 2;
  alpha.mechanism.max_cores = 8;
  alpha.clients = 256;
  alpha.probe_window_ticks = 200;
  alpha.mem_policy = mem::Policy::kIslandBound;
  alpha.mem_island = 1;
  alpha.memory_telemetry = true;
  exec::ContentionTenantSpec beta = alpha;
  beta.name = "beta";
  beta.mem_island = 0;
  spec.tenants = {alpha, beta};
  // Both tenants grow to their 8 cores within the first 8 rounds. Timing
  // only the steady state after that keeps the rare handoff rounds of the
  // growth, whose timing depends on the seed, out of the pass and its p99.
  spec.warmup_rounds = 8;
  spec.pass_rounds = 12;
  // A tick lasts about a millisecond here and a round's Poll a small part
  // of one, so ten ticks make an operation and rounds do not stand out.
  spec.ticks_per_op = 10;
  return spec;
}

/// The contention_policy hot/cool mix under contention_aware: a theta-0.99
/// partition_lock tenant next to a uniform 2PL tenant on 16 cores. 8192
/// records per tenant (128 pages) fit in L3, so abort churn, retry pumps and
/// the hill climber's telemetry pulls dominate instead of the memory model.
ContentionSpec ContentionHot(uint64_t seed) {
  ContentionSpec spec;
  spec.options.cores = 16;
  spec.options.arbiter.policy = core::ArbitrationPolicy::kContentionAware;
  spec.options.arbiter.monitor_period_ticks = 100;
  spec.options.retry_backoff_ticks = 5;
  spec.options.seed = seed;
  spec.options.machine_seed = seed;
  exec::ContentionTenantSpec hot;
  hot.name = "hot";
  hot.protocol = oltp::cc::ProtocolKind::kPartitionLock;
  hot.ycsb.num_records = 8192;
  hot.ycsb.ops_per_txn = 4;
  hot.ycsb.read_fraction = 0.5;
  hot.ycsb.theta = 0.99;
  hot.mechanism.initial_cores = 2;
  hot.clients = 96;
  hot.probe_window_ticks = 200;
  exec::ContentionTenantSpec cool = hot;
  cool.name = "cool";
  cool.protocol = oltp::cc::ProtocolKind::kTwoPhaseLock;
  cool.ycsb.theta = 0.0;
  cool.clients = 64;
  spec.tenants = {hot, cool};
  spec.warmup_rounds = 20;
  spec.pass_rounds = 400;
  // Ticks last about 20 us and the hill climber's rounds cost several of
  // them, so an operation is one whole round.
  spec.ticks_per_op = spec.options.arbiter.monitor_period_ticks;
  return spec;
}

// ---------------------------------------------------------------------------
// control_plane: the arbiter's decision loop alone, at 1000 tenants on a
// 1024-core SyntheticPlatform. TimedPlatform forwards every call; in a
// traced pass it also times SetCpusetMask and each tenant's Sample().

class TimedPlatform : public platform::Platform {
 public:
  explicit TimedPlatform(platform::SyntheticPlatform* inner) : inner_(inner) {}

  void set_spans(SpanLog* spans) { spans_ = spans; }
  SpanLog* spans() const { return spans_; }
  int64_t sample_calls = 0;
  int64_t set_mask_calls = 0;
  int64_t mask_changes = 0;

  const numasim::Topology& topology() const override { return inner_->topology(); }
  simcore::Tick Now() const override { return inner_->Now(); }
  int64_t cycles_per_tick() const override { return inner_->cycles_per_tick(); }
  platform::CpusetId CreateCpuset(const std::string& name,
                                  const platform::CpuMask& mask) override {
    return inner_->CreateCpuset(name, mask);
  }
  bool SetCpusetMask(platform::CpusetId cpuset,
                     const platform::CpuMask& mask) override {
    if (spans_ == nullptr) return inner_->SetCpusetMask(cpuset, mask);
    set_mask_calls++;
    if (inner_->cpuset_mask(cpuset) != mask) mask_changes++;
    const int64_t start = NowNs();
    const bool ok = inner_->SetCpusetMask(cpuset, mask);
    spans_->Add("platform.set_mask", "core.poll", start, NowNs(), false);
    return ok;
  }
  platform::CpuMask cpuset_mask(platform::CpusetId cpuset) const override {
    return inner_->cpuset_mask(cpuset);
  }
  void SetAllowedMask(const platform::CpuMask& mask) override {
    inner_->SetAllowedMask(mask);
  }
  std::unique_ptr<perf::UtilizationSampler> CreateSampler() override;
  void AddTickHook(std::function<void(simcore::Tick)> hook) override {
    inner_->AddTickHook(std::move(hook));
  }
  simcore::Trace* trace() override { return inner_->trace(); }

 private:
  platform::SyntheticPlatform* inner_;
  SpanLog* spans_ = nullptr;
};

class TimedSampler : public perf::UtilizationSampler {
 public:
  TimedSampler(std::unique_ptr<perf::UtilizationSampler> inner,
               TimedPlatform* platform)
      : inner_(std::move(inner)), platform_(platform) {}

  perf::WindowStats Sample() override {
    SpanLog* spans = platform_->spans();
    if (spans == nullptr) return inner_->Sample();
    platform_->sample_calls++;
    const int64_t start = NowNs();
    perf::WindowStats stats = inner_->Sample();
    spans->Add("platform.sample", "core.poll", start, NowNs(), false);
    return stats;
  }
  void Reset() override { inner_->Reset(); }

 private:
  std::unique_ptr<perf::UtilizationSampler> inner_;
  TimedPlatform* platform_;
};

std::unique_ptr<perf::UtilizationSampler> TimedPlatform::CreateSampler() {
  return std::make_unique<TimedSampler>(inner_->CreateSampler(), this);
}

class ControlPlane : public Workload {
 public:
  explicit ControlPlane(uint64_t seed) {
    // A seeded shuffle of the tenants into ten groups: every 10 rounds the
    // next group runs hot (95%) and the previous one drops to 5%.
    std::vector<int> order(kTenants);
    for (int i = 0; i < kTenants; ++i) order[static_cast<size_t>(i)] = i;
    simcore::Rng rng(seed);
    for (int i = kTenants - 1; i > 0; --i) {
      std::swap(order[static_cast<size_t>(i)],
                order[rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
    }
    group_.resize(kTenants);
    for (int i = 0; i < kTenants; ++i) {
      group_[static_cast<size_t>(order[static_cast<size_t>(i)])] = i % kGroups;
    }
  }

  void Setup() override {
    arbiter_.reset();
    timed_.reset();
    synthetic_.reset();
    numasim::MachineConfig machine;
    machine.num_nodes = 256;
    machine.cores_per_node = 4;
    synthetic_ = std::make_unique<platform::SyntheticPlatform>(machine);
    timed_ = std::make_unique<TimedPlatform>(synthetic_.get());
    core::ArbiterConfig config;
    config.policy = core::ArbitrationPolicy::kFairShare;
    config.monitor_period_ticks = kPeriod;
    config.log_rounds = false;
    config.register_tick_hook = false;
    arbiter_ = std::make_unique<core::CoreArbiter>(timed_.get(), config);
    for (int i = 0; i < kTenants; ++i) {
      core::MechanismConfig mechanism;
      mechanism.initial_cores = 1;
      mechanism.max_cores = 2;
      mechanism.monitor_period_ticks = kPeriod;
      mechanism.log_transitions = false;
      arbiter_->AddTenant(exec::TenantBuilder("t" + std::to_string(i))
                              .mechanism(mechanism)
                              .mode("dense")
                              .Build());
    }
    arbiter_->Install();
  }
  bool SetupPerPass() const override { return true; }

  PassResult Pass(SpanLog* spans) override {
    PassResult result;
    timed_->set_spans(spans);
    timed_->sample_calls = timed_->set_mask_calls = timed_->mask_changes = 0;
    core::CoreArbiter& arbiter = *arbiter_;
    const int64_t handoffs = arbiter.core_handoffs();
    const int64_t preemptions = arbiter.preemptions();
    const int64_t starved = arbiter.starved_rounds();
    const int total_cores = synthetic_->topology().total_cores();
    std::vector<double> load(static_cast<size_t>(total_cores));

    for (int round = 0; round < kRounds; ++round) {
      int64_t start = NowNs();
      const int hot = (round / 10) % kGroups;
      const int cool = (hot + kGroups - 1) % kGroups;
      std::fill(load.begin(), load.end(), 0.0);
      for (int i = 0; i < kTenants; ++i) {
        const int group = group_[static_cast<size_t>(i)];
        const double busy = group == hot ? 0.95 : group == cool ? 0.05 : 0.50;
        for (const numasim::CoreId core : arbiter.tenant_mask(i).ToCores()) {
          load[static_cast<size_t>(core)] = busy;
        }
      }
      for (int core = 0; core < total_cores; ++core) {
        synthetic_->SetCoreBusyFraction(core, load[static_cast<size_t>(core)]);
      }
      synthetic_->AdvanceTicks(kPeriod);
      int64_t end = NowNs();
      if (spans != nullptr) spans->Add("bench.script", "pass", start, end);

      start = NowNs();
      arbiter.Poll(synthetic_->Now());
      end = NowNs();
      result.ops.Add(end - start);
      if (spans != nullptr) spans->Add("core.poll", "pass", start, end);

      start = NowNs();
      if (!RoundHolds(arbiter)) result.failed++;
      if (spans != nullptr) spans->Add("bench.check", "pass", start, NowNs());
    }
    result.attempted = kRounds;
    Put(result, "core.rounds", kRounds, "count");
    Put(result, "core.handoffs", static_cast<double>(arbiter.core_handoffs() - handoffs), "count");
    Put(result, "core.preemptions", static_cast<double>(arbiter.preemptions() - preemptions), "count");
    Put(result, "core.starved_rounds", static_cast<double>(arbiter.starved_rounds() - starved), "count");
    Put(result, "core.fairness", arbiter.FairnessIndex(), "index");
    if (spans != nullptr) {
      Put(result, "platform.sample_calls", static_cast<double>(timed_->sample_calls), "count");
      Put(result, "platform.set_mask_calls", static_cast<double>(timed_->set_mask_calls), "count");
      Put(result, "platform.mask_changes", static_cast<double>(timed_->mask_changes), "count");
    }
    timed_->set_spans(nullptr);
    return result;
  }

 private:
  static constexpr int kTenants = 1000;
  static constexpr int kGroups = 10;
  static constexpr int kPeriod = 20;
  /// One pass is one full rotation of the hot group.
  static constexpr int kRounds = 100;

  /// Tenant masks pairwise disjoint, every tenant at or above its one-core
  /// floor, and the platform's stored mask equal to the arbiter's.
  bool RoundHolds(const core::CoreArbiter& arbiter) const {
    platform::CpuMask owned;
    for (int i = 0; i < arbiter.num_tenants(); ++i) {
      const platform::CpuMask& mask = arbiter.tenant_mask(i);
      if (mask.Count() < 1 || !owned.Intersect(mask).Empty()) return false;
      if (synthetic_->cpuset_mask(arbiter.tenant_cpuset(i)) != mask) return false;
      owned = owned.Union(mask);
    }
    return true;
  }

  std::vector<int> group_;
  std::unique_ptr<platform::SyntheticPlatform> synthetic_;
  std::unique_ptr<TimedPlatform> timed_;
  std::unique_ptr<core::CoreArbiter> arbiter_;
};

// ---------------------------------------------------------------------------
// rt_ycsb: TicToc on real threads. Each worker runs transactions from its own
// seeded YCSB stream, retrying each until it commits.

class RtYcsb : public Workload {
 public:
  explicit RtYcsb(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    generators_.clear();
    protocol_.reset();
    table_.reset();
    table_ = std::make_unique<oltp::cc::Table>(kRecords, 16);
    protocol_ = oltp::cc::MakeProtocol(oltp::cc::ProtocolKind::kTicToc, table_.get());
    oltp::cc::YcsbConfig config;
    config.num_records = kRecords;
    config.ops_per_txn = 4;
    config.read_fraction = 0.5;
    config.theta = 0.99;
    for (int t = 0; t < kThreads; ++t) {
      generators_.push_back(std::make_unique<oltp::cc::YcsbGenerator>(
          config, seed_ + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(t + 1)));
    }
  }
  bool SetupPerPass() const override { return true; }

  PassResult Pass(SpanLog* spans) override {
    PassResult result;
    result.threads = kThreads;
    result.repeatable = false;
    const int64_t sum_before = table_->SumValues();
    std::atomic<int64_t> next{0};
    std::vector<Worker> workers(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      workers[static_cast<size_t>(t)].spans = SpanLog(t + 1, 20000);
      threads.emplace_back([this, t, &next, &workers, spans] {
        Run(t, &next, spans != nullptr, &workers[static_cast<size_t>(t)]);
      });
    }
    for (std::thread& thread : threads) thread.join();

    int64_t commits = 0;
    int64_t conflicts = 0;
    int64_t validation = 0;
    int64_t writes = 0;
    for (Worker& worker : workers) {
      result.ops.Merge(worker.latency);
      commits += worker.commits;
      conflicts += worker.op_conflicts;
      validation += worker.validation_failures;
      writes += worker.committed_writes;
      if (spans != nullptr) spans->Merge(worker.spans);
    }
    // Every committed read-modify-write adds exactly one to its record; a
    // sum that disagrees leaves no transaction of the pass trusted.
    const bool sum_holds = table_->SumValues() - sum_before == writes;
    result.attempted = kTxnsPerPass;
    result.failed = sum_holds ? kTxnsPerPass - commits : kTxnsPerPass;
    const int64_t attempts = commits + conflicts + validation;
    Put(result, "cc.attempts", static_cast<double>(attempts), "count");
    Put(result, "cc.commits", static_cast<double>(commits), "count");
    Put(result, "cc.op_conflicts", static_cast<double>(conflicts), "count");
    Put(result, "cc.validation_failures", static_cast<double>(validation), "count");
    Put(result, "cc.commit_ratio", static_cast<double>(commits) / attempts, "fraction");
    return result;
  }

 private:
  static constexpr int kThreads = 3;
  static constexpr int64_t kRecords = int64_t{1} << 20;
  static constexpr int64_t kTxnsPerPass = 1'500'000;
  static constexpr int64_t kClaim = 64;
  /// Spans of one transaction in this many are kept for the trace file.
  static constexpr int64_t kKeepEvery = 1024;

  struct Worker {
    LogHistogram latency;
    SpanLog spans;
    int64_t commits = 0;
    int64_t op_conflicts = 0;
    int64_t validation_failures = 0;
    int64_t committed_writes = 0;
  };

  void Run(int tid, std::atomic<int64_t>* next, bool traced, Worker* out) {
    oltp::cc::Protocol& protocol = *protocol_;
    oltp::cc::YcsbGenerator& generator = *generators_[static_cast<size_t>(tid)];
    oltp::cc::TxnCtx ctx;
    const int64_t worker_start = NowNs();
    for (;;) {
      const int64_t first = next->fetch_add(kClaim);
      if (first >= kTxnsPerPass) break;
      const int64_t last = std::min(first + kClaim, kTxnsPerPass);
      for (int64_t id = first; id < last; ++id) {
        const bool keep = id % kKeepEvery == 0;
        // One protocol call, timed as a span of the transaction when traced.
        const auto call = [&](const char* span, auto&& fn) {
          if (!traced) return fn();
          const int64_t start = NowNs();
          const bool ok = fn();
          out->spans.Add(span, "cc.txn", start, NowNs(), keep);
          return ok;
        };
        const int64_t next_start = traced ? NowNs() : 0;
        const oltp::cc::CcTxn txn = generator.Next();
        const int64_t txn_start = NowNs();
        if (traced) out->spans.Add("ycsb.next", "cc.worker", next_start, txn_start, keep);
        for (;;) {
          call("cc.begin", [&] {
            protocol.Begin(ctx, static_cast<uint64_t>(id));
            return true;
          });
          if (!call("cc.execute", [&] {
                return oltp::cc::ExecuteCcTxn(protocol, ctx, txn, nullptr);
              })) {
            call("cc.abort", [&] {
              protocol.Abort(ctx);
              return true;
            });
            out->op_conflicts++;
            std::this_thread::yield();
            continue;
          }
          if (!call("cc.commit", [&] { return protocol.Commit(ctx, nullptr); })) {
            out->validation_failures++;
            std::this_thread::yield();
            continue;
          }
          break;
        }
        const int64_t txn_end = NowNs();
        out->latency.Add(txn_end - txn_start);
        if (traced) out->spans.Add("cc.txn", "cc.worker", txn_start, txn_end, keep);
        out->commits++;
        for (const oltp::cc::CcOp& op : txn.ops) out->committed_writes += op.write;
      }
    }
    if (traced) out->spans.Add("cc.worker", nullptr, worker_start, NowNs());
  }

  uint64_t seed_;
  std::unique_ptr<oltp::cc::Table> table_;
  std::unique_ptr<oltp::cc::Protocol> protocol_;
  std::vector<std::unique_ptr<oltp::cc::YcsbGenerator>> generators_;
};

// ---------------------------------------------------------------------------
// tpch_scan: the 22 TPC-H queries one after another on one thread, each
// result checked by an FNV-1a checksum of its exact bytes.

const char* const kQuerySpans[22] = {
    "db.q01", "db.q02", "db.q03", "db.q04", "db.q05", "db.q06",
    "db.q07", "db.q08", "db.q09", "db.q10", "db.q11", "db.q12",
    "db.q13", "db.q14", "db.q15", "db.q16", "db.q17", "db.q18",
    "db.q19", "db.q20", "db.q21", "db.q22"};

/// Kind-tagged cells with exact f64 bit patterns, so the checksum moves iff
/// an output byte moves (the serialization of the query golden test).
uint64_t ResultChecksum(const db::QueryResult& result) {
  std::string blob = result.query + "\n";
  char buf[64];
  for (const auto& row : result.rows) {
    for (const db::Value& v : row) {
      switch (v.kind()) {
        case db::Value::Kind::kI64:
          std::snprintf(buf, sizeof buf, "i%lld", static_cast<long long>(v.i64()));
          blob += buf;
          break;
        case db::Value::Kind::kF64: {
          const double d = v.f64();
          uint64_t bits = 0;
          std::memcpy(&bits, &d, sizeof bits);
          std::snprintf(buf, sizeof buf, "f%016llx",
                        static_cast<unsigned long long>(bits));
          blob += buf;
          break;
        }
        case db::Value::Kind::kStr:
          blob += "s" + v.str();
          break;
      }
      blob += '|';
    }
    blob += '\n';
  }
  uint64_t hash = 14695981039346656037ULL;
  for (const unsigned char c : blob) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

class TpchScan : public Workload {
 public:
  TpchScan(uint64_t seed, const std::string& golden_path) : seed_(seed) {
    // Lines of "<seed> <query> <checksum hex>"; only this seed's are used.
    std::ifstream in(golden_path);
    golden_read_ = in.is_open();
    if (!golden_read_) {
      std::fprintf(stderr, "cannot read golden checksums '%s'\n",
                   golden_path.c_str());
    }
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      uint64_t seed_field = 0;
      int query = 0;
      std::string checksum;
      if (fields >> seed_field >> query >> checksum && seed_field == seed &&
          query >= 1 && query <= 22) {
        golden_[query] = std::stoull(checksum, nullptr, 16);
      }
    }
  }

  void Setup() override {
    db_.reset();
    tpch::DbgenOptions options;
    options.scale_factor = kScaleFactor;
    options.seed = seed_;
    db_ = std::make_unique<db::Database>(tpch::Generate(options));
    // The untimed warm-up pass: its checksums are the reference of the
    // passes that follow when no golden exists for this seed.
    for (int q = 1; q <= 22; ++q) {
      reference_[static_cast<size_t>(q - 1)] =
          ResultChecksum(db::RunTpchQuery(*db_, q).result);
      // In the golden file's format, for recording a new seed's goldens.
      if (golden_.empty()) {
        std::fprintf(stderr, "%llu %d %016llx\n",
                     static_cast<unsigned long long>(seed_), q,
                     static_cast<unsigned long long>(
                         reference_[static_cast<size_t>(q - 1)]));
      }
    }
  }
  bool SetupPerPass() const override { return false; }

  PassResult Pass(SpanLog* spans) override {
    PassResult result;
    // Without a golden file, or without all 22 goldens of the default seed,
    // every query fails: comparing passes with the warm-up pass alone would
    // not catch a wrong result that repeats.
    const bool golden_missing =
        !golden_read_ || (seed_ == kDefaultSeed && golden_.size() != 22);
    double bytes_read = 0.0;
    for (int q = 1; q <= 22; ++q) {
      const int64_t start = NowNs();
      const db::QueryOutput out = db::RunTpchQuery(*db_, q);
      const int64_t end = NowNs();
      result.ops.Add(end - start);
      if (spans != nullptr) spans->Add(kQuerySpans[q - 1], "pass", start, end);
      const uint64_t checksum = ResultChecksum(out.result);
      const auto golden = golden_.find(q);
      const uint64_t expected = golden != golden_.end()
                                    ? golden->second
                                    : reference_[static_cast<size_t>(q - 1)];
      if (golden_missing || checksum != expected) result.failed++;
      bytes_read += static_cast<double>(out.trace.TotalBytesRead());
      if (spans != nullptr) spans->Add("bench.checksum", "pass", end, NowNs());
    }
    result.attempted = 22;
    Put(result, "db.queries", 22, "count");
    Put(result, "db.bytes_read", bytes_read, "bytes");
    Put(result, "db.golden_checked", golden_.size() == 22 ? 1 : 0, "bool");
    return result;
  }

 private:
  uint64_t seed_;
  bool golden_read_ = false;
  std::map<int, uint64_t> golden_;
  std::array<uint64_t, 22> reference_{};
  std::unique_ptr<db::Database> db_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const WorkloadOptions& options) {
  if (name == "htap_burst") return std::make_unique<HtapBurst>(seed);
  if (name == "numa_islands") {
    return std::make_unique<ContentionSim>(NumaIslands(seed),
                                           options.builtin_poll_hook);
  }
  if (name == "contention_hot") {
    return std::make_unique<ContentionSim>(ContentionHot(seed),
                                           options.builtin_poll_hook);
  }
  if (name == "control_plane") return std::make_unique<ControlPlane>(seed);
  if (name == "rt_ycsb") return std::make_unique<RtYcsb>(seed);
  if (name == "tpch_scan") {
    return std::make_unique<TpchScan>(seed, options.golden_path);
  }
  return nullptr;
}

}  // namespace elasticore_bench
