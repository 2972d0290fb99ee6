// elasticore_bench: runs one benchmark workload in this process and prints
// its measurements as one JSON object on the last line of stdout.
//
//   elasticore_bench --workload W [--seed S] [--seconds T] [--golden FILE]
//                    [--trace FILE | --check]
//
// Untraced (the default): passes repeat until they add up to T seconds (at
// least three). Set-up runs before each of the first three passes, or
// before every pass that consumes its state. The end-to-end metrics are
// medians over set-ups and passes, and quantiles over all operations of the
// run, each divided by the host's median slowdown over the run (see
// host_speed.h). --trace FILE alternates untraced and traced passes, reports
// per-layer shares and counts and the tracing overhead, and writes the kept
// spans to FILE as Chrome trace-event JSON. --check runs the harness
// self-checks once. Exit status 1 when an output check failed, 2 on bad
// usage.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "host_speed.h"
#include "probe.h"
#include "scenarios.h"

namespace elasticore_bench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr int kMinPasses = 3;
/// The host's slowdown is sampled at most once a second of run time.
constexpr int64_t kSlowdownPeriodNs = 1'000'000'000;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  std::string trace_path;
  bool check = false;
  WorkloadOptions options;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Samples the host's slowdown between passes: always at the first call,
/// then when a second has passed since the last sample.
class SlowdownSampler {
 public:
  void MaybeSample() {
    if (!samples_.empty() && NowNs() - last_ns_ < kSlowdownPeriodNs) return;
    samples_.push_back(MeasureHostSlowdown());
    last_ns_ = NowNs();
  }
  double median() const { return Median(samples_); }
  size_t count() const { return samples_.size(); }

 private:
  std::vector<double> samples_;
  int64_t last_ns_ = 0;
};

/// Peak resident memory of this process image (VmHWM). getrusage's
/// ru_maxrss would not do: Linux carries the launching process's peak
/// across exec, so a small workload started from Python reports Python's.
/// 0 when /proc is unavailable.
double PeakRssMiB() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

/// JSON writer for the one-line result.
class Json {
 public:
  void Key(const std::string& key) {
    Sep();
    out_ += "\"" + key + "\": ";
    fresh_ = true;
  }
  void Str(const std::string& value) {
    Sep();
    out_ += "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += "\"";
  }
  void Num(double value) {
    Sep();
    char buf[40];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    out_ += buf;
  }
  void Bool(bool value) {
    Sep();
    out_ += value ? "true" : "false";
  }
  void Open(char brace) {
    Sep();
    out_ += brace;
    fresh_ = true;
  }
  void Close(char brace) {
    out_ += brace;
    fresh_ = false;
  }
  /// {"value": v, "unit": u}
  void Metric(const std::string& name, double value, const std::string& unit) {
    Key(name);
    Open('{');
    Key("value");
    Num(value);
    Key("unit");
    Str(unit);
    Close('}');
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_ && !out_.empty()) out_ += ", ";
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

/// Names of `a` whose value differs in `b` (only names present in both).
std::vector<std::string> Mismatches(const std::vector<NamedValue>& a,
                                    const std::vector<NamedValue>& b) {
  std::map<std::string, double> values;
  for (const NamedValue& v : b) values[v.name] = v.value;
  std::vector<std::string> names;
  for (const NamedValue& v : a) {
    const auto it = values.find(v.name);
    if (it != values.end() && it->second != v.value) names.push_back(v.name);
  }
  return names;
}

/// Per-layer time shares: each is the self time of its spans over the
/// traced thread time. What they leave over is bench.self_share.
struct Share {
  const char* metric;
  std::vector<std::string> spans;
};

std::vector<Share> Shares() {
  std::vector<std::string> queries;
  for (int q = 1; q <= 22; ++q) {
    char name[16];
    std::snprintf(name, sizeof name, "db.q%02d", q);
    queries.push_back(name);
  }
  return {
      {"ossim.sched_share", {"ossim.step", "ossim.sched"}},
      {"exec.hooks_share", {"exec.hooks", "exec.hooks_round", "exec.start"}},
      {"core.poll_share", {"core.poll"}},
      {"platform.sample_share", {"platform.sample"}},
      {"platform.set_mask_share", {"platform.set_mask"}},
      {"cc.begin_share", {"cc.begin"}},
      {"cc.execute_share", {"cc.execute"}},
      {"cc.commit_share", {"cc.commit"}},
      {"cc.abort_share", {"cc.abort"}},
      {"ycsb.next_share", {"ycsb.next"}},
      {"db.query_share", queries},
  };
}

/// Layer counts reported by a traced run (0 where the workload has none).
const std::vector<std::pair<const char*, const char*>>& LayerCounts() {
  static const std::vector<std::pair<const char*, const char*>> kCounts = {
      {"ossim.ticks", "count"},
      {"ossim.thread_migrations", "count"},
      {"ossim.stolen_tasks", "count"},
      {"ossim.busy_frac", "fraction"},
      {"numasim.page_accesses", "count"},
      {"numasim.l3_miss_ratio", "fraction"},
      {"numasim.remote_in_bytes", "bytes"},
      {"numasim.ht_bytes", "bytes"},
      {"mem.remote_frac", "fraction"},
      {"core.rounds", "count"},
      {"core.handoffs", "count"},
      {"core.preemptions", "count"},
      {"core.starved_rounds", "count"},
      {"platform.sample_calls", "count"},
      {"platform.set_mask_calls", "count"},
      {"platform.mask_changes", "count"},
      {"cc.attempts", "count"},
      {"cc.commits", "count"},
      {"cc.op_conflicts", "count"},
      {"cc.validation_failures", "count"},
      {"db.bytes_read", "bytes"},
  };
  return kCounts;
}

/// Span accounting: no span's children may exceed it by more than 5%, and
/// the step and pass spans (fully split into children) must be covered by
/// them within 5%. Returns one line per violation.
std::vector<std::string> AccountingProblems(const SpanLog& spans) {
  std::map<std::string, int64_t> children;
  for (const SpanLog::Total& total : spans.totals()) {
    if (total.parent != nullptr) children[total.parent] += total.ns;
  }
  std::vector<std::string> problems;
  for (const auto& [parent, child_ns] : children) {
    const double parent_ns = static_cast<double>(spans.TotalNs(parent));
    const double ratio = parent_ns > 0 ? static_cast<double>(child_ns) / parent_ns : 0.0;
    const bool complete = parent == "ossim.step" || parent == "pass";
    if (ratio > 1.05 || (complete && ratio < 0.95)) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "children of %s cover %.3f of it (allowed %s)",
                    parent.c_str(), ratio, complete ? "0.95-1.05" : "<= 1.05");
      problems.push_back(line);
    }
  }
  return problems;
}

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  int passes = 0;
  std::vector<std::string> problems;
  std::vector<NamedValue> values;  // of the first pass

  void Add(const PassResult& pass) {
    attempted += pass.attempted;
    failed += pass.failed;
    if (passes++ == 0) values = pass.values;
  }
  /// A repeatable pass whose values differ from the first pass's counts as
  /// one failed operation.
  void Compare(const PassResult& pass, const std::vector<NamedValue>& reference,
               const char* what) {
    if (!pass.repeatable) return;
    const std::vector<std::string> names = Mismatches(pass.values, reference);
    if (names.empty()) return;
    failed++;
    attempted++;
    problems.push_back(std::string(what) + " differs in " + names.front());
  }
};

void PrintResult(const Args& args, const char* mode, const Outcome& outcome,
                 Json& metrics, const std::string& extra) {
  Json json;
  json.Open('{');
  json.Key("workload");
  json.Str(args.workload);
  json.Key("seed");
  json.Num(static_cast<double>(args.seed));
  json.Key("mode");
  json.Str(mode);
  json.Key("correct");
  json.Bool(outcome.failed == 0 && outcome.problems.empty());
  json.Key("attempted");
  json.Num(static_cast<double>(std::max<int64_t>(outcome.attempted, 1)));
  json.Key("failed");
  json.Num(static_cast<double>(outcome.failed));
  json.Key("passes");
  json.Num(outcome.passes);
  json.Key("problems");
  json.Open('[');
  for (const std::string& problem : outcome.problems) json.Str(problem);
  json.Close(']');
  json.Key("values");
  json.Open('{');
  for (const NamedValue& v : outcome.values) json.Metric(v.name, v.value, v.unit);
  json.Close('}');
  json.Key("metrics");
  std::string out = json.str() + metrics.str() + extra + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int RunUntraced(const Args& args, Workload& workload) {
  // Set-up runs before every pass of a workload whose passes consume their
  // state, and otherwise before each of the first kSetupRepeats passes.
  // Peak memory is read after the first set-up and pass: later set-ups
  // only add the allocator's leftovers from the state they replace.
  // Operation quantiles are taken over all operations of the run. Every
  // time is divided by the host's median slowdown over the run; the times
  // as measured are printed beside the metrics.
  std::vector<double> setup_s;
  std::vector<double> pass_s;
  LogHistogram ops;
  double peak_rss_mb = 0.0;
  Outcome outcome;
  SlowdownSampler slowdown;
  double measured_s = 0.0;
  while (outcome.passes < kMinPasses || measured_s < args.seconds) {
    if (workload.SetupPerPass() ||
        static_cast<int>(setup_s.size()) < kSetupRepeats) {
      const int64_t start = NowNs();
      workload.Setup();
      setup_s.push_back(Seconds(NowNs() - start));
    }
    const int64_t start = NowNs();
    const PassResult pass = workload.Pass(nullptr);
    pass_s.push_back(Seconds(NowNs() - start));
    measured_s += pass_s.back();
    if (outcome.passes == 0) peak_rss_mb = PeakRssMiB();
    ops.Merge(pass.ops);
    if (outcome.passes > 0) outcome.Compare(pass, outcome.values, "a pass");
    outcome.Add(pass);
    // After the peak memory is read: the kernels allocate a few MiB.
    slowdown.MaybeSample();
  }

  const std::pair<const char*, double> times[] = {
      {"setup_s", Median(setup_s)},
      {"pass_ms", Median(pass_s) * 1e3},
      {"op_us_p50", ops.QuantileNs(0.50) / 1e3},
      {"op_us_p99", ops.QuantileNs(0.99) / 1e3},
  };
  const char* const units[] = {"s", "ms", "us", "us"};
  Json metrics;
  metrics.Open('{');
  for (size_t i = 0; i < std::size(times); ++i) {
    metrics.Metric(times[i].first, times[i].second / slowdown.median(), units[i]);
  }
  metrics.Metric("peak_rss_mb", peak_rss_mb, "MiB");
  metrics.Close('}');
  Json extra;
  extra.Key("measured");
  extra.Open('{');
  for (size_t i = 0; i < std::size(times); ++i) {
    extra.Metric(times[i].first, times[i].second, units[i]);
  }
  extra.Close('}');
  extra.Key("host_slowdown");
  extra.Num(slowdown.median());
  extra.Key("slowdown_samples");
  extra.Num(static_cast<double>(slowdown.count()));
  extra.Key("setups");
  extra.Num(static_cast<double>(setup_s.size()));
  extra.Key("ops");
  extra.Num(static_cast<double>(ops.count()));
  PrintResult(args, "run", outcome, metrics, ", " + extra.str());
  return outcome.failed == 0 && outcome.problems.empty() ? 0 : 1;
}

int RunTraced(const Args& args, Workload& workload) {
  SpanLog spans(0, 50000);
  const int64_t origin = NowNs();
  workload.Setup();
  SlowdownSampler slowdown;
  slowdown.MaybeSample();
  Outcome outcome;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  double traced_thread_s = 0.0;
  std::vector<NamedValue> traced_values;
  std::vector<NamedValue> untraced_values;
  double measured_s = 0.0;
  // Untraced and traced passes alternate, ending on a traced one.
  for (int pass_index = 0; pass_index < 2 * kMinPasses ||
                           measured_s < args.seconds || pass_index % 2 == 1;
       ++pass_index) {
    if (pass_index > 0 && workload.SetupPerPass()) workload.Setup();
    const bool traced = pass_index % 2 == 1;
    const int64_t start = NowNs();
    const PassResult pass = workload.Pass(traced ? &spans : nullptr);
    const int64_t end = NowNs();
    measured_s += Seconds(end - start);
    if (traced) {
      spans.Add("pass", nullptr, start, end);
      traced_s.push_back(Seconds(end - start));
      traced_thread_s += Seconds(end - start) * pass.threads;
      if (traced_values.empty()) traced_values = pass.values;
      outcome.Compare(pass, untraced_values, "a traced pass");
    } else {
      untraced_s.push_back(Seconds(end - start));
      if (untraced_values.empty()) untraced_values = pass.values;
      outcome.Compare(pass, untraced_values, "an untraced pass");
    }
    outcome.Add(pass);
    slowdown.MaybeSample();
  }
  outcome.values = traced_values;
  for (const std::string& problem : AccountingProblems(spans)) {
    outcome.problems.push_back(problem);
  }

  Json metrics;
  metrics.Open('{');
  double covered = 0.0;
  for (const Share& share : Shares()) {
    int64_t self_ns = 0;
    for (const std::string& span : share.spans) self_ns += spans.SelfNs(span);
    const double fraction = Seconds(self_ns) / traced_thread_s;
    covered += fraction;
    metrics.Metric(share.metric, fraction, "fraction");
  }
  metrics.Metric("bench.self_share", 1.0 - covered, "fraction");
  std::map<std::string, double> values;
  for (const NamedValue& v : traced_values) values[v.name] = v.value;
  for (const auto& [name, unit] : LayerCounts()) {
    const auto it = values.find(name);
    metrics.Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  metrics.Metric("trace.overhead_frac",
                 Median(traced_s) / Median(untraced_s) - 1.0, "fraction");
  metrics.Metric("host.slowdown", slowdown.median(), "ratio");
  metrics.Close('}');

  // The self-time table: one row per span name.
  Json table;
  table.Key("spans");
  table.Open('[');
  for (const SpanLog::Total& total : spans.totals()) {
    table.Open('{');
    table.Key("name");
    table.Str(total.name);
    table.Key("parent");
    table.Str(total.parent == nullptr ? "" : total.parent);
    table.Key("calls");
    table.Num(static_cast<double>(total.calls));
    table.Key("total_s");
    table.Num(Seconds(total.ns));
    table.Key("self_s");
    table.Num(Seconds(spans.SelfNs(total.name)));
    table.Key("share");
    table.Num(Seconds(spans.SelfNs(total.name)) / traced_thread_s);
    table.Key("p50_us");
    table.Num(total.hist.QuantileNs(0.50) / 1e3);
    table.Key("p99_us");
    table.Num(total.hist.QuantileNs(0.99) / 1e3);
    table.Close('}');
  }
  table.Close(']');

  if (!spans.WriteChromeTrace(args.trace_path, origin)) {
    outcome.problems.push_back("cannot write " + args.trace_path);
  }
  PrintResult(args, "trace", outcome, metrics, ", " + table.str());
  return outcome.failed == 0 && outcome.problems.empty() ? 0 : 1;
}

/// The harness self-checks: a traced pass gives the same outcomes as an
/// untraced one, and the benchmark's timed Poll hook the same as the
/// arbiter's own.
int RunCheck(const Args& args, Workload& workload) {
  Outcome outcome;
  workload.Setup();
  const PassResult untraced = workload.Pass(nullptr);
  outcome.Add(untraced);
  if (workload.SetupPerPass()) workload.Setup();
  SpanLog spans;
  outcome.Compare(workload.Pass(&spans), untraced.values, "a traced pass");

  WorkloadOptions builtin = args.options;
  builtin.builtin_poll_hook = true;
  std::unique_ptr<Workload> reference =
      MakeWorkload(args.workload, args.seed, builtin);
  reference->Setup();
  outcome.Compare(reference->Pass(nullptr), untraced.values,
                  "a second instance's pass (arbiters on their own hook)");

  Json metrics;
  metrics.Open('{');
  metrics.Close('}');
  PrintResult(args, "check", outcome, metrics, "");
  return outcome.failed == 0 && outcome.problems.empty() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--check") {
      args->check = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds >= 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      args->trace_path = value;
    } else if (flag == "--golden") {
      args->options.golden_path = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !(args->check && !args->trace_path.empty());
}

}  // namespace
}  // namespace elasticore_bench

int main(int argc, char** argv) {
  using namespace elasticore_bench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: elasticore_bench --workload W [--seed S] "
                 "[--seconds T] [--golden FILE] [--trace FILE | --check]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.options);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.check) return RunCheck(args, *workload);
  if (!args.trace_path.empty()) return RunTraced(args, *workload);
  return RunUntraced(args, *workload);
}
