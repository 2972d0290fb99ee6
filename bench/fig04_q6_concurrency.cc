// Figure 4: TPC-H Q6 with an increasing number of concurrent clients.
// Series: Dense/C, Sparse/C, OS/C (hand-coded pthread kernel) and
// OS/MonetDB (Volcano engine under plain OS scheduling).
// Metrics: (a) throughput, (b) minor page faults/s, (c) HT traffic MB/s.

#include "bench/bench_common.h"
#include "exec/raw_kernel.h"

namespace elastic::bench {
namespace {

const std::vector<std::string> kQ6Columns = {
    "lineitem.l_shipdate", "lineitem.l_discount", "lineitem.l_quantity",
    "lineitem.l_extendedprice"};

struct SeriesPoint {
  double throughput = 0.0;
  double faults_per_s = 0.0;
  double ht_mb_per_s = 0.0;
};

/// Runs `total` fused C-kernel queries with `users` in flight.
SeriesPoint RunRawKernel(exec::RawAffinity affinity, int users, int total) {
  ossim::MachineOptions machine_options;
  machine_options.seed = kBenchSeed;
  ossim::Machine machine(machine_options);
  exec::BaseCatalog catalog(&machine.page_table(), BenchDb(),
                            exec::BasePlacement::kAllOnNode0, 4096);
  exec::RawKernelOptions kernel;
  kernel.threads = 16;
  exec::RawKernelEngine engine(&machine, &catalog, kernel);
  perf::Sampler sampler(&machine.counters(), &machine.clock());

  int submitted = 0;
  std::function<void()> next = [&] {
    if (submitted < total) {
      submitted++;
      engine.Submit(kQ6Columns, 5, affinity, next);
    }
  };
  for (int i = 0; i < users && submitted < total; ++i) next();
  int64_t guard = 0;
  while (engine.completed_queries() < total && guard++ < 5'000'000) {
    machine.Step();
  }
  const perf::WindowStats window = sampler.Sample();
  SeriesPoint point;
  point.throughput = static_cast<double>(total) / window.seconds();
  point.faults_per_s =
      static_cast<double>(window.minor_faults()) / window.seconds();
  point.ht_mb_per_s = window.HtBytesPerSecond() / 1e6;
  return point;
}

SeriesPoint RunMonetDb(int users, int total) {
  exec::ExperimentOptions options = PolicyOptions("os");
  const int rounds = std::max(1, total / users);
  const RunResult run = RunFixedWorkload(options, QueryTrace(6), users, rounds);
  SeriesPoint point;
  point.throughput = run.throughput_qps;
  point.faults_per_s =
      static_cast<double>(run.window.minor_faults()) / run.window.seconds();
  point.ht_mb_per_s = run.window.HtBytesPerSecond() / 1e6;
  return point;
}

void Main() {
  const std::vector<int> kUsers = {1, 4, 16, 64, 256};
  const int kTotal = 128;  // queries per data point

  struct Series {
    std::string name;
    std::vector<SeriesPoint> points;
  };
  std::vector<Series> series;
  series.push_back({"Dense/C", {}});
  series.push_back({"Sparse/C", {}});
  series.push_back({"OS/C", {}});
  series.push_back({"OS/MonetDB", {}});

  for (int users : kUsers) {
    series[0].points.push_back(
        RunRawKernel(exec::RawAffinity::kDense, users, kTotal));
    series[1].points.push_back(
        RunRawKernel(exec::RawAffinity::kSparse, users, kTotal));
    series[2].points.push_back(
        RunRawKernel(exec::RawAffinity::kOsDefault, users, kTotal));
    series[3].points.push_back(RunMonetDb(users, kTotal));
  }

  for (const auto& [title, extract] :
       std::vector<std::pair<std::string,
                             std::function<double(const SeriesPoint&)>>>{
           {"Fig 4(a) Q6 throughput (queries/s, simulated)",
            [](const SeriesPoint& p) { return p.throughput; }},
           {"Fig 4(b) minor page faults per second",
            [](const SeriesPoint& p) { return p.faults_per_s; }},
           {"Fig 4(c) HT traffic (MB/s)",
            [](const SeriesPoint& p) { return p.ht_mb_per_s; }}}) {
    metrics::Table table({"users", "Dense/C", "Sparse/C", "OS/C", "OS/MonetDB"});
    for (size_t u = 0; u < kUsers.size(); ++u) {
      table.AddRow({metrics::Table::Int(kUsers[u]),
                    metrics::Table::Num(extract(series[0].points[u]), 1),
                    metrics::Table::Num(extract(series[1].points[u]), 1),
                    metrics::Table::Num(extract(series[2].points[u]), 1),
                    metrics::Table::Num(extract(series[3].points[u]), 1)});
    }
    table.Print(title);
  }
  std::printf(
      "\nExpected shape (paper): HT traffic rises with concurrency; the DBMS "
      "uses the interconnect far more\nthan the hand-coded C kernel; dense "
      "affinity keeps the C kernel almost entirely off the interconnect.\n");
}

}  // namespace
}  // namespace elastic::bench

int main() {
  elastic::bench::Main();
  return 0;
}
