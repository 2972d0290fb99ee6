// Figure 14: memory access metrics with 256 clients running thetasubselect:
// (a) L3 load misses per socket, (b) memory throughput per socket,
// (c) HT traffic.

#include "bench/bench_common.h"

namespace elastic::bench {
namespace {

void Main() {
  const db::PlanTrace theta = ThetaTrace(0.45);
  const int kUsers = kBenchClients;
  const int kRounds = 4;

  metrics::Table misses({"mode", "S0", "S1", "S2", "S3", "total (10^6)"});
  metrics::Table throughput({"mode", "S0 GB/s", "S1 GB/s", "S2 GB/s", "S3 GB/s"});
  metrics::Table ht({"mode", "HT traffic GB/s"});

  for (const std::string& policy : Policies()) {
    exec::ExperimentOptions options = PolicyOptions(policy);
    const RunResult run = RunFixedWorkload(options, theta, kUsers, kRounds,
                                           kBenchThinkTicks, kBenchRampTicks);
    const std::string label = PolicyLabel(policy);

    std::vector<std::string> miss_row = {label};
    for (int node = 0; node < 4; ++node) {
      miss_row.push_back(metrics::Table::Num(
          static_cast<double>(run.window.l3_misses(node)) / 1e6, 3));
    }
    miss_row.push_back(metrics::Table::Num(
        static_cast<double>(run.window.TotalL3Misses()) / 1e6, 3));
    misses.AddRow(miss_row);

    std::vector<std::string> tp_row = {label};
    for (int node = 0; node < 4; ++node) {
      tp_row.push_back(
          metrics::Table::Num(run.window.ImcBytesPerSecond(node) / 1e9, 3));
    }
    throughput.AddRow(tp_row);

    ht.AddRow({label,
               metrics::Table::Num(run.window.HtBytesPerSecond() / 1e9, 3)});
  }

  misses.Print("Fig 14(a) L3 load misses per socket (10^6), concurrent thetasubselect");
  throughput.Print("Fig 14(b) memory throughput per socket (GB/s)");
  ht.Print("Fig 14(c) HT traffic (GB/s)");
  std::printf(
      "\nExpected shape (paper): the OS scheduler has the most L3 misses and "
      "the highest HT traffic;\nadaptive cuts misses (~43%%) and exploits the "
      "sockets' aggregate bandwidth; dense leaves the last\nsocket underused; "
      "sparse moves more data across the interconnect than dense/adaptive.\n");
}

}  // namespace
}  // namespace elastic::bench

int main() {
  elastic::bench::Main();
  return 0;
}
