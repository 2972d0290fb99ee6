#include "platform/linux_platform.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <utility>

#include "simcore/check.h"

namespace elastic::platform {

namespace {

/// Reads a whole small file; empty string when unreadable.
std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string FirstLine(const std::string& text) {
  const size_t nl = text.find('\n');
  return nl == std::string::npos ? text : text.substr(0, nl);
}

/// Number of CPUs a cpulist ("0-3,8") names; -1 on a parse error or once
/// the count passes CpuMask::kMaxCores (no node that large fits a mask, and
/// the bound keeps the count and the caller's node x core product from
/// overflowing). Counts without building a CpuMask so ids past the mask
/// bound do not trip it during discovery.
int CountCpuList(const std::string& list) {
  int count = 0;
  const char* p = list.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const long first = std::strtol(p, &end, 10);
    if (end == p || first < 0) return -1;
    long last = first;
    p = end;
    if (*p == '-') {
      last = std::strtol(p + 1, &end, 10);
      if (end == p + 1 || last < first) return -1;
      p = end;
    }
    if (last - first >= CpuMask::kMaxCores - count) return -1;
    count += static_cast<int>(last - first + 1);
    if (*p == ',') p++;
    else if (*p != '\0') return -1;
  }
  return count;
}

/// Discovers the NUMA layout from sysfs: one node per
/// /sys/devices/system/node/node<i> directory, cores from its cpulist.
/// Falls back to one flat node of min(online, CpuMask::kMaxCores) CPUs when
/// the node tree is absent (non-NUMA machines, containers without sysfs),
/// nodes are heterogeneous, or the grid exceeds the mask bound.
numasim::MachineConfig DiscoverTopology(const LinuxPlatformOptions& options) {
  numasim::MachineConfig config;
  int nodes = 0;
  int cores = 0;
  for (int node = 0; node < CpuMask::kMaxCores; ++node) {
    const std::string cpulist = FirstLine(ReadFileOrEmpty(
        options.sysfs_node_root + "/node" + std::to_string(node) +
        "/cpulist"));
    if (cpulist.empty()) break;
    const int count = CountCpuList(cpulist);
    if (count < 1) {
      nodes = 0;
      break;
    }
    if (nodes == 0) {
      cores = count;
    } else if (count != cores) {
      // Heterogeneous nodes do not fit the uniform core grid the allocation
      // modes index by; treat the machine as one flat node.
      nodes = 0;
      break;
    }
    nodes++;
  }
  if (nodes >= 1 && cores >= 1 && nodes * cores <= CpuMask::kMaxCores) {
    config.num_nodes = nodes;
    config.cores_per_node = cores;
    return config;
  }
  long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (online < 1) online = 1;
  if (online > CpuMask::kMaxCores) online = CpuMask::kMaxCores;
  config.num_nodes = 1;
  config.cores_per_node = static_cast<int>(online);
  return config;
}

/// Deterministic zero-utilization source for dry runs: every Sample() is
/// the platform's one idle window.
class ZeroSampler : public perf::UtilizationSampler {
 public:
  explicit ZeroSampler(perf::WindowStats idle) : idle_(std::move(idle)) {}

  perf::WindowStats Sample() override { return idle_; }
  void Reset() override {}

 private:
  perf::WindowStats idle_;
};

/// Writes each CPU's busy jiffies from <proc_root>/stat into `busy`, one
/// entry per CPU: everything but idle and iowait. CPUs past busy.size()
/// are ignored.
void ReadBusyJiffies(const std::string& proc_root, std::vector<int64_t>& busy) {
  const int cores = static_cast<int>(busy.size());
  std::ifstream in(proc_root + "/stat");
  std::string line;
  while (std::getline(in, line)) {
    // Per-cpu lines only: the aggregate "cpu  ..." line would otherwise
    // match too (%d skips the whitespace) and field-shift its totals into
    // a bogus per-cpu entry.
    if (line.size() < 4 || line.compare(0, 3, "cpu") != 0 || line[3] < '0' ||
        line[3] > '9') {
      continue;
    }
    int cpu = -1;
    long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0;
    long long irq = 0, softirq = 0, steal = 0;
    if (std::sscanf(line.c_str(),
                    "cpu%d %lld %lld %lld %lld %lld %lld %lld %lld", &cpu,
                    &user, &nice, &system, &idle, &iowait, &irq, &softirq,
                    &steal) >= 5 &&
        cpu >= 0 && cpu < cores) {
      busy[static_cast<size_t>(cpu)] =
          user + nice + system + irq + softirq + steal;
    }
  }
}

}  // namespace

LinuxPlatform::LinuxPlatform(const LinuxPlatformOptions& options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {
  ELASTIC_CHECK(options_.seconds_per_tick > 0.0,
                "seconds_per_tick must be positive");
  numasim::MachineConfig config;
  if (options_.num_nodes > 0 && options_.cores_per_node > 0) {
    config.num_nodes = options_.num_nodes;
    config.cores_per_node = options_.cores_per_node;
  } else {
    config = DiscoverTopology(options_);
  }
  ELASTIC_CHECK(config.total_cores() <= CpuMask::kMaxCores,
                "mask supports up to CpuMask::kMaxCores cores");
  topology_ = std::make_unique<numasim::Topology>(config);
  const long tck = sysconf(_SC_CLK_TCK);
  if (tck > 0) clk_tck_ = tck;
  if (options_.dry_run) {
    // A synthetic one-tick window, regardless of wall time: a dry run must
    // read as a valid (idle) measurement, not as a zero-width dropout the
    // degraded-telemetry policy would hold on.
    auto start = std::make_shared<perf::CounterSnapshot>(
        topology_->num_nodes(), topology_->total_cores());
    start->seconds_per_tick = options_.seconds_per_tick;
    auto end = std::make_shared<perf::CounterSnapshot>(*start);
    end->tick = 1;
    idle_window_ = perf::WindowStats(std::move(start), std::move(end));
  } else {
    busy_ = std::make_shared<perf::TickReading>(
        [this] { return Now(); },
        [this](simcore::Tick tick) { return ReadBusySnapshot(tick); });
  }
}

simcore::Tick LinuxPlatform::Now() const {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - epoch_;
  return static_cast<simcore::Tick>(elapsed.count() /
                                    options_.seconds_per_tick);
}

int64_t LinuxPlatform::cycles_per_tick() const {
  // Jiffies one core accrues per platform tick: the capacity denominator of
  // WindowStats::CpuLoadPercent against /proc/stat busy jiffies.
  const int64_t cycles = static_cast<int64_t>(
      static_cast<double>(clk_tck_) * options_.seconds_per_tick);
  return cycles > 0 ? cycles : 1;
}

void LinuxPlatform::RecordOp(std::string op) {
  // Bound the audit trail: a run-forever daemon whose masks move most
  // rounds would otherwise accumulate strings without limit. The front
  // half is dropped in one batch; recent history is what an operator
  // inspects anyway.
  if (op_log_.size() >= kMaxOpLog) {
    op_log_.erase(op_log_.begin(),
                  op_log_.begin() + static_cast<long>(kMaxOpLog / 2));
  }
  op_log_.push_back(std::move(op));
}

void LinuxPlatform::RecordFailure(const std::string& what, int err) {
  RecordOp("fail " + what + ": " + std::strerror(err) + " (errno " +
           std::to_string(err) + ")");
  // The failure trace is bounded like the op log: a daemon whose writes
  // keep failing would otherwise grow it for as long as it runs.
  if (trace_.size() >= kMaxOpLog) trace_.DropOldest(kMaxOpLog / 2);
  trace_.Add(Now(), "platform_error", 0, err, what);
}

void LinuxPlatform::OpMkdir(const std::string& dir) {
  RecordOp("mkdir " + dir);
  if (options_.dry_run) return;
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    RecordFailure("mkdir " + dir, errno);
  }
}

bool LinuxPlatform::OpWrite(const std::string& file, const std::string& value) {
  RecordOp("write " + file + " = " + value);
  if (options_.dry_run) return true;
  // Raw open/write for a truthful errno: iostream failure states do not
  // preserve which syscall failed or why, and the audit trail needs both.
  const int fd = open(file.c_str(), O_WRONLY | O_TRUNC);
  if (fd < 0) {
    RecordFailure("write " + file, errno);
    return false;
  }
  const ssize_t written = write(fd, value.data(), value.size());
  const int write_err = written < 0 ? errno : 0;
  close(fd);
  if (written != static_cast<ssize_t>(value.size())) {
    RecordFailure("write " + file, write_err != 0 ? write_err : EIO);
    return false;
  }
  return true;
}

void LinuxPlatform::EnsureParent() {
  if (parent_ready_) return;
  parent_ready_ = true;
  const std::string parent_dir = options_.cgroup_root + "/" + options_.parent;
  OpMkdir(parent_dir);
  // Delegate the cpuset controller down to the tenant groups (cgroup-v2
  // "no internal processes" rule: controllers are enabled on the parents).
  OpWrite(options_.cgroup_root + "/cgroup.subtree_control", "+cpuset");
  OpWrite(parent_dir + "/cgroup.subtree_control", "+cpuset");
}

std::string LinuxPlatform::CpusetDirName(const std::string& name) const {
  std::string dir;
  for (char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    dir += safe ? c : '_';
  }
  if (dir.empty()) dir = "cpuset";
  const std::string parent_dir =
      options_.cgroup_root + "/" + options_.parent + "/";
  const auto taken = [&](const std::string& candidate) {
    for (const Cpuset& existing : cpusets_) {
      if (existing.path == parent_dir + candidate) return true;
    }
    return false;
  };
  std::string candidate = dir;
  for (int suffix = 1; taken(candidate); ++suffix) {
    candidate = dir + "-" + std::to_string(suffix);
  }
  return candidate;
}

CpusetId LinuxPlatform::CreateCpuset(const std::string& name,
                                     const CpuMask& mask) {
  EnsureParent();
  Cpuset cpuset;
  cpuset.path = options_.cgroup_root + "/" + options_.parent + "/" +
                CpusetDirName(name);
  cpuset.mask = mask;
  OpMkdir(cpuset.path);
  cpuset.synced = OpWrite(cpuset.path + "/cpuset.cpus", mask.ToCpuList());
  cpusets_.push_back(cpuset);
  return static_cast<CpusetId>(cpusets_.size()) - 1;
}

bool LinuxPlatform::SetCpusetMask(CpusetId cpuset, const CpuMask& mask) {
  ELASTIC_CHECK(cpuset >= 0 && cpuset < static_cast<int>(cpusets_.size()),
                "unknown cpuset");
  Cpuset& entry = cpusets_[static_cast<size_t>(cpuset)];
  // The arbiter re-installs every tenant mask each round; only changed
  // masks are worth a syscall (and an audit line) — unless the last write
  // failed, in which case the mask is not actually on disk and every round
  // is a retry until it lands.
  if (entry.synced && entry.mask == mask) return true;
  entry.mask = mask;
  entry.synced = OpWrite(entry.path + "/cpuset.cpus", mask.ToCpuList());
  return entry.synced;
}

CpuMask LinuxPlatform::cpuset_mask(CpusetId cpuset) const {
  ELASTIC_CHECK(cpuset >= 0 && cpuset < static_cast<int>(cpusets_.size()),
                "unknown cpuset");
  return cpusets_[static_cast<size_t>(cpuset)].mask;
}

std::unique_ptr<perf::UtilizationSampler> LinuxPlatform::CreateSampler() {
  if (options_.dry_run) return std::make_unique<ZeroSampler>(idle_window_);
  return std::make_unique<perf::Sampler>(busy_);
}

/// Per-cpu busy jiffies land in core_busy_cycles, the real-hardware
/// equivalent of the simulator's cycle counters. The other counter groups
/// have no cheap unprivileged source and stay zero: the kCpuLoad strategy
/// (the paper's default on real hardware) never reads them.
std::shared_ptr<const perf::CounterSnapshot> LinuxPlatform::ReadBusySnapshot(
    simcore::Tick tick) const {
  auto snapshot = std::make_shared<perf::CounterSnapshot>(
      topology_->num_nodes(), topology_->total_cores());
  snapshot->tick = tick;
  snapshot->seconds_per_tick = options_.seconds_per_tick;
  ReadBusyJiffies(options_.proc_root, snapshot->core_busy_cycles);
  return snapshot;
}

void LinuxPlatform::AddTickHook(std::function<void(simcore::Tick)> hook) {
  hooks_.push_back(std::move(hook));
}

void LinuxPlatform::FireTickHooks(simcore::Tick now) {
  for (const auto& hook : hooks_) hook(now);
}

bool LinuxPlatform::AttachPid(CpusetId cpuset, long pid) {
  ELASTIC_CHECK(cpuset >= 0 && cpuset < static_cast<int>(cpusets_.size()),
                "unknown cpuset");
  const std::string file =
      cpusets_[static_cast<size_t>(cpuset)].path + "/cgroup.procs";
  return OpWrite(file, std::to_string(pid));
}

const std::string& LinuxPlatform::cpuset_path(CpusetId cpuset) const {
  ELASTIC_CHECK(cpuset >= 0 && cpuset < static_cast<int>(cpusets_.size()),
                "unknown cpuset");
  return cpusets_[static_cast<size_t>(cpuset)].path;
}

}  // namespace elastic::platform
