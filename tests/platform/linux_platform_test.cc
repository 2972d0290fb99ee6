// LinuxPlatform dry-run tests: no privileges, no filesystem writes — the
// backend records the exact cgroup-v2 operation sequence it would perform,
// and the tests pin that sequence down. This is what CI runs; a live
// deployment performs the same ops for real (docs/DEPLOY.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/arbiter.h"
#include "platform/linux_platform.h"
#include "simcore/rng.h"

namespace elastic::platform {
namespace {

LinuxPlatformOptions DryRunOptions(int nodes = 2, int cores_per_node = 4) {
  LinuxPlatformOptions options;
  options.dry_run = true;
  options.num_nodes = nodes;
  options.cores_per_node = cores_per_node;
  return options;
}

TEST(CpuListTest, FormatsContiguousAndScatteredMasks) {
  EXPECT_EQ(CpuMask::None().ToCpuList(), "");
  EXPECT_EQ(CpuMask::Of({3}).ToCpuList(), "3");
  EXPECT_EQ(CpuMask::FirstN(4).ToCpuList(), "0-3");
  EXPECT_EQ(CpuMask::Of({0, 1, 4, 6, 7, 8}).ToCpuList(), "0-1,4,6-8");
}

TEST(CpuListTest, ParseRoundTrips) {
  for (const std::string& list : {"0-3", "5", "0-1,4,6-8", "0,2,4,63"}) {
    EXPECT_EQ(CpuMask::FromCpuList(list).ToCpuList(), list);
  }
  EXPECT_EQ(CpuMask::FromCpuList(""), CpuMask::None());
}

TEST(CpuListTest, TryFromCpuListRejectsMalformedInput) {
  // The fallible parser turns corrupt sysfs/cgroupfs content into nullopt
  // instead of aborting the daemon.
  for (const std::string& bad :
       {"x", "0-", "-3", "3-1", "0;2", "1024", "0-1024", "1,,2", "0-1-2"}) {
    EXPECT_FALSE(CpuMask::TryFromCpuList(bad).has_value()) << bad;
  }
  ASSERT_TRUE(CpuMask::TryFromCpuList("0-1,63").has_value());
  EXPECT_EQ(*CpuMask::TryFromCpuList("0-1,63"), CpuMask::Of({0, 1, 63}));
  // Cores past the historical 64-core bound parse since the mask widened.
  ASSERT_TRUE(CpuMask::TryFromCpuList("64,100-102,1023").has_value());
  EXPECT_EQ(*CpuMask::TryFromCpuList("64,100-102,1023"),
            CpuMask::Of({64, 100, 101, 102, 1023}));
}

// ---- Seeded property tests of the cpulist parser: every case is a fixed
// seed, so a failure names the seed that reproduces it. ----

/// A random mask over the whole kMaxCores range: alternating set and unset
/// runs of 1..max_run cores, with max_run itself drawn from 1..kMaxCores so
/// that lists range from scattered single ids to one long range (or none).
CpuMask RandomMask(simcore::Rng& rng) {
  CpuMask mask;
  const int max_run = 1 << rng.NextInRange(0, 10);
  bool set = rng.NextBernoulli(0.5);
  for (int core = 0; core < CpuMask::kMaxCores; set = !set) {
    const int run = static_cast<int>(rng.NextInRange(1, max_run));
    const int end = std::min(core + run, CpuMask::kMaxCores);
    for (; core < end; ++core) {
      if (set) mask.Set(core);
    }
  }
  return mask;
}

TEST(CpuListPropertyTest, RandomMasksRoundTrip) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    simcore::Rng rng(seed);
    const CpuMask mask = RandomMask(rng);
    const std::string list = mask.ToCpuList();
    const std::optional<CpuMask> parsed = CpuMask::TryFromCpuList(list);
    ASSERT_TRUE(parsed.has_value()) << list;
    EXPECT_EQ(*parsed, mask) << list;
    EXPECT_EQ(parsed->ToCpuList(), list);
  }
}

TEST(CpuListPropertyTest, ByteEditsParseToNothingOrToARoundTrippingMask) {
  // Edits lean on the bytes a cpulist is made of, so most edited lists
  // stay plausible; the rest are arbitrary bytes, NUL included.
  const std::string alphabet = "0123456789,-";
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    simcore::Rng rng(seed);
    std::string list = RandomMask(rng).ToCpuList();
    const int edits = static_cast<int>(rng.NextInRange(1, 3));
    for (int e = 0; e < edits; ++e) {
      const char byte =
          rng.NextBernoulli(0.8)
              ? alphabet[rng.NextBounded(alphabet.size())]
              : static_cast<char>(rng.NextBounded(256));
      const size_t at = rng.NextBounded(list.size() + 1);
      switch (rng.NextBounded(3)) {
        case 0:  // insert
          list.insert(at, 1, byte);
          break;
        case 1:  // replace
          if (at < list.size()) list[at] = byte;
          break;
        default:  // delete
          if (at < list.size()) list.erase(at, 1);
          break;
      }
    }
    const std::optional<CpuMask> parsed = CpuMask::TryFromCpuList(list);
    if (!parsed.has_value()) continue;
    const std::optional<CpuMask> again =
        CpuMask::TryFromCpuList(parsed->ToCpuList());
    ASSERT_TRUE(again.has_value()) << list;
    EXPECT_EQ(*again, *parsed) << list;
  }
}

TEST(LinuxPlatformTest, TopologyOverrideSkipsDiscovery) {
  LinuxPlatform platform(DryRunOptions(4, 2));
  EXPECT_EQ(platform.topology().num_nodes(), 4);
  EXPECT_EQ(platform.topology().total_cores(), 8);
}

// Past the historical 64-CPU bound: a sysfs node tree of 4 nodes x 32 CPUs
// is discovered as that grid, and a dry-run Install hands the third and
// fourth tenants cpusets beyond CPU 63.
TEST(LinuxPlatformTest, DiscoversAndManagesMoreThan64Cpus) {
  std::string root = ::testing::TempDir() + "elasticore-sysfs-XXXXXX";
  ASSERT_NE(mkdtemp(root.data()), nullptr);
  for (int node = 0; node < 4; ++node) {
    const std::string dir = root + "/node" + std::to_string(node);
    std::filesystem::create_directory(dir);
    std::ofstream(dir + "/cpulist")
        << node * 32 << "-" << node * 32 + 31 << "\n";
  }
  LinuxPlatformOptions options;
  options.dry_run = true;
  options.sysfs_node_root = root;
  LinuxPlatform platform(options);
  std::filesystem::remove_all(root);
  EXPECT_EQ(platform.topology().num_nodes(), 4);
  EXPECT_EQ(platform.topology().total_cores(), 128);

  core::ArbiterConfig config;
  config.register_tick_hook = false;
  core::CoreArbiter arbiter(&platform, config);
  for (int t = 0; t < 4; ++t) {
    core::ArbiterTenantConfig tenant;
    tenant.name = "t" + std::to_string(t);
    tenant.mode = "dense";
    tenant.mechanism.initial_cores = 2;
    arbiter.AddTenant(tenant);
  }
  arbiter.Install();
  // Each fresh tenant takes the emptiest node.
  const std::vector<std::string> installs(platform.op_log().end() - 4,
                                          platform.op_log().end());
  const std::vector<std::string> expected = {
      "write /sys/fs/cgroup/elasticore/t0/cpuset.cpus = 0-1",
      "write /sys/fs/cgroup/elasticore/t1/cpuset.cpus = 32-33",
      "write /sys/fs/cgroup/elasticore/t2/cpuset.cpus = 64-65",
      "write /sys/fs/cgroup/elasticore/t3/cpuset.cpus = 96-97",
  };
  EXPECT_EQ(installs, expected);
}

// ---- Seeded property tests of sysfs discovery: each case writes a temp
// node tree and builds a dry-run platform over it, as
// DiscoversAndManagesMoreThan64Cpus does. ----

/// The {nodes, total cores} a dry-run platform discovers from a temp sysfs
/// node tree holding cpulists[i] as node<i>/cpulist.
std::pair<int, int> DiscoverFromCpulists(
    const std::vector<std::string>& cpulists) {
  std::string root = ::testing::TempDir() + "elasticore-sysfs-XXXXXX";
  if (mkdtemp(root.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp: " << std::strerror(errno);
    return {0, 0};
  }
  for (size_t node = 0; node < cpulists.size(); ++node) {
    const std::string dir = root + "/node" + std::to_string(node);
    std::filesystem::create_directory(dir);
    std::ofstream(dir + "/cpulist") << cpulists[node] << "\n";
  }
  LinuxPlatformOptions options;
  options.dry_run = true;
  options.sysfs_node_root = root;
  LinuxPlatform platform(options);
  std::filesystem::remove_all(root);
  return {platform.topology().num_nodes(), platform.topology().total_cores()};
}

TEST(SysfsDiscoveryPropertyTest, UniformLayoutsAreDiscoveredExactly) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    simcore::Rng rng(seed);
    const int nodes = static_cast<int>(rng.NextInRange(1, 16));
    const int cores =
        static_cast<int>(rng.NextInRange(1, CpuMask::kMaxCores / nodes));
    // Deal the CPU ids out to the nodes in a random order, so a node's
    // list is one range or many, the way SMT siblings interleave.
    std::vector<int> ids(static_cast<size_t>(nodes * cores));
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.NextBounded(i)]);
    }
    std::vector<std::string> cpulists;
    for (int node = 0; node < nodes; ++node) {
      CpuMask mask;
      for (int c = 0; c < cores; ++c) {
        mask.Set(ids[static_cast<size_t>(node * cores + c)]);
      }
      cpulists.push_back(mask.ToCpuList());
    }
    EXPECT_EQ(DiscoverFromCpulists(cpulists),
              std::make_pair(nodes, nodes * cores));
  }
}

TEST(SysfsDiscoveryPropertyTest, OversizedOrUnevenLayoutsFallBackToOneNode) {
  // Counts past the mask bound, fixed: per-node counts that overflowed an
  // int count, and a node x core product that did.
  std::vector<std::vector<std::string>> layouts = {
      {"0-2147483646,0-1"},
      {"0-1073741823", "0-1073741823"},
      {"0-9223372036854775806"},
      {"0-1024"},
  };
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    simcore::Rng rng(seed);
    const int nodes = static_cast<int>(rng.NextInRange(2, 8));
    std::vector<std::string> cpulists;
    if (seed % 2 == 0) {
      // Oversized: each node fits a mask, the grid does not.
      const int cores = static_cast<int>(
          rng.NextInRange(CpuMask::kMaxCores / nodes + 1, CpuMask::kMaxCores));
      for (int node = 0; node < nodes; ++node) {
        cpulists.push_back(std::to_string(node * cores) + "-" +
                           std::to_string(node * cores + cores - 1));
      }
    } else {
      // Uneven: one node holds a different count from the others.
      const int cores = static_cast<int>(rng.NextInRange(1, 64));
      const int odd = static_cast<int>(rng.NextInRange(0, nodes - 1));
      int next = 0;
      for (int node = 0; node < nodes; ++node) {
        int count = cores;
        if (node == odd) {
          const bool fewer = cores > 1 && rng.NextBernoulli(0.5);
          count = fewer ? static_cast<int>(rng.NextInRange(1, cores - 1))
                        : cores + static_cast<int>(rng.NextInRange(1, 64));
        }
        cpulists.push_back(std::to_string(next) + "-" +
                           std::to_string(next + count - 1));
        next += count;
      }
    }
    layouts.push_back(std::move(cpulists));
  }
  for (size_t i = 0; i < layouts.size(); ++i) {
    SCOPED_TRACE("layout " + std::to_string(i) + ": " + layouts[i][0] +
                 " ... (" + std::to_string(layouts[i].size()) + " nodes)");
    const auto [nodes, total] = DiscoverFromCpulists(layouts[i]);
    EXPECT_EQ(nodes, 1);
    EXPECT_GE(total, 1);
    EXPECT_LE(total, CpuMask::kMaxCores);
  }
}

TEST(LinuxPlatformTest, CreateCpusetEmitsParentSetupThenGroupWrites) {
  LinuxPlatform platform(DryRunOptions());
  const CpusetId cpuset = platform.CreateCpuset("oltp", CpuMask::FirstN(2));
  const std::vector<std::string> expected = {
      "mkdir /sys/fs/cgroup/elasticore",
      "write /sys/fs/cgroup/cgroup.subtree_control = +cpuset",
      "write /sys/fs/cgroup/elasticore/cgroup.subtree_control = +cpuset",
      "mkdir /sys/fs/cgroup/elasticore/oltp",
      "write /sys/fs/cgroup/elasticore/oltp/cpuset.cpus = 0-1",
  };
  EXPECT_EQ(platform.op_log(), expected);
  EXPECT_EQ(platform.cpuset_mask(cpuset), CpuMask::FirstN(2));
  EXPECT_EQ(platform.cpuset_path(cpuset), "/sys/fs/cgroup/elasticore/oltp");
}

TEST(LinuxPlatformTest, SetCpusetMaskWritesOnlyOnChange) {
  LinuxPlatform platform(DryRunOptions());
  const CpusetId cpuset = platform.CreateCpuset("t", CpuMask::FirstN(4));
  const size_t baseline = platform.op_log().size();

  platform.SetCpusetMask(cpuset, CpuMask::FirstN(4));  // unchanged: no write
  EXPECT_EQ(platform.op_log().size(), baseline);

  platform.SetCpusetMask(cpuset, CpuMask::Of({0, 1, 4}));
  ASSERT_EQ(platform.op_log().size(), baseline + 1);
  EXPECT_EQ(platform.op_log().back(),
            "write /sys/fs/cgroup/elasticore/t/cpuset.cpus = 0-1,4");
}

TEST(LinuxPlatformTest, SanitisesAndUniquifiesCgroupNames) {
  LinuxPlatform platform(DryRunOptions());
  const CpusetId first = platform.CreateCpuset("my tenant/1", CpuMask::FirstN(1));
  const CpusetId second = platform.CreateCpuset("my tenant/1", CpuMask::FirstN(1));
  EXPECT_EQ(platform.cpuset_path(first), "/sys/fs/cgroup/elasticore/my_tenant_1");
  EXPECT_EQ(platform.cpuset_path(second),
            "/sys/fs/cgroup/elasticore/my_tenant_1-1");
}

TEST(LinuxPlatformTest, UniquificationNeverReusesASuffixedName) {
  // Regression: the suffix probe must re-check the suffixed candidate
  // against every existing group, or "a-1"/"a"/"a" collapses the third
  // tenant into the first one's cgroup.
  LinuxPlatform platform(DryRunOptions());
  platform.CreateCpuset("a-1", CpuMask::FirstN(1));
  platform.CreateCpuset("a", CpuMask::FirstN(1));
  const CpusetId third = platform.CreateCpuset("a", CpuMask::FirstN(1));
  EXPECT_EQ(platform.cpuset_path(third), "/sys/fs/cgroup/elasticore/a-2");
}

TEST(LinuxPlatformTest, FailedLiveWriteIsRetriedNotSuppressed) {
  // Live mode against a nonexistent root: every write fails. The
  // redundant-write suppression must not treat the intended (but unwritten)
  // mask as installed, or a transient cgroup write failure would never be
  // retried and the real cpuset would diverge from the arbiter's belief
  // forever.
  LinuxPlatformOptions options = DryRunOptions();
  options.dry_run = false;
  options.cgroup_root = "/nonexistent-elasticore-test";
  LinuxPlatform platform(options);
  const CpusetId cpuset = platform.CreateCpuset("t", CpuMask::FirstN(4));
  const size_t baseline = platform.op_log().size();

  // Each failed write leaves two audit lines: the attempt and a "fail"
  // record carrying strerror + errno (here ENOENT — the root is missing).
  EXPECT_FALSE(platform.SetCpusetMask(cpuset, CpuMask::FirstN(2)));
  ASSERT_EQ(platform.op_log().size(), baseline + 2);
  EXPECT_EQ(platform.op_log()[baseline],
            "write /nonexistent-elasticore-test/elasticore/t/cpuset.cpus = 0-1");
  EXPECT_EQ(platform.op_log()[baseline + 1],
            "fail write /nonexistent-elasticore-test/elasticore/t/cpuset.cpus: " +
                std::string(std::strerror(ENOENT)) + " (errno " +
                std::to_string(ENOENT) + ")");
  // The failure also lands in the trace sink for offline diagnosis.
  ASSERT_FALSE(platform.trace()->events().empty());
  EXPECT_EQ(platform.trace()->events().back().kind, "platform_error");
  EXPECT_EQ(platform.trace()->events().back().b, ENOENT);
  // Same mask again: the previous write failed, so it is attempted again.
  EXPECT_FALSE(platform.SetCpusetMask(cpuset, CpuMask::FirstN(2)));
  EXPECT_EQ(platform.op_log().size(), baseline + 4);
}

TEST(LinuxPlatformTest, FailureTraceIsBoundedLikeTheOpLog) {
  // A live daemon whose cgroup writes keep failing: more than kMaxOpLog
  // failed writes (alternating masks, so each one is attempted) must leave
  // at most kMaxOpLog platform_error events, the latest failure last.
  LinuxPlatformOptions options = DryRunOptions();
  options.dry_run = false;
  options.cgroup_root = "/nonexistent-elasticore-test";
  LinuxPlatform platform(options);
  const CpusetId cpuset = platform.CreateCpuset("t", CpuMask::FirstN(4));
  const size_t writes = LinuxPlatform::kMaxOpLog + 100;
  for (size_t i = 0; i < writes; ++i) {
    ASSERT_FALSE(platform.SetCpusetMask(cpuset, CpuMask::FirstN(1 + i % 2)));
    ASSERT_LE(platform.trace()->size(), LinuxPlatform::kMaxOpLog);
  }
  const simcore::TraceEvent& last = platform.trace()->events().back();
  EXPECT_EQ(last.kind, "platform_error");
  EXPECT_EQ(last.b, ENOENT);
  EXPECT_EQ(last.text,
            "write /nonexistent-elasticore-test/elasticore/t/cpuset.cpus");
  EXPECT_LE(platform.op_log().size(), LinuxPlatform::kMaxOpLog);
  // The mask of the last failed write (i = writes - 1 is odd: two cores).
  EXPECT_EQ(platform.op_log()[platform.op_log().size() - 2],
            "write /nonexistent-elasticore-test/elasticore/t/cpuset.cpus = 0-1");
}

TEST(LinuxPlatformTest, AttachPidLogsCgroupProcsWrite) {
  LinuxPlatform platform(DryRunOptions());
  const CpusetId cpuset = platform.CreateCpuset("db", CpuMask::FirstN(2));
  EXPECT_TRUE(platform.AttachPid(cpuset, 4242));
  EXPECT_EQ(platform.op_log().back(),
            "write /sys/fs/cgroup/elasticore/db/cgroup.procs = 4242");
}

TEST(LinuxPlatformTest, FireTickHooksDrivesRegisteredHooks) {
  // The external driving loop (elasticored) is the clock on real hardware:
  // hooks registered at Install() fire only when it says so.
  LinuxPlatform platform(DryRunOptions());
  std::vector<simcore::Tick> fired;
  platform.AddTickHook([&](simcore::Tick now) { fired.push_back(now); });
  platform.AddTickHook([&](simcore::Tick now) { fired.push_back(now * 10); });
  platform.FireTickHooks(5);
  EXPECT_EQ(fired, (std::vector<simcore::Tick>{5, 50}));
}

TEST(LinuxPlatformTest, DryRunSamplerIsDeterministicallyIdle) {
  LinuxPlatform platform(DryRunOptions());
  auto sampler = platform.CreateSampler();
  const perf::WindowStats stats = sampler->Sample();
  EXPECT_EQ(stats.num_cores(), 8);
  for (int core = 0; core < stats.num_cores(); ++core) {
    EXPECT_EQ(stats.core_busy_cycles(core), 0);
  }
  EXPECT_DOUBLE_EQ(stats.CpuLoadPercent(CpuMask::FirstN(8),
                                        platform.cycles_per_tick()),
                   0.0);
}

/// A live (not dry-run) 4-CPU platform whose /proc/stat is a temp file.
/// No cpuset is ever created, so nothing is written under cgroup_root.
class ProcStatSamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "elasticore-proc-XXXXXX";
    ASSERT_NE(mkdtemp(root_.data()), nullptr);
    WriteStat("cpu  0 0 0 0 0 0 0 0 0 0\n");
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  void WriteStat(const std::string& text) const {
    std::ofstream(root_ + "/stat") << text;
  }
  /// A stat file whose CPUs 0-3 have `user` jiffies each, plus idle time.
  void WriteUserJiffies(long long user) const {
    std::string text = "cpu  0 0 0 0 0 0 0 0 0 0\n";
    for (int cpu = 0; cpu < 4; ++cpu) {
      text += "cpu" + std::to_string(cpu) + " " + std::to_string(user) +
              " 0 0 " + std::to_string(user * 3) + " 7 0 0 0 0 0\n";
    }
    WriteStat(text);
  }
  LinuxPlatformOptions Options() const {
    LinuxPlatformOptions options;
    options.num_nodes = 1;
    options.cores_per_node = 4;
    options.proc_root = root_;
    options.cgroup_root = root_ + "/cgroup";
    // Long enough that a test's reads within one tick never straddle two.
    options.seconds_per_tick = 0.25;
    return options;
  }
  /// Sleeps until the platform clock enters its next tick.
  static void AwaitNextTick(const LinuxPlatform& platform) {
    const simcore::Tick start = platform.Now();
    while (platform.Now() == start) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::string root_;
};

TEST_F(ProcStatSamplerTest, CountsPerCpuBusyJiffiesOnly) {
  LinuxPlatform platform(Options());
  auto sampler = platform.CreateSampler();
  AwaitNextTick(platform);
  // CPU 3 is offline, so only the aggregate line names it: parsed as a
  // per-cpu line it would credit CPU 3 with 200+300+400+700+800 jiffies.
  WriteStat(
      "cpu  3 200 300 400 500 600 700 800 0 0\n"
      "cpu0 10 1 2 1000 500 3 4 5 0 0\n"
      "cpu1 0 0 0 7000 7000 0 0 0 0 0\n"
      "cpu2 100 0 0 0 0 0 0 0 0 0\n"
      "intr 12345\n");
  const perf::WindowStats window = sampler->Sample();
  EXPECT_EQ(window.ticks(), 1);
  EXPECT_DOUBLE_EQ(window.seconds(), 0.25);
  ASSERT_EQ(window.num_cores(), 4);
  // Busy is user+nice+system+irq+softirq+steal; idle and iowait are not.
  EXPECT_EQ(window.core_busy_cycles(0), 10 + 1 + 2 + 3 + 4 + 5);
  EXPECT_EQ(window.core_busy_cycles(1), 0);
  EXPECT_EQ(window.core_busy_cycles(2), 100);
  EXPECT_EQ(window.core_busy_cycles(3), 0);
}

TEST_F(ProcStatSamplerTest, SamplersOfOneTickShareOneReading) {
  LinuxPlatform platform(Options());
  auto first = platform.CreateSampler();
  auto second = platform.CreateSampler();
  AwaitNextTick(platform);
  WriteUserJiffies(100);
  const perf::WindowStats a = first->Sample();
  // The file moves between the two reads; the tick has not.
  WriteUserJiffies(250);
  const perf::WindowStats b = second->Sample();
  EXPECT_EQ(a.to(), b.to());
  for (int cpu = 0; cpu < 4; ++cpu) {
    EXPECT_EQ(a.core_busy_cycles(cpu), 100);
    EXPECT_EQ(b.core_busy_cycles(cpu), 100);
  }
  // The next tick reads the file again and sees the move.
  AwaitNextTick(platform);
  const perf::WindowStats next = first->Sample();
  EXPECT_EQ(next.ticks(), 1);
  EXPECT_EQ(next.from(), a.to());
  EXPECT_NE(next.to(), a.to());
  for (int cpu = 0; cpu < 4; ++cpu) {
    EXPECT_EQ(next.core_busy_cycles(cpu), 150);
  }
}

// Random /proc/stat files: shuffled per-cpu lines between the aggregate line
// and other counters, CPU ids past the topology, 4-8 value fields per line.
// Each case builds a fresh platform over the fixture's all-zero file, then
// swaps in the random file before the next tick's sample.
TEST_F(ProcStatSamplerTest, RandomFilesGiveEachCpuItsBusyFieldSum) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    simcore::Rng rng(seed);
    LinuxPlatformOptions options = Options();
    options.cores_per_node = static_cast<int>(rng.NextInRange(1, 16));
    // Each case waits out one tick; its reads never straddle two (the
    // baseline is taken before the random file exists).
    options.seconds_per_tick = 0.01;
    const int cores = options.cores_per_node;

    const auto fields = [&rng] {
      std::vector<long long> values(
          static_cast<size_t>(rng.NextInRange(4, 8)));
      for (long long& v : values) {
        v = static_cast<long long>(rng.NextBounded(uint64_t{1} << 40));
      }
      return values;
    };
    const auto line = [](const std::string& head,
                         const std::vector<long long>& values) {
      std::string text = head;
      for (const long long v : values) text += " " + std::to_string(v);
      return text + "\n";
    };
    std::vector<long long> expected(static_cast<size_t>(cores), 0);
    std::vector<std::string> lines = {line("cpu ", fields()), "intr 12345\n",
                                      "ctxt 67890\n"};
    const int ids = cores + static_cast<int>(rng.NextInRange(0, 4));
    for (int cpu = 0; cpu < ids; ++cpu) {
      if (rng.NextBernoulli(0.2)) continue;  // offline: no line of its own
      const std::vector<long long> values = fields();
      lines.push_back(line("cpu" + std::to_string(cpu), values));
      if (cpu >= cores) continue;
      // user, nice, system, then irq, softirq, steal past idle and iowait.
      for (const size_t field : {0, 1, 2, 5, 6, 7}) {
        if (field < values.size()) {
          expected[static_cast<size_t>(cpu)] += values[field];
        }
      }
    }
    for (size_t i = lines.size(); i > 1; --i) {
      std::swap(lines[i - 1], lines[rng.NextBounded(i)]);
    }

    WriteStat("cpu  0 0 0 0 0 0 0 0 0 0\n");
    LinuxPlatform platform(options);
    auto sampler = platform.CreateSampler();
    std::string text;
    for (const std::string& l : lines) text += l;
    WriteStat(text);
    AwaitNextTick(platform);
    const perf::WindowStats window = sampler->Sample();
    ASSERT_EQ(window.num_cores(), cores);
    for (int cpu = 0; cpu < cores; ++cpu) {
      EXPECT_EQ(window.core_busy_cycles(cpu),
                expected[static_cast<size_t>(cpu)])
          << "cpu " << cpu << "\n" << text;
    }
  }
}

// The acceptance scenario: a whole arbiter driven through the Linux
// backend in dry-run emits exactly the cgroup write sequence a live
// deployment would perform — parent setup, one group per tenant with the
// placeholder mask, the narrowed initial masks, then one write per
// shrinking tenant on the first (all-idle) monitoring round.
TEST(LinuxPlatformTest, ArbiterDryRunEmitsExactWriteSequence) {
  LinuxPlatform platform(DryRunOptions());
  core::ArbiterConfig config;
  config.policy = core::ArbitrationPolicy::kFairShare;
  config.monitor_period_ticks = 1;
  core::CoreArbiter arbiter(&platform, config);

  core::ArbiterTenantConfig oltp;
  oltp.name = "oltp";
  oltp.mode = "dense";
  oltp.mechanism.initial_cores = 2;
  core::ArbiterTenantConfig olap;
  olap.name = "olap";
  olap.mode = "dense";
  olap.mechanism.initial_cores = 4;
  arbiter.AddTenant(oltp);
  arbiter.AddTenant(olap);
  arbiter.Install();
  platform.AttachPid(arbiter.tenant_cpuset(0), 100);
  platform.AttachPid(arbiter.tenant_cpuset(1), 200);

  // Dry-run sampling reads zero utilization, so both tenants classify Idle
  // and release one core each (dense mode: highest core of the last node).
  arbiter.Poll(1);

  const std::vector<std::string> expected = {
      "mkdir /sys/fs/cgroup/elasticore",
      "write /sys/fs/cgroup/cgroup.subtree_control = +cpuset",
      "write /sys/fs/cgroup/elasticore/cgroup.subtree_control = +cpuset",
      "mkdir /sys/fs/cgroup/elasticore/oltp",
      "write /sys/fs/cgroup/elasticore/oltp/cpuset.cpus = 0-7",
      "mkdir /sys/fs/cgroup/elasticore/olap",
      "write /sys/fs/cgroup/elasticore/olap/cpuset.cpus = 0-7",
      // Install(): oltp clusters on node 0, olap takes node 1.
      "write /sys/fs/cgroup/elasticore/oltp/cpuset.cpus = 0-1",
      "write /sys/fs/cgroup/elasticore/olap/cpuset.cpus = 4-7",
      "write /sys/fs/cgroup/elasticore/oltp/cgroup.procs = 100",
      "write /sys/fs/cgroup/elasticore/olap/cgroup.procs = 200",
      // First idle round: each tenant shrinks by one core.
      "write /sys/fs/cgroup/elasticore/oltp/cpuset.cpus = 0",
      "write /sys/fs/cgroup/elasticore/olap/cpuset.cpus = 4-6",
  };
  EXPECT_EQ(platform.op_log(), expected);
}

// The daemon's configuration keeps no per-round record: elasticored runs
// one round per tick with the round log off, for days. After 10,000 rounds
// of four tenants neither the round log nor the platform trace holds an
// entry; the totals stay in stats().
TEST(LinuxPlatformTest, DaemonArbiterKeepsNoPerRoundRecord) {
  LinuxPlatform platform(DryRunOptions());
  core::ArbiterConfig config;
  config.monitor_period_ticks = 1;
  config.log_rounds = false;
  core::CoreArbiter arbiter(&platform, config);
  for (const int initial : {2, 1, 1, 1}) {
    core::ArbiterTenantConfig tenant;
    tenant.name = "t" + std::to_string(arbiter.num_tenants());
    tenant.mode = "dense";
    tenant.mechanism.initial_cores = initial;
    arbiter.AddTenant(tenant);
  }
  arbiter.Install();
  for (simcore::Tick round = 1; round <= 10000; ++round) {
    platform.FireTickHooks(round);
  }
  // The rounds ran: dry-run sampling reads idle, so the two-core tenant
  // released a core.
  EXPECT_GT(arbiter.core_handoffs(), 0);
  for (int t = 0; t < arbiter.num_tenants(); ++t) {
    EXPECT_EQ(arbiter.mechanism(t).last_state(), core::PerfState::kIdle);
  }
  EXPECT_TRUE(arbiter.log().empty());
  EXPECT_TRUE(platform.trace()->events().empty());
}

}  // namespace
}  // namespace elastic::platform
