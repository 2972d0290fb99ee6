#include "host_speed.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <unordered_map>
#include <vector>

#include "probe.h"

namespace elasticore_bench {
namespace {

// The kernels stress what a loaded host takes away: core frequency (Chain),
// issue slots shared with a busy SMT sibling (Ilp), branch prediction (Sort),
// private caches (Tree, Hash) and indirect calls (Dispatch). No single one
// follows every workload's slowdown; their mean follows them closely enough
// to narrow the run-to-run spread (README.md).

volatile uint64_t g_sink;

inline uint64_t XorShift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

void Chain() {
  uint64_t x = 1;
  for (int i = 0; i < 12'000'000; ++i) x = XorShift(x);
  g_sink = x;
}

void Ilp() {
  uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 5'000'000; ++i) {
    for (uint64_t& v : x) v = XorShift(v);
  }
  g_sink = x[0] ^ x[7];
}

void Sort() {
  std::vector<uint32_t> v(size_t{1} << 18);
  uint64_t x = 7;
  for (uint32_t& e : v) e = static_cast<uint32_t>(x = XorShift(x));
  std::sort(v.begin(), v.end());
  g_sink = v[12345];
}

void Tree() {
  std::map<uint32_t, uint32_t> m;
  uint64_t x = 5;
  for (int i = 0; i < 250'000; ++i) {
    x = XorShift(x);
    m[static_cast<uint32_t>(x & 0xFFFF)] += 1;
  }
  g_sink = m.size();
}

void Dispatch() {
  std::vector<std::function<uint64_t(uint64_t)>> fs;
  for (uint64_t k = 0; k < 64; ++k) {
    fs.push_back([k](uint64_t v) { return v * (2 * k + 1) + k; });
  }
  uint64_t x = 9;
  uint64_t acc = 0;
  for (int i = 0; i < 5'000'000; ++i) {
    x = XorShift(x);
    acc += fs[x & 63](acc);
  }
  g_sink = acc;
}

void Hash() {
  std::unordered_map<uint64_t, uint64_t> m;
  m.reserve(size_t{1} << 16);
  uint64_t x = 3;
  for (int i = 0; i < 1'000'000; ++i) {
    x = XorShift(x);
    m[x & 0xFFFF] += static_cast<uint64_t>(i);
  }
  g_sink = m.size();
}

struct Kernel {
  void (*run)();
  /// Seconds on a quiet host: the fastest times seen on the machine that
  /// calibrated the benchmark (README.md).
  double nominal_s;
};

constexpr Kernel kKernels[] = {
    {Chain, 0.0270}, {Ilp, 0.0250},      {Sort, 0.0220},
    {Tree, 0.0580},  {Dispatch, 0.0170}, {Hash, 0.0115},
};

}  // namespace

double MeasureHostSlowdown() {
  double sum = 0.0;
  for (const Kernel& kernel : kKernels) {
    const int64_t start = NowNs();
    kernel.run();
    sum += static_cast<double>(NowNs() - start) / 1e9 / kernel.nominal_s;
  }
  return sum / static_cast<double>(std::size(kKernels));
}

}  // namespace elasticore_bench
