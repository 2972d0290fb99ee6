#include "platform/cpu_mask.h"

#include <cstdlib>

#include "simcore/check.h"

namespace elastic::platform {

CpuMask CpuMask::FirstN(int n) {
  ELASTIC_CHECK(n >= 0 && n <= kMaxCores, "mask supports up to kMaxCores");
  CpuMask mask;
  int w = 0;
  while (n >= 64) {
    mask.words_[static_cast<size_t>(w++)] = ~uint64_t{0};
    n -= 64;
  }
  if (n > 0) mask.words_[static_cast<size_t>(w)] = (uint64_t{1} << n) - 1;
  return mask;
}

CpuMask CpuMask::Of(const std::vector<numasim::CoreId>& cores) {
  CpuMask mask;
  for (numasim::CoreId c : cores) {
    ELASTIC_CHECK(c >= 0 && c < kMaxCores, "core id out of mask range");
    mask.Set(c);
  }
  return mask;
}

CpuMask CpuMask::AllOf(const numasim::Topology& topology) {
  return FirstN(topology.total_cores());
}

CpuMask CpuMask::NodeCores(const numasim::Topology& topology, numasim::NodeId node) {
  return Of(topology.CoresOfNode(node));
}

std::optional<CpuMask> CpuMask::TryFromCpuList(const std::string& list) {
  CpuMask mask;
  const char* p = list.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const long first = std::strtol(p, &end, 10);
    if (end == p || first < 0 || first >= kMaxCores) return std::nullopt;
    long last = first;
    p = end;
    if (*p == '-') {
      last = std::strtol(p + 1, &end, 10);
      if (end == p + 1 || last < first || last >= kMaxCores) return std::nullopt;
      p = end;
    }
    for (long c = first; c <= last; ++c) mask.Set(static_cast<int>(c));
    if (*p == ',') p++;
    else if (*p != '\0') return std::nullopt;
  }
  return mask;
}

CpuMask CpuMask::FromCpuList(const std::string& list) {
  const std::optional<CpuMask> mask = TryFromCpuList(list);
  ELASTIC_CHECK(mask.has_value(), "malformed cpulist");
  return *mask;
}

std::vector<numasim::CoreId> CpuMask::ToCores() const {
  std::vector<numasim::CoreId> cores;
  ForEachCore([&cores](numasim::CoreId core) { cores.push_back(core); });
  return cores;
}

numasim::CoreId CpuMask::First() const {
  for (size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return static_cast<int>(w) * 64 + __builtin_ctzll(words_[w]);
    }
  }
  return numasim::kInvalidCore;
}

numasim::CoreId CpuMask::Last() const {
  for (size_t w = words_.size(); w-- > 0;) {
    // Leading zeros of a zero word are undefined; only non-empty ones count.
    if (words_[w] != 0) {
      return static_cast<int>(w) * 64 + 63 - __builtin_clzll(words_[w]);
    }
  }
  return numasim::kInvalidCore;
}

std::string CpuMask::ToString() const {
  std::string out = "{";
  bool first = true;
  for (numasim::CoreId c : ToCores()) {
    if (!first) out += ",";
    out += std::to_string(c);
    first = false;
  }
  out += "}";
  return out;
}

std::string CpuMask::ToCpuList() const {
  std::string out;
  const std::vector<numasim::CoreId> cores = ToCores();
  size_t i = 0;
  while (i < cores.size()) {
    size_t j = i;
    while (j + 1 < cores.size() && cores[j + 1] == cores[j] + 1) j++;
    if (!out.empty()) out += ",";
    out += std::to_string(cores[i]);
    if (j > i) out += "-" + std::to_string(cores[j]);
    i = j + 1;
  }
  return out;
}

}  // namespace elastic::platform
