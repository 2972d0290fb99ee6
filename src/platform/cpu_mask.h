#ifndef ELASTICORE_PLATFORM_CPU_MASK_H_
#define ELASTICORE_PLATFORM_CPU_MASK_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "numasim/topology.h"
#include "simcore/check.h"

namespace elastic::platform {

/// Set of processing cores — the platform-neutral form of a cgroup cpuset /
/// pthread affinity mask. Supports up to kMaxCores (1024) cores: the paper's
/// 16-core machine, a large real box, and the many-tenant scale bench's
/// 256-node synthetic machines all fit the same fixed-width value type.
///
/// Lives in the platform layer (not the OS simulator) because it is the
/// currency every backend trades in: the simulated scheduler confines
/// threads to it, and the Linux backend serialises it into cpuset.cpus.
class CpuMask {
 public:
  static constexpr int kMaxCores = 1024;
  static constexpr int kWords = kMaxCores / 64;

  CpuMask() = default;
  /// Seeds the first 64 cores from a raw bit pattern (the historical
  /// single-word form; still the convenient literal in tests).
  explicit CpuMask(uint64_t bits) { words_[0] = bits; }

  static CpuMask None() { return CpuMask(); }

  /// Mask containing cores [0, n).
  static CpuMask FirstN(int n);

  /// Mask containing exactly the listed cores.
  static CpuMask Of(const std::vector<numasim::CoreId>& cores);

  /// Mask of every core in the machine.
  static CpuMask AllOf(const numasim::Topology& topology);

  /// Mask of all cores belonging to one node.
  static CpuMask NodeCores(const numasim::Topology& topology, numasim::NodeId node);

  /// Parses a Linux cpulist ("0-3,8,10-11"); nullopt on malformed input or
  /// cores past the kMaxCores mask bound. The daemon-facing form: hostile
  /// /sys or operator input degrades instead of aborting.
  static std::optional<CpuMask> TryFromCpuList(const std::string& list);

  /// Parses a Linux cpulist ("0-3,8,10-11"); CHECK-fails on malformed input
  /// (the sim/test convenience wrapper over TryFromCpuList).
  static CpuMask FromCpuList(const std::string& list);

  void Set(numasim::CoreId core) {
    ELASTIC_CHECK(core >= 0 && core < kMaxCores, "core id out of mask range");
    words_[static_cast<size_t>(core >> 6)] |= uint64_t{1} << (core & 63);
  }
  void Clear(numasim::CoreId core) {
    ELASTIC_CHECK(core >= 0 && core < kMaxCores, "core id out of mask range");
    words_[static_cast<size_t>(core >> 6)] &= ~(uint64_t{1} << (core & 63));
  }
  bool Has(numasim::CoreId core) const {
    if (core < 0 || core >= kMaxCores) return false;
    return (words_[static_cast<size_t>(core >> 6)] >> (core & 63)) & 1;
  }

  int Count() const {
    // Most masks fill a word or two of the sixteen; skipping the empty ones
    // matters where popcount is a library call (no -mpopcnt).
    int count = 0;
    for (uint64_t word : words_) {
      if (word != 0) count += __builtin_popcountll(word);
    }
    return count;
  }
  bool Empty() const {
    for (uint64_t word : words_) {
      if (word != 0) return false;
    }
    return true;
  }

  /// The first 64 cores as a raw bit pattern. CHECK-fails when the mask
  /// holds a core past 64 — every caller of this accessor reasons about a
  /// single word, and silently truncating a wide mask would corrupt that
  /// reasoning instead of surfacing it.
  uint64_t bits() const {
    for (size_t w = 1; w < words_.size(); ++w) {
      ELASTIC_CHECK(words_[w] == 0, "bits() on a mask wider than 64 cores");
    }
    return words_[0];
  }

  CpuMask Intersect(CpuMask other) const {
    CpuMask result;
    for (size_t w = 0; w < words_.size(); ++w) {
      result.words_[w] = words_[w] & other.words_[w];
    }
    return result;
  }
  CpuMask Union(CpuMask other) const {
    CpuMask result;
    for (size_t w = 0; w < words_.size(); ++w) {
      result.words_[w] = words_[w] | other.words_[w];
    }
    return result;
  }
  /// Cores of this mask that are not in `other`.
  CpuMask Difference(CpuMask other) const {
    CpuMask result;
    for (size_t w = 0; w < words_.size(); ++w) {
      result.words_[w] = words_[w] & ~other.words_[w];
    }
    return result;
  }
  bool IsSubsetOf(CpuMask other) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      if ((words_[w] & ~other.words_[w]) != 0) return false;
    }
    return true;
  }

  /// Cores in ascending id order.
  std::vector<numasim::CoreId> ToCores() const;

  /// Calls fn(core) for each core in ascending id order, word by word,
  /// without allocating: ToCores() for per-round hot paths.
  template <typename Fn>
  void ForEachCore(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<numasim::CoreId>(w) * 64 + __builtin_ctzll(bits));
      }
    }
  }

  /// Lowest core id in the mask (kInvalidCore when empty).
  numasim::CoreId First() const;
  /// Highest core id in the mask (kInvalidCore when empty).
  numasim::CoreId Last() const;

  /// Human-readable form, e.g. "{0,1,4}".
  std::string ToString() const;

  /// Linux cpulist form as written to cpuset.cpus, e.g. "0-1,4"; empty
  /// string for the empty mask.
  std::string ToCpuList() const;

  friend bool operator==(const CpuMask& a, const CpuMask& b) {
    return a.words_ == b.words_;
  }
  friend bool operator!=(const CpuMask& a, const CpuMask& b) {
    return a.words_ != b.words_;
  }

 private:
  std::array<uint64_t, kWords> words_{};
};

}  // namespace elastic::platform

#endif  // ELASTICORE_PLATFORM_CPU_MASK_H_
