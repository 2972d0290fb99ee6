#ifndef ELASTICORE_NUMASIM_MEMORY_SYSTEM_H_
#define ELASTICORE_NUMASIM_MEMORY_SYSTEM_H_

#include <cstdint>
#include <vector>

#include "numasim/l3_cache.h"
#include "numasim/page_table.h"
#include "numasim/topology.h"
#include "perf/counters.h"

namespace elastic::numasim {

/// Result of one simulated page access.
struct AccessResult {
  /// Core cycles spent (compute cost excluded; memory cost only).
  int64_t cycles = 0;
  bool l3_hit = false;
  /// Data was fetched from a remote node's DRAM.
  bool remote = false;
  /// Page was allocated by this access (first touch).
  bool first_touch = false;
  /// A minor page fault was charged (first touch or remote fetch).
  bool minor_fault = false;
};

/// The simulated memory hierarchy: per-socket shared L3 caches, per-node
/// DRAM banks behind integrated memory controllers, and the HyperTransport
/// interconnect with per-tick bandwidth accounting and congestion penalties.
///
/// All page accesses performed by scheduled threads flow through Access(),
/// which charges latency cycles and updates the counter registry. This is
/// the substrate that turns thread placement decisions into the L3-miss /
/// HT-traffic / memory-throughput numbers the paper reports.
class MemorySystem {
 public:
  MemorySystem(const Topology* topology, PageTable* page_table,
               perf::CounterSet* counters);

  /// Resets the per-tick link utilisation windows. Call once per simulated
  /// tick before threads run.
  void BeginTick();

  /// Performs one page access from `core`, attributed to `stream`
  /// (perf::kNoStream for administrative work). The page's directory entry
  /// in the page table says which sockets cache it and in which frame.
  AccessResult Access(CoreId core, PageId page, bool is_write, int stream);

  const L3Cache& l3(NodeId node) const { return l3_[node]; }

  /// Per-direction link capacity per tick in bytes.
  int64_t link_capacity_per_tick() const { return link_capacity_per_tick_; }

 private:
  const Topology* topology_;
  PageTable* page_table_;
  perf::CounterSet* counters_;
  std::vector<L3Cache> l3_;
  std::vector<int64_t> link_bytes_this_tick_;
  int64_t link_capacity_per_tick_;
  /// Hoisted `ht_congestion_penalty * remote_hop_cycles`: constant for the
  /// machine, previously recomputed per link per page access.
  double congestion_cycles_per_overload_ = 0.0;
};

}  // namespace elastic::numasim

#endif  // ELASTICORE_NUMASIM_MEMORY_SYSTEM_H_
