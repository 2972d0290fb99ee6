#include "numasim/memory_system.h"

#include <algorithm>

#include "simcore/check.h"
#include "simcore/clock.h"

namespace elastic::numasim {

MemorySystem::MemorySystem(const Topology* topology, PageTable* page_table,
                           perf::CounterSet* counters)
    : topology_(topology),
      routes_(*topology),
      page_table_(page_table),
      counters_(counters) {
  const MachineConfig& cfg = topology_->config();
  // Access indexes a page's directory entry by the requesting node.
  ELASTIC_CHECK(page_table_->num_nodes() == cfg.num_nodes,
                "page table and topology differ in node count");
  l3_.reserve(static_cast<size_t>(cfg.num_nodes));
  for (int n = 0; n < cfg.num_nodes; ++n) {
    l3_.emplace_back(cfg.l3_pages_per_node);
  }
  link_bytes_this_tick_.assign(static_cast<size_t>(topology_->num_links()), 0);
  link_capacity_per_tick_ = static_cast<int64_t>(
      cfg.ht_link_bytes_per_second * simcore::Clock::kSecondsPerTick);
  congestion_cycles_per_overload_ =
      cfg.ht_congestion_penalty * static_cast<double>(cfg.remote_hop_cycles);
}

void MemorySystem::BeginTick() {
  std::fill(link_bytes_this_tick_.begin(), link_bytes_this_tick_.end(), 0);
}

AccessResult MemorySystem::Access(CoreId core, PageId page, bool is_write,
                                  int stream) {
  ELASTIC_CHECK(stream >= 0 && stream < perf::kMaxStreams, "bad stream id");
  const MachineConfig& cfg = topology_->config();
  const NodeId node = topology_->NodeOfCore(core);

  AccessResult result;

  // First touch: the OS allocates the page on the requesting core's node
  // (node-local default policy) and charges a minor fault.
  const PageTable::TouchResult touch = page_table_->Touch(page, node);
  const NodeId home = touch.home;
  if (touch.first_touch) {
    result.first_touch = true;
    result.minor_fault = true;
    counters_->minor_faults++;
    counters_->first_touch_faults++;
  }

  counters_->node_access_pages[home]++;

  // L3 lookup in the requesting socket: the page's entry names its frame
  // there. A first touch finds none, as its page was never cached.
  int32_t* const frames = touch.frames;
  if (frames[node] != kNoFrame) {
    l3_[node].Promote(frames[node]);
    result.l3_hit = true;
    result.cycles = cfg.l3_hit_cycles;
    counters_->l3_hits[node]++;
  } else {
    const L3Cache::Fill fill = l3_[node].Insert(page);
    if (fill.evicted != kInvalidPage) {
      page_table_->ForgetFrame(fill.evicted, node);
    }
    frames[node] = fill.frame;
    counters_->l3_misses[node]++;
    // Fetch from the home node's DRAM through its memory controller.
    counters_->imc_bytes[home] += cfg.page_bytes;
    counters_->stream_imc_bytes[stream] += cfg.page_bytes;
    result.cycles = cfg.local_dram_cycles;
    if (home == node) {
      counters_->local_bytes[home] += cfg.page_bytes;
    } else {
      result.remote = true;
      counters_->remote_in_bytes[node] += cfg.page_bytes;
      // A remote fetch re-establishes the mapping locally: the paper counts
      // this as a fresh minor fault with the extra cost of moving the data
      // (Section II-B-1). We charge at page granularity.
      if (!touch.first_touch) {
        result.minor_fault = true;
        counters_->minor_faults++;
      }
      for (const int link : routes_.Route(node, home)) {
        counters_->ht_link_bytes[link] += cfg.page_bytes;
        counters_->ht_bytes_total += cfg.page_bytes;
        counters_->stream_ht_bytes[stream] += cfg.page_bytes;
        link_bytes_this_tick_[link] += cfg.page_bytes;
        result.cycles += cfg.remote_hop_cycles;
        // Congestion: beyond the per-tick link capacity, each additional
        // transfer pays a queueing penalty proportional to the overload.
        const int64_t used = link_bytes_this_tick_[link];
        if (used > link_capacity_per_tick_) {
          const double overload =
              static_cast<double>(used - link_capacity_per_tick_) /
              static_cast<double>(link_capacity_per_tick_);
          const double capped = std::min(overload, 8.0);
          result.cycles +=
              static_cast<int64_t>(capped * congestion_cycles_per_overload_);
        }
      }
    }
  }

  // Write-invalidate coherence at page granularity: a write removes copies
  // cached by the other sockets, which the page's entry names. A first
  // touch has none to remove: only Access fills the caches, always after
  // Touch has homed the page, so a page without a home is cached nowhere.
  if (is_write && !touch.first_touch) {
    for (int n = 0; n < cfg.num_nodes; ++n) {
      if (n == node || frames[n] == kNoFrame) continue;
      l3_[n].Release(frames[n]);
      frames[n] = kNoFrame;
      counters_->l3_invalidations++;
    }
  }
  return result;
}

}  // namespace elastic::numasim
