#include "numasim/memory_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "perf/counters.h"
#include "simcore/rng.h"

namespace elastic::numasim {
namespace {

/// 64-bit FNV-1a over whole words, fed byte by byte (little-endian).
class Fnv1a {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void Add(const std::vector<int64_t>& words) {
    for (const int64_t word : words) Add(static_cast<uint64_t>(word));
  }
  template <size_t N>
  void Add(const std::array<int64_t, N>& words) {
    for (const int64_t word : words) Add(static_cast<uint64_t>(word));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

class MemorySystemTest : public ::testing::Test {
 protected:
  MemorySystemTest()
      : topo_(MachineConfig{}),
        pt_(topo_.num_nodes()),
        counters_(topo_.num_nodes(), topo_.num_links(), topo_.total_cores()),
        mem_(&topo_, &pt_, &counters_) {}

  /// True when node `node`'s L3 holds `page`, read from the directory
  /// entry of a homed page (touching it again changes nothing); the frame
  /// the entry names must hold the page.
  bool Cached(PageId page, NodeId node) {
    EXPECT_NE(pt_.HomeOf(page), kInvalidNode);
    const int32_t frame = pt_.Touch(page, node).frames[node];
    if (frame == kNoFrame) return false;
    EXPECT_EQ(mem_.l3(node).PageAt(frame), page) << "node " << node;
    return true;
  }

  Topology topo_;
  PageTable pt_;
  perf::CounterSet counters_;
  MemorySystem mem_;
};

TEST(MemorySystemDeathTest, PageTableOfAnotherNodeCountAborts) {
  const Topology topo{MachineConfig{}};
  PageTable pt(topo.num_nodes() - 1);
  perf::CounterSet counters(topo.num_nodes(), topo.num_links(), topo.total_cores());
  EXPECT_DEATH(MemorySystem(&topo, &pt, &counters), "node count");
}

TEST_F(MemorySystemTest, FirstTouchChargesFaultAndAllocatesLocally) {
  const BufferId buf = pt_.CreateBuffer(4);
  mem_.BeginTick();
  const AccessResult r = mem_.Access(/*core=*/5, PageTable::PageOf(buf, 0),
                                     /*is_write=*/false, perf::kNoStream);
  EXPECT_TRUE(r.first_touch);
  EXPECT_TRUE(r.minor_fault);
  EXPECT_EQ(pt_.HomeOf(PageTable::PageOf(buf, 0)), topo_.NodeOfCore(5));
  EXPECT_EQ(counters_.minor_faults, 1);
  EXPECT_EQ(counters_.first_touch_faults, 1);
}

TEST_F(MemorySystemTest, LocalAccessGeneratesNoHtTraffic) {
  const BufferId buf = pt_.CreateBuffer(4);
  pt_.PlaceAllOn(buf, 0);
  mem_.BeginTick();
  const AccessResult r = mem_.Access(0, PageTable::PageOf(buf, 0), false, 0);
  EXPECT_FALSE(r.remote);
  EXPECT_EQ(counters_.ht_bytes_total, 0);
  EXPECT_EQ(counters_.imc_bytes[0], topo_.config().page_bytes);
  EXPECT_EQ(counters_.local_bytes[0], topo_.config().page_bytes);
}

TEST_F(MemorySystemTest, RemoteAccessChargesInterconnect) {
  const BufferId buf = pt_.CreateBuffer(4);
  pt_.PlaceAllOn(buf, 1);  // data on node 1
  mem_.BeginTick();
  const AccessResult r = mem_.Access(0, PageTable::PageOf(buf, 0), false, 0);
  EXPECT_TRUE(r.remote);
  EXPECT_TRUE(r.minor_fault);  // remote fetch counts as a fresh minor fault
  EXPECT_EQ(counters_.ht_bytes_total, topo_.config().page_bytes);
  EXPECT_EQ(counters_.imc_bytes[1], topo_.config().page_bytes);  // home IMC
  EXPECT_EQ(counters_.remote_in_bytes[0], topo_.config().page_bytes);
  EXPECT_GT(r.cycles, topo_.config().local_dram_cycles);
}

TEST_F(MemorySystemTest, DiagonalRemoteCostsTwoHops) {
  const BufferId buf = pt_.CreateBuffer(4);
  pt_.PlaceAllOn(buf, 3);  // S0 <-> S3 is two hops
  mem_.BeginTick();
  const AccessResult r = mem_.Access(0, PageTable::PageOf(buf, 0), false, 0);
  const MachineConfig& cfg = topo_.config();
  EXPECT_EQ(r.cycles, cfg.local_dram_cycles + 2 * cfg.remote_hop_cycles);
  // Traffic counted on both traversed links.
  EXPECT_EQ(counters_.ht_bytes_total, 2 * cfg.page_bytes);
}

TEST_F(MemorySystemTest, SecondAccessHitsL3) {
  const BufferId buf = pt_.CreateBuffer(4);
  pt_.PlaceAllOn(buf, 0);
  mem_.BeginTick();
  mem_.Access(0, PageTable::PageOf(buf, 0), false, 0);
  const AccessResult r = mem_.Access(0, PageTable::PageOf(buf, 0), false, 0);
  EXPECT_TRUE(r.l3_hit);
  EXPECT_EQ(r.cycles, topo_.config().l3_hit_cycles);
  EXPECT_EQ(counters_.l3_hits[0], 1);
  EXPECT_EQ(counters_.l3_misses[0], 1);
}

TEST_F(MemorySystemTest, L3IsPerSocket) {
  const BufferId buf = pt_.CreateBuffer(4);
  pt_.PlaceAllOn(buf, 0);
  mem_.BeginTick();
  mem_.Access(0, PageTable::PageOf(buf, 0), false, 0);  // warms node 0 L3
  const AccessResult r = mem_.Access(4, PageTable::PageOf(buf, 0), false, 0);
  EXPECT_FALSE(r.l3_hit);  // node 1's cache is cold
  EXPECT_TRUE(r.remote);
}

TEST_F(MemorySystemTest, WriteInvalidatesRemoteCopies) {
  const BufferId buf = pt_.CreateBuffer(4);
  pt_.PlaceAllOn(buf, 0);
  const PageId page = PageTable::PageOf(buf, 0);
  mem_.BeginTick();
  mem_.Access(0, page, false, 0);   // cached on node 0
  mem_.Access(4, page, false, 0);   // cached on node 1 too
  EXPECT_TRUE(Cached(page, 1));
  mem_.Access(0, page, true, 0);    // write from node 0: invalidate node 1
  EXPECT_EQ(counters_.l3_invalidations, 1);
  EXPECT_TRUE(Cached(page, 0));
  EXPECT_FALSE(Cached(page, 1));
  EXPECT_EQ(mem_.l3(1).size(), 0);  // the frame went back to the free stack
  const AccessResult r = mem_.Access(4, page, false, 0);
  EXPECT_FALSE(r.l3_hit);  // node 1 must refetch
}

TEST_F(MemorySystemTest, FirstTouchWriteLeavesOtherSocketsAlone) {
  const BufferId warm = pt_.CreateBuffer(8);
  const BufferId fresh = pt_.CreateBuffer(4);
  const PageId page = PageTable::PageOf(fresh, 0);
  mem_.BeginTick();
  // Give every socket some resident pages, so a stray eviction would show.
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    mem_.Access(topo_.CoreAt(n, 0), PageTable::PageOf(warm, n), false, 0);
  }
  std::vector<int64_t> sizes;
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    sizes.push_back(mem_.l3(n).size());
  }
  const AccessResult first = mem_.Access(0, page, /*is_write=*/true, 0);
  EXPECT_TRUE(first.first_touch);
  EXPECT_EQ(counters_.l3_invalidations, 0);
  EXPECT_TRUE(Cached(page, 0));
  for (NodeId n = 1; n < topo_.num_nodes(); ++n) {
    EXPECT_FALSE(Cached(page, n)) << "node " << n;
    EXPECT_EQ(mem_.l3(n).size(), sizes[static_cast<size_t>(n)]) << "node " << n;
  }
  // The page is homed now: a write from node 1 invalidates node 0's copy.
  const AccessResult second = mem_.Access(4, page, /*is_write=*/true, 0);
  EXPECT_FALSE(second.first_touch);
  EXPECT_EQ(counters_.l3_invalidations, 1);
  EXPECT_FALSE(Cached(page, 0));
  EXPECT_TRUE(Cached(page, 1));
}

TEST_F(MemorySystemTest, CongestionAddsLatencyWhenLinkSaturates) {
  const MachineConfig& cfg = topo_.config();
  const int64_t pages_to_saturate =
      mem_.link_capacity_per_tick() / cfg.page_bytes + 2;
  const BufferId buf = pt_.CreateBuffer(pages_to_saturate + 10);
  pt_.PlaceAllOn(buf, 1);
  mem_.BeginTick();
  int64_t last_cycles = 0;
  for (int64_t p = 0; p < pages_to_saturate; ++p) {
    last_cycles = mem_.Access(0, PageTable::PageOf(buf, p), false, 0).cycles;
  }
  // Once saturated, the remote access must cost more than the uncongested
  // one-hop fetch.
  EXPECT_GT(last_cycles, cfg.local_dram_cycles + cfg.remote_hop_cycles);
  // A new tick resets the windows.
  mem_.BeginTick();
  const AccessResult fresh =
      mem_.Access(0, PageTable::PageOf(buf, pages_to_saturate + 1), false, 0);
  EXPECT_EQ(fresh.cycles, cfg.local_dram_cycles + cfg.remote_hop_cycles);
}

TEST_F(MemorySystemTest, StreamAttributionSeparatesQueries) {
  const BufferId buf = pt_.CreateBuffer(8);
  pt_.PlaceAllOn(buf, 1);
  mem_.BeginTick();
  mem_.Access(0, PageTable::PageOf(buf, 0), false, /*stream=*/3);
  mem_.Access(0, PageTable::PageOf(buf, 1), false, /*stream=*/7);
  EXPECT_EQ(counters_.stream_ht_bytes[3], topo_.config().page_bytes);
  EXPECT_EQ(counters_.stream_ht_bytes[7], topo_.config().page_bytes);
  EXPECT_EQ(counters_.stream_imc_bytes[3], topo_.config().page_bytes);
}

TEST_F(MemorySystemTest, NodeAccessPagesFeedThePriorityQueue) {
  const BufferId buf = pt_.CreateBuffer(8);
  pt_.PlaceAllOn(buf, 2);
  mem_.BeginTick();
  for (int64_t p = 0; p < 5; ++p) {
    mem_.Access(0, PageTable::PageOf(buf, p), false, 0);
  }
  EXPECT_EQ(counters_.node_access_pages[2], 5);
  EXPECT_EQ(counters_.node_access_pages[0], 0);
}

// A seeded trace through every path of Access(), digested: any change to
// what the memory model charges or counts (L3 residency and eviction order,
// first touch, remote fetches, congestion, write invalidation, stream
// attribution) moves the digest. The trace comes from all 16 cores over
// buffers of about 4x one socket's L3 placed three ways (one node,
// chunked round-robin, first touch); about 30% of the accesses write, half
// revisit a page the socket touched recently (so the L3 hits), and ticks
// are long enough that links run past their per-tick capacity.
TEST_F(MemorySystemTest, AccessTraceDigest) {
  constexpr int kAccesses = 200'000;
  constexpr int kRecent = 256;
  constexpr uint64_t kMeanTickAccesses = 16'384;
  constexpr uint64_t kRecordedDigest = 0x5f752f158fdcdefaULL;
  const MachineConfig& cfg = topo_.config();
  const int64_t l3 = cfg.l3_pages_per_node;

  std::vector<BufferId> buffers;
  std::vector<int64_t> buffer_start;  // first global index of each buffer
  int64_t total_pages = 0;
  auto add_buffer = [&](int64_t pages) {
    const BufferId buf = pt_.CreateBuffer(pages);
    buffers.push_back(buf);
    buffer_start.push_back(total_pages);
    total_pages += pages;
    return buf;
  };
  pt_.PlaceAllOn(add_buffer(l3), 1);
  pt_.PlaceAllOn(add_buffer(l3 / 2), 3);
  pt_.PlaceChunkedRoundRobin(add_buffer(l3), /*chunk_pages=*/16);
  pt_.PlaceChunkedRoundRobin(add_buffer(l3 / 2), /*chunk_pages=*/64,
                             /*first_node=*/2);
  add_buffer(l3 / 2);  // first touch
  add_buffer(l3 / 2);  // first touch
  auto page_at = [&](int64_t global) {
    size_t b = buffers.size() - 1;
    while (buffer_start[b] > global) --b;
    return PageTable::PageOf(buffers[b], global - buffer_start[b]);
  };

  simcore::Rng rng(0xACCE55);
  std::vector<std::vector<PageId>> recent(
      static_cast<size_t>(topo_.num_nodes()),
      std::vector<PageId>(kRecent, kInvalidPage));
  Fnv1a digest;
  int64_t hits = 0;
  int64_t congested = 0;
  int64_t first_touch_writes = 0;
  int64_t invalidating_writes = 0;
  mem_.BeginTick();
  for (int i = 0; i < kAccesses; ++i) {
    if (rng.NextBounded(kMeanTickAccesses) == 0) mem_.BeginTick();
    const CoreId core =
        static_cast<CoreId>(rng.NextBounded(topo_.total_cores()));
    const NodeId node = topo_.NodeOfCore(core);
    std::vector<PageId>& window = recent[static_cast<size_t>(node)];
    PageId page = window[rng.NextBounded(kRecent)];
    if (page == kInvalidPage || rng.NextBernoulli(0.5)) {
      page = page_at(static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(total_pages))));
    }
    window[static_cast<size_t>(i) % kRecent] = page;
    const bool is_write = rng.NextBernoulli(0.3);
    const int stream = static_cast<int>(rng.NextBounded(perf::kMaxStreams));

    const int64_t invalidations = counters_.l3_invalidations;
    const AccessResult r = mem_.Access(core, page, is_write, stream);
    if (is_write && r.first_touch) first_touch_writes++;
    if (counters_.l3_invalidations > invalidations) invalidating_writes++;
    digest.Add(static_cast<uint64_t>(r.cycles));
    digest.Add((r.l3_hit ? 1u : 0u) | (r.remote ? 2u : 0u) |
               (r.first_touch ? 4u : 0u) | (r.minor_fault ? 8u : 0u));
    if (r.l3_hit) hits++;
    const int64_t uncongested =
        cfg.local_dram_cycles +
        topo_.Hops(node, pt_.HomeOf(page)) * cfg.remote_hop_cycles;
    if (r.remote && r.cycles > uncongested) congested++;
  }

  digest.Add(counters_.l3_hits);
  digest.Add(counters_.l3_misses);
  digest.Add(counters_.imc_bytes);
  digest.Add(counters_.local_bytes);
  digest.Add(counters_.remote_in_bytes);
  digest.Add(counters_.node_access_pages);
  digest.Add(counters_.ht_link_bytes);
  for (const int64_t counter :
       {counters_.ht_bytes_total, counters_.l3_invalidations,
        counters_.minor_faults, counters_.first_touch_faults,
        counters_.thread_migrations, counters_.stolen_tasks,
        counters_.tasks_spawned, counters_.load_balance_rounds}) {
    digest.Add(static_cast<uint64_t>(counter));
  }
  digest.Add(counters_.core_busy_cycles);
  digest.Add(counters_.stream_ht_bytes);
  digest.Add(counters_.stream_imc_bytes);
  digest.Add(counters_.stream_busy_cycles);

  // The digest must not pin a trace that skips a path.
  EXPECT_GT(hits, 0);
  EXPECT_EQ(hits, counters_.total_l3_hits());
  EXPECT_GT(counters_.l3_invalidations, 0);
  EXPECT_GT(invalidating_writes, 0);
  EXPECT_GT(first_touch_writes, 0);
  EXPECT_GT(congested, 0);
  EXPECT_GT(counters_.first_touch_faults, 0);
  EXPECT_EQ(digest.value(), kRecordedDigest)
      << "digest 0x" << std::hex << digest.value() << std::dec << ", "
      << hits << " hits, " << counters_.l3_invalidations
      << " invalidations by " << invalidating_writes << " writes, "
      << first_touch_writes << " first-touch writes, " << congested
      << " congested accesses";
}

// A seeded trace that frees buffers while their pages are cached, digested.
// A freed buffer's cached pages keep their frames and their places in LRU
// order and leave only on reaching the tail, like any other page; freeing
// their frames at once (or never) would change which live page each later
// miss evicts, and so the hits, the cycles and the digest. The trace comes
// from all 16 cores over a changing set of buffers of up to about one
// socket's L3, placed three ways; about one access in 1500 frees the buffer
// of the page it just cached and creates another. A final scan of twice the
// L3 from every socket, reads only, misses at least a full L3 past any free
// frame, so every frame that held a freed page reaches the tail and leaves.
TEST_F(MemorySystemTest, FreedBufferTraceDigest) {
  constexpr int kAccesses = 150'000;
  constexpr int kLiveBuffers = 6;
  constexpr int kRecent = 256;
  constexpr uint64_t kFreeOneIn = 1500;
  constexpr uint64_t kMeanTickAccesses = 16'384;
  constexpr uint64_t kRecordedDigest = 0xf73547a4c20e9482ULL;
  const int64_t l3 = topo_.config().l3_pages_per_node;
  const int nodes = topo_.num_nodes();

  simcore::Rng rng(0xF4EEDULL);
  auto create_buffer = [&]() {
    const int64_t pages =
        l3 / 8 + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(l3)));
    const BufferId buf = pt_.CreateBuffer(pages);
    const uint64_t placement = rng.NextBounded(3);
    if (placement == 0) {
      pt_.PlaceAllOn(buf, static_cast<NodeId>(rng.NextBounded(nodes)));
    } else if (placement == 1) {
      pt_.PlaceChunkedRoundRobin(
          buf, 16 + static_cast<int64_t>(rng.NextBounded(49)));
    }  // else first touch
    return buf;
  };
  auto cache_sizes = [&]() {
    std::vector<int64_t> sizes;
    for (NodeId n = 0; n < nodes; ++n) sizes.push_back(mem_.l3(n).size());
    return sizes;
  };
  std::vector<BufferId> live;
  for (int b = 0; b < kLiveBuffers; ++b) live.push_back(create_buffer());

  std::vector<std::vector<PageId>> recent(
      static_cast<size_t>(nodes), std::vector<PageId>(kRecent, kInvalidPage));
  Fnv1a digest;
  auto add_result = [&](const AccessResult& r) {
    digest.Add(static_cast<uint64_t>(r.cycles));
    digest.Add((r.l3_hit ? 1u : 0u) | (r.remote ? 2u : 0u) |
               (r.first_touch ? 4u : 0u) | (r.minor_fault ? 8u : 0u));
  };
  int64_t hits = 0;
  int64_t frees = 0;
  int64_t first_touch_writes = 0;
  int64_t invalidating_writes = 0;
  mem_.BeginTick();
  for (int i = 0; i < kAccesses; ++i) {
    if (rng.NextBounded(kMeanTickAccesses) == 0) mem_.BeginTick();
    const CoreId core =
        static_cast<CoreId>(rng.NextBounded(topo_.total_cores()));
    const NodeId node = topo_.NodeOfCore(core);
    std::vector<PageId>& window = recent[static_cast<size_t>(node)];
    PageId page = window[rng.NextBounded(kRecent)];
    const bool revisit = rng.NextBernoulli(0.5);
    if (page == kInvalidPage || !pt_.IsLive(PageTable::BufferOf(page)) ||
        !revisit) {
      const BufferId buf = live[rng.NextBounded(live.size())];
      page = PageTable::PageOf(
          buf, static_cast<int64_t>(rng.NextBounded(
                   static_cast<uint64_t>(pt_.NumPages(buf)))));
    }
    window[static_cast<size_t>(i) % kRecent] = page;
    const bool is_write = rng.NextBernoulli(0.3);
    const int stream = static_cast<int>(rng.NextBounded(perf::kMaxStreams));

    const int64_t invalidations = counters_.l3_invalidations;
    const AccessResult r = mem_.Access(core, page, is_write, stream);
    if (is_write && r.first_touch) first_touch_writes++;
    if (counters_.l3_invalidations > invalidations) invalidating_writes++;
    if (r.l3_hit) hits++;
    add_result(r);

    if (rng.NextBounded(kFreeOneIn) == 0) {
      // `page` is in this socket's L3 now, and likely many more of its
      // buffer's pages in every socket's.
      const BufferId freed = PageTable::BufferOf(page);
      const std::vector<int64_t> before = cache_sizes();
      pt_.FreeBuffer(freed);
      ASSERT_EQ(cache_sizes(), before) << "a free emptied frames, access " << i;
      *std::find(live.begin(), live.end(), freed) = create_buffer();
      frees++;
    }
  }

  for (NodeId n = 0; n < nodes; ++n) {
    const BufferId scan = pt_.CreateBuffer(2 * l3);
    for (int64_t p = 0; p < 2 * l3; ++p) {
      add_result(mem_.Access(topo_.CoreAt(n, 0), PageTable::PageOf(scan, p),
                             /*is_write=*/false, perf::kNoStream));
    }
  }

  for (NodeId n = 0; n < nodes; ++n) {
    digest.Add(static_cast<uint64_t>(pt_.ResidentPages(n)));
    digest.Add(static_cast<uint64_t>(mem_.l3(n).size()));
  }
  digest.Add(counters_.l3_hits);
  digest.Add(counters_.l3_misses);
  digest.Add(counters_.imc_bytes);
  digest.Add(counters_.local_bytes);
  digest.Add(counters_.remote_in_bytes);
  digest.Add(counters_.node_access_pages);
  digest.Add(counters_.ht_link_bytes);
  for (const int64_t counter :
       {counters_.ht_bytes_total, counters_.l3_invalidations,
        counters_.minor_faults, counters_.first_touch_faults}) {
    digest.Add(static_cast<uint64_t>(counter));
  }
  digest.Add(counters_.stream_ht_bytes);
  digest.Add(counters_.stream_imc_bytes);

  // The digest must not pin a trace that skips a path.
  EXPECT_GT(hits, kAccesses / 20);
  EXPECT_GT(frees, 50);
  EXPECT_GT(first_touch_writes, 0);
  EXPECT_GT(invalidating_writes, 0);
  for (NodeId n = 0; n < nodes; ++n) {
    EXPECT_EQ(mem_.l3(n).size(), mem_.l3(n).capacity()) << "node " << n;
  }
  EXPECT_EQ(digest.value(), kRecordedDigest)
      << "digest 0x" << std::hex << digest.value() << std::dec << ", "
      << hits << " hits, " << frees << " buffers freed, "
      << counters_.l3_invalidations << " invalidations by "
      << invalidating_writes << " writes, " << first_touch_writes
      << " first-touch writes";
}

}  // namespace
}  // namespace elastic::numasim
