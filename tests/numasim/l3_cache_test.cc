#include "numasim/l3_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <unordered_map>

#include "numasim/page_table.h"
#include "simcore/rng.h"

namespace elastic::numasim {
namespace {

/// The node-based LRU (std::list in recency order plus a hash map into it)
/// that L3Cache once was: the reference its exact LRU behaviour is checked
/// against.
class ReferenceLru {
 public:
  explicit ReferenceLru(int capacity) : capacity_(capacity) {}

  bool Access(PageId page) {
    last_evicted_ = kInvalidPage;
    auto it = map_.find(page);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return true;
    }
    if (static_cast<int>(map_.size()) >= capacity_) {
      last_evicted_ = lru_.back();
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(page);
    map_[page] = lru_.begin();
    return false;
  }

  bool Contains(PageId page) const { return map_.count(page) != 0; }

  bool Invalidate(PageId page) {
    auto it = map_.find(page);
    if (it == map_.end()) return false;
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }

  int64_t size() const { return static_cast<int64_t>(map_.size()); }

  void Clear() {
    lru_.clear();
    map_.clear();
  }

  /// Resident pages, most recently used first.
  const std::list<PageId>& pages() const { return lru_; }

  /// The page the last Access evicted, or kInvalidPage.
  PageId last_evicted() const { return last_evicted_; }

 private:
  int capacity_;
  std::list<PageId> lru_;
  std::unordered_map<PageId, std::list<PageId>::iterator> map_;
  PageId last_evicted_ = kInvalidPage;
};

/// An L3Cache behind a page -> frame map: the page-level cache MemorySystem
/// builds from the page table's directory entries, with a hash map standing
/// in for the entries. Every lookup checks that the frame the map names
/// holds the page, and every eviction that the map named the evicted frame.
class DirectoryCache {
 public:
  explicit DirectoryCache(int capacity) : cache_(capacity) {}

  bool Access(PageId page) {
    last_evicted_ = kInvalidPage;
    const auto it = frames_.find(page);
    if (it != frames_.end()) {
      EXPECT_EQ(cache_.PageAt(it->second), page);
      cache_.Promote(it->second);
      return true;
    }
    const L3Cache::Fill fill = cache_.Insert(page);
    if (fill.evicted != kInvalidPage) {
      const auto evicted = frames_.find(fill.evicted);
      EXPECT_TRUE(evicted != frames_.end() && evicted->second == fill.frame)
          << "evicted page " << fill.evicted << " was not in frame "
          << fill.frame;
      if (evicted != frames_.end()) frames_.erase(evicted);
      last_evicted_ = fill.evicted;
    }
    frames_[page] = fill.frame;
    return false;
  }

  bool Contains(PageId page) const {
    const auto it = frames_.find(page);
    if (it == frames_.end()) return false;
    EXPECT_EQ(cache_.PageAt(it->second), page);
    return true;
  }

  bool Invalidate(PageId page) {
    const auto it = frames_.find(page);
    if (it == frames_.end()) return false;
    EXPECT_EQ(cache_.PageAt(it->second), page);
    cache_.Release(it->second);
    frames_.erase(it);
    return true;
  }

  int64_t size() const {
    EXPECT_EQ(static_cast<int64_t>(frames_.size()), cache_.size());
    return cache_.size();
  }

  void Clear() {
    cache_.Clear();
    frames_.clear();
  }

  PageId last_evicted() const { return last_evicted_; }

 private:
  L3Cache cache_;
  std::unordered_map<PageId, int32_t> frames_;
  PageId last_evicted_ = kInvalidPage;
};

TEST(L3CacheTest, MissThenHit) {
  DirectoryCache cache(4);
  EXPECT_FALSE(cache.Access(1));
  EXPECT_TRUE(cache.Access(1));
}

TEST(L3CacheTest, EvictsLeastRecentlyUsed) {
  DirectoryCache cache(2);
  cache.Access(1);
  cache.Access(2);
  cache.Access(1);      // 1 is now MRU
  cache.Access(3);      // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(L3CacheTest, CapacityIsRespected) {
  DirectoryCache cache(8);
  for (PageId p = 0; p < 100; ++p) cache.Access(p);
  EXPECT_EQ(cache.size(), 8);
}

TEST(L3CacheTest, InvalidateRemoves) {
  DirectoryCache cache(4);
  cache.Access(42);
  EXPECT_TRUE(cache.Invalidate(42));
  EXPECT_FALSE(cache.Contains(42));
  EXPECT_FALSE(cache.Invalidate(42));  // second time: nothing there
}

TEST(L3CacheTest, ClearDropsEverything) {
  DirectoryCache cache(4);
  cache.Access(1);
  cache.Access(2);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.Contains(1));
}

TEST(L3CacheTest, WorkingSetLargerThanCacheAlwaysMisses) {
  // Sequential scan of 2x the capacity: LRU gives zero hits on re-scan.
  DirectoryCache cache(16);
  for (int round = 0; round < 2; ++round) {
    for (PageId p = 0; p < 32; ++p) {
      EXPECT_FALSE(cache.Access(p)) << "round " << round << " page " << p;
    }
  }
}

TEST(L3CacheTest, WorkingSetWithinCacheAlwaysHitsAfterWarmup) {
  DirectoryCache cache(32);
  for (PageId p = 0; p < 16; ++p) cache.Access(p);
  for (int round = 0; round < 3; ++round) {
    for (PageId p = 0; p < 16; ++p) {
      EXPECT_TRUE(cache.Access(p));
    }
  }
}

TEST(L3CacheTest, MatchesReferenceLruOnRandomMix) {
  // Keys from several buffers (their page ids differ only in high bits),
  // indices up to 3x the capacity, half of them from a hot range so hits,
  // misses, evictions and invalidations of resident pages all occur often.
  // At capacity 1 every miss evicts the page that is both head and tail;
  // invalidations leave free frames that later misses fill before evicting.
  const BufferId kBuffers[] = {0, 1, 5, 4096};
  constexpr int kOps = 200'000;
  for (const int capacity : {1, 2, 3, 4, 7, 64, 1536, 2048}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    DirectoryCache cache(capacity);
    ReferenceLru reference(capacity);
    simcore::Rng rng(0x13C0DEULL + static_cast<uint64_t>(capacity));
    // Rare enough that the largest cache fills many times between clears.
    const uint64_t clear_one_in = 1000 + 20 * static_cast<uint64_t>(capacity);
    // Small caches, whose every frame turns over fastest, are checked after
    // every operation.
    const int check_every = capacity <= 7 ? 1 : 1000;
    int64_t hits = 0;
    int64_t invalidated = 0;
    for (int op = 1; op <= kOps; ++op) {
      const BufferId buffer = kBuffers[rng.NextBounded(4)];
      const uint64_t span = rng.NextBernoulli(0.5)
                                ? static_cast<uint64_t>(capacity) / 2 + 1
                                : 3 * static_cast<uint64_t>(capacity);
      const PageId page = PageTable::PageOf(
          buffer, static_cast<int64_t>(rng.NextBounded(span)));
      ASSERT_EQ(cache.Contains(page), reference.Contains(page)) << "op " << op;
      if (rng.NextBounded(clear_one_in) == 0) {
        cache.Clear();
        reference.Clear();
      } else if (rng.NextBernoulli(0.3)) {
        const bool removed = reference.Invalidate(page);
        ASSERT_EQ(cache.Invalidate(page), removed) << "op " << op;
        invalidated += removed ? 1 : 0;
      } else {
        const bool hit = reference.Access(page);
        ASSERT_EQ(cache.Access(page), hit) << "op " << op;
        ASSERT_EQ(cache.last_evicted(), reference.last_evicted())
            << "op " << op;
        hits += hit ? 1 : 0;
      }
      ASSERT_EQ(cache.size(), reference.size()) << "op " << op;
      if (op % check_every == 0) {
        for (const PageId resident : reference.pages()) {
          ASSERT_TRUE(cache.Contains(resident)) << "op " << op;
        }
      }
    }
    EXPECT_GT(hits, kOps / 20);
    EXPECT_GT(invalidated, kOps / 100);
  }
}

TEST(L3CacheTest, InvalidatesMruLruAndOnlyPage) {
  DirectoryCache cache(3);
  cache.Access(1);
  cache.Access(2);
  cache.Access(3);  // recency: 3 2 1
  EXPECT_TRUE(cache.Invalidate(3));  // the MRU page
  EXPECT_TRUE(cache.Invalidate(1));  // the LRU page
  EXPECT_EQ(cache.size(), 1);
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Invalidate(2));  // the only page
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_FALSE(cache.Access(4));
  EXPECT_TRUE(cache.Access(4));
  EXPECT_EQ(cache.size(), 1);
}

TEST(L3CacheTest, RefillAfterInvalidationsEvictsInLruOrder) {
  DirectoryCache cache(4);
  for (PageId p = 1; p <= 4; ++p) cache.Access(p);
  cache.Invalidate(2);
  cache.Invalidate(4);  // recency: 3 1
  EXPECT_FALSE(cache.Access(5));
  EXPECT_FALSE(cache.Access(6));  // refilled: 6 5 3 1
  EXPECT_EQ(cache.size(), 4);
  for (PageId p : {1, 3, 5, 6}) EXPECT_TRUE(cache.Contains(p)) << p;
  EXPECT_FALSE(cache.Access(7));  // evicts 1
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_FALSE(cache.Access(8));  // evicts 3
  EXPECT_FALSE(cache.Contains(3));
  EXPECT_TRUE(cache.Access(5));   // recency: 5 8 7 6
  EXPECT_FALSE(cache.Access(9));  // evicts 6
  EXPECT_FALSE(cache.Contains(6));
  for (PageId p : {5, 7, 8, 9}) EXPECT_TRUE(cache.Contains(p)) << p;
  EXPECT_EQ(cache.size(), 4);
}

TEST(L3CacheTest, ClearThenRefillToCapacity) {
  DirectoryCache cache(8);
  for (PageId p = 0; p < 20; ++p) cache.Access(p);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0);
  for (PageId p = 100; p < 108; ++p) EXPECT_FALSE(cache.Access(p)) << p;
  EXPECT_EQ(cache.size(), 8);
  for (PageId p = 100; p < 108; ++p) EXPECT_TRUE(cache.Access(p)) << p;
  EXPECT_FALSE(cache.Access(108));  // evicts 100, the LRU page
  EXPECT_FALSE(cache.Contains(100));
  EXPECT_EQ(cache.size(), 8);
}

}  // namespace
}  // namespace elastic::numasim
