#ifndef ELASTICORE_NUMASIM_L3_CACHE_H_
#define ELASTICORE_NUMASIM_L3_CACHE_H_

#include <cstdint>
#include <vector>

#include "numasim/page_table.h"

namespace elastic::numasim {

/// Page-granular LRU model of one socket's shared L3 cache.
///
/// The paper's effects (cache conflicts between co-located threads, cache
/// invalidations between scattered threads, L3 load-miss counts per socket)
/// are reproduced at page granularity: 6 MB / 4 KB = 1536 page frames per
/// socket. All cores of a socket share the structure, so unrelated threads
/// packed onto one node evict each other — exactly the "dense" failure mode
/// the paper describes.
///
/// The cache holds frames only: `capacity` frames doubly linked by index in
/// exact recency order and a stack of the frames not in use, allocated once.
/// Which frame holds a page is the page's directory entry in the PageTable
/// (PageTable::TouchResult::frames), so a lookup is one load there and the
/// cache never searches. Whoever keeps the directory keeps it in step: it
/// records the frame Insert returns and clears the entry of the page Insert
/// reports evicted.
class L3Cache {
 public:
  explicit L3Cache(int capacity_pages);

  /// Marks a resident frame most recently used (a hit).
  void Promote(int32_t frame);

  struct Fill {
    /// The frame now holding the page, most recently used.
    int32_t frame = kNoFrame;
    /// The page the fill evicted, or kInvalidPage when a frame was free.
    PageId evicted = kInvalidPage;
  };
  /// Caches a page that is not resident (a miss): in a free frame, or else
  /// in the least recently used one, evicting its page.
  Fill Insert(PageId page);

  /// Empties a resident frame (cross-socket write invalidation).
  void Release(int32_t frame);

  /// The page a resident frame holds (for tests that check a directory
  /// entry against the cache).
  PageId PageAt(int32_t frame) const { return frames_[frame].page; }

  /// Number of resident pages.
  int64_t size() const {
    return capacity_ - static_cast<int64_t>(free_.size());
  }
  int capacity() const { return capacity_; }

  /// Empties every frame. The owner's directory entries go stale with it.
  void Clear();

 private:
  /// A resident page, linked towards the more (prev) and less (next)
  /// recently used frames.
  struct Frame {
    PageId page = kInvalidPage;
    int32_t prev = kNoFrame;
    int32_t next = kNoFrame;
  };

  void Unlink(int32_t frame);
  void PushFront(int32_t frame);

  int capacity_;
  std::vector<Frame> frames_;
  /// Frames holding no page; Release pushes, a fill pops.
  std::vector<int32_t> free_;
  int32_t head_ = kNoFrame;  // most recently used
  int32_t tail_ = kNoFrame;  // least recently used
};

}  // namespace elastic::numasim

#endif  // ELASTICORE_NUMASIM_L3_CACHE_H_
