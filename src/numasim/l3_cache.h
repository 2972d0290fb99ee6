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
/// Every simulated page access goes through Access(), so the structure is
/// flat and allocated once: `capacity` frames doubly linked by index in
/// recency order, a stack of the frames not in use, and an open-addressing
/// index from page to frame (linear probing with backward-shift deletion, so
/// the constant eviction of a full cache leaves no tombstones behind). Each
/// frame records its index slot, so a miss probes the index once: the new
/// page takes the empty slot that ended its probe, and the evicted page's
/// slot is known without a lookup. The new page is entered before the
/// evicted one is erased, so for that moment the index holds capacity + 1
/// pages; its size is the smallest power of two larger than twice the
/// capacity, which always leaves an empty slot to end a probe or a shift.
class L3Cache {
 public:
  explicit L3Cache(int capacity_pages);

  /// Looks up a page; on miss, inserts it (evicting the LRU page when full).
  /// Returns true on hit.
  bool Access(PageId page);

  /// True when the page currently resides in this cache.
  bool Contains(PageId page) const;

  /// Removes the page if present (cross-socket write invalidation).
  /// Returns true when something was invalidated.
  bool Invalidate(PageId page);

  /// Number of resident pages.
  int64_t size() const {
    return capacity_ - static_cast<int64_t>(free_.size());
  }
  int capacity() const { return capacity_; }

  /// Drops all contents (e.g., between experiments).
  void Clear();

 private:
  static constexpr int32_t kNone = -1;

  /// A resident page, linked towards the more (prev) and less (next)
  /// recently used frames, and the index slot that holds it.
  struct Frame {
    PageId page = 0;
    int32_t prev = kNone;
    int32_t next = kNone;
    int32_t slot = kNone;
  };
  /// An index slot; empty when `frame` is kNone.
  struct Slot {
    PageId page = 0;
    int32_t frame = kNone;
  };

  size_t HomeSlot(PageId page) const;
  /// Slot holding `page`, or the empty slot that ends its probe sequence.
  size_t FindSlot(PageId page) const;
  /// Empties a slot and shifts the rest of its cluster back over the hole,
  /// updating the slot each moved frame records.
  void EraseSlot(size_t slot);
  void Unlink(int32_t frame);
  void PushFront(int32_t frame);

  int capacity_;
  std::vector<Frame> frames_;
  /// Frames holding no page; Invalidate pushes, a miss pops.
  std::vector<int32_t> free_;
  int32_t head_ = kNone;  // most recently used
  int32_t tail_ = kNone;  // least recently used
  std::vector<Slot> index_;
  size_t slot_mask_ = 0;
  int hash_shift_ = 0;
};

}  // namespace elastic::numasim

#endif  // ELASTICORE_NUMASIM_L3_CACHE_H_
