#include "numasim/l3_cache.h"

#include "simcore/check.h"

namespace elastic::numasim {

L3Cache::L3Cache(int capacity_pages) : capacity_(capacity_pages) {
  ELASTIC_CHECK(capacity_pages >= 1, "cache needs at least one frame");
  int bits = 1;
  while ((int64_t{1} << bits) <= int64_t{2} * capacity_pages) ++bits;
  hash_shift_ = 64 - bits;
  slot_mask_ = (size_t{1} << bits) - 1;
  frames_.resize(static_cast<size_t>(capacity_pages));
  free_.reserve(static_cast<size_t>(capacity_pages));
  index_.resize(slot_mask_ + 1);
  Clear();
}

size_t L3Cache::HomeSlot(PageId page) const {
  // Fibonacci hashing: the top bits of the product depend on every bit of
  // the page id, so consecutive pages of one buffer spread over the index.
  return static_cast<size_t>((page * 0x9E3779B97F4A7C15ULL) >> hash_shift_);
}

size_t L3Cache::FindSlot(PageId page) const {
  size_t slot = HomeSlot(page);
  while (index_[slot].frame != kNone && index_[slot].page != page) {
    slot = (slot + 1) & slot_mask_;
  }
  return slot;
}

void L3Cache::EraseSlot(size_t hole) {
  for (size_t slot = (hole + 1) & slot_mask_; index_[slot].frame != kNone;
       slot = (slot + 1) & slot_mask_) {
    // An entry may move back into the hole only when the hole lies between
    // its home slot and its current slot; otherwise lookups would miss it.
    const size_t home = HomeSlot(index_[slot].page);
    if (((slot - home) & slot_mask_) >= ((slot - hole) & slot_mask_)) {
      index_[hole] = index_[slot];
      frames_[index_[hole].frame].slot = static_cast<int32_t>(hole);
      hole = slot;
    }
  }
  index_[hole].frame = kNone;
}

void L3Cache::Unlink(int32_t frame) {
  const Frame& f = frames_[frame];
  if (f.prev == kNone) {
    head_ = f.next;
  } else {
    frames_[f.prev].next = f.next;
  }
  if (f.next == kNone) {
    tail_ = f.prev;
  } else {
    frames_[f.next].prev = f.prev;
  }
}

void L3Cache::PushFront(int32_t frame) {
  Frame& f = frames_[frame];
  f.prev = kNone;
  f.next = head_;
  if (head_ == kNone) {
    tail_ = frame;
  } else {
    frames_[head_].prev = frame;
  }
  head_ = frame;
}

bool L3Cache::Access(PageId page) {
  const size_t slot = FindSlot(page);
  int32_t frame = index_[slot].frame;
  if (frame != kNone) {
    if (frame != head_) {
      Unlink(frame);
      PushFront(frame);
    }
    return true;
  }
  // Enter the page in the empty slot that ended its probe, then erase the
  // evicted page's entry: that backward shift keeps the new entry findable,
  // whereas erasing first could empty a slot earlier on `page`'s probe
  // sequence.
  int32_t evicted_slot = kNone;
  if (free_.empty()) {
    frame = tail_;
    Unlink(frame);
    evicted_slot = frames_[frame].slot;
  } else {
    frame = free_.back();
    free_.pop_back();
  }
  frames_[frame].page = page;
  frames_[frame].slot = static_cast<int32_t>(slot);
  index_[slot] = Slot{page, frame};
  if (evicted_slot != kNone) EraseSlot(static_cast<size_t>(evicted_slot));
  PushFront(frame);
  return false;
}

bool L3Cache::Contains(PageId page) const {
  return index_[FindSlot(page)].frame != kNone;
}

bool L3Cache::Invalidate(PageId page) {
  const size_t slot = FindSlot(page);
  const int32_t frame = index_[slot].frame;
  if (frame == kNone) return false;
  EraseSlot(slot);
  Unlink(frame);
  free_.push_back(frame);
  return true;
}

void L3Cache::Clear() {
  for (Slot& slot : index_) slot.frame = kNone;
  free_.clear();
  for (int32_t frame = capacity_ - 1; frame >= 0; --frame) {
    free_.push_back(frame);
  }
  head_ = kNone;
  tail_ = kNone;
}

}  // namespace elastic::numasim
