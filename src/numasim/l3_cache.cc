#include "numasim/l3_cache.h"

#include "simcore/check.h"

namespace elastic::numasim {

L3Cache::L3Cache(int capacity_pages) : capacity_(capacity_pages) {
  ELASTIC_CHECK(capacity_pages >= 1, "cache needs at least one frame");
  frames_.resize(static_cast<size_t>(capacity_pages));
  free_.reserve(static_cast<size_t>(capacity_pages));
  Clear();
}

void L3Cache::Unlink(int32_t frame) {
  const Frame& f = frames_[frame];
  if (f.prev == kNoFrame) {
    head_ = f.next;
  } else {
    frames_[f.prev].next = f.next;
  }
  if (f.next == kNoFrame) {
    tail_ = f.prev;
  } else {
    frames_[f.next].prev = f.prev;
  }
}

void L3Cache::PushFront(int32_t frame) {
  Frame& f = frames_[frame];
  f.prev = kNoFrame;
  f.next = head_;
  if (head_ == kNoFrame) {
    tail_ = frame;
  } else {
    frames_[head_].prev = frame;
  }
  head_ = frame;
}

void L3Cache::Promote(int32_t frame) {
  if (frame == head_) return;
  Unlink(frame);
  PushFront(frame);
}

L3Cache::Fill L3Cache::Insert(PageId page) {
  Fill fill;
  if (free_.empty()) {
    fill.frame = tail_;
    fill.evicted = frames_[tail_].page;
    Unlink(tail_);
  } else {
    fill.frame = free_.back();
    free_.pop_back();
  }
  frames_[fill.frame].page = page;
  PushFront(fill.frame);
  return fill;
}

void L3Cache::Release(int32_t frame) {
  Unlink(frame);
  free_.push_back(frame);
}

void L3Cache::Clear() {
  free_.clear();
  for (int32_t frame = capacity_ - 1; frame >= 0; --frame) {
    free_.push_back(frame);
  }
  head_ = kNoFrame;
  tail_ = kNoFrame;
}

}  // namespace elastic::numasim
