#include "numasim/page_table.h"

#include <utility>

#include "simcore/check.h"

namespace elastic::numasim {

PageTable::PageTable(int num_nodes) : num_nodes_(num_nodes) {
  ELASTIC_CHECK(num_nodes >= 1, "page table needs at least one node");
  ELASTIC_CHECK(num_nodes <= kMaxNodes, "more nodes than a page table home holds");
  resident_pages_.assign(num_nodes, 0);
}

BufferId PageTable::CreateBuffer(int64_t num_pages, std::string label) {
  ELASTIC_CHECK(num_pages >= 0, "negative buffer size");
  ELASTIC_CHECK(num_pages < (int64_t{1} << kPageIndexBits),
                "buffer exceeds max pages per buffer");
  Buffer buf;
  buf.label = std::move(label);
  buf.home.assign(static_cast<size_t>(num_pages), static_cast<int8_t>(kInvalidNode));
  buf.frames.assign(static_cast<size_t>(num_pages * num_nodes_), kNoFrame);
  buf.live = true;
  buffers_.push_back(std::move(buf));
  return static_cast<BufferId>(buffers_.size() - 1);
}

void PageTable::FreeBuffer(BufferId buffer) {
  Buffer& buf = GetBuffer(buffer);
  ELASTIC_CHECK(buf.live, "double free of buffer");
  for (int8_t home : buf.home) {
    if (home != kInvalidNode) resident_pages_[home]--;
  }
  buf.home.clear();
  buf.home.shrink_to_fit();
  buf.frames.clear();
  buf.frames.shrink_to_fit();
  buf.live = false;
}

bool PageTable::IsLive(BufferId buffer) const {
  if (buffer >= buffers_.size()) return false;
  return buffers_[buffer].live;
}

int64_t PageTable::NumPages(BufferId buffer) const {
  return static_cast<int64_t>(GetBuffer(buffer).home.size());
}

const std::string& PageTable::Label(BufferId buffer) const {
  return GetBuffer(buffer).label;
}

NodeId PageTable::HomeOf(PageId page) const {
  const Buffer& buf = GetBuffer(BufferOf(page));
  const int64_t index = IndexOf(page);
  ELASTIC_CHECK(index < static_cast<int64_t>(buf.home.size()), "page index out of range");
  return buf.home[index];
}

void PageTable::PlaceAllOn(BufferId buffer, NodeId node) {
  const int64_t pages = NumPages(buffer);
  for (int64_t i = 0; i < pages; ++i) Touch(PageOf(buffer, i), node);
}

void PageTable::PlaceChunkedRoundRobin(BufferId buffer, int64_t chunk_pages,
                                       NodeId first_node) {
  ELASTIC_CHECK(chunk_pages >= 1, "chunk must hold at least one page");
  const int64_t pages = NumPages(buffer);
  for (int64_t i = 0; i < pages; ++i) {
    const NodeId node =
        static_cast<NodeId>((first_node + i / chunk_pages) % num_nodes_);
    Touch(PageOf(buffer, i), node);
  }
}

int64_t PageTable::ResidentPages(NodeId node) const {
  ELASTIC_CHECK(node >= 0 && node < num_nodes_, "node id out of range");
  return resident_pages_[node];
}

int64_t PageTable::ResidentPagesOfBuffer(BufferId buffer, NodeId node) const {
  const Buffer& buf = GetBuffer(buffer);
  int64_t count = 0;
  for (int8_t home : buf.home) {
    if (home == node) count++;
  }
  return count;
}

}  // namespace elastic::numasim
