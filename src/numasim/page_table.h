#ifndef ELASTICORE_NUMASIM_PAGE_TABLE_H_
#define ELASTICORE_NUMASIM_PAGE_TABLE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "numasim/topology.h"
#include "simcore/check.h"

namespace elastic::numasim {

/// Identifier of a simulated memory buffer (a contiguous virtual range, e.g.
/// one column BAT or one operator intermediate).
using BufferId = uint32_t;
/// Global page identifier: (buffer << kPageIndexBits) | page_index.
using PageId = uint64_t;

inline constexpr int kPageIndexBits = 24;
inline constexpr PageId kInvalidPage = ~PageId{0};
/// A directory entry's frame for a socket whose L3 does not hold the page.
inline constexpr int32_t kNoFrame = -1;

/// Simulated OS page table with first-touch NUMA placement.
///
/// Buffers are virtual ranges of pages. A page has no home node until it is
/// first touched; the touching core's node becomes its home (the Linux
/// node-local default policy described in Section II-A of the paper).
/// Explicit placement helpers emulate data already loaded by the DBMS.
///
/// Every page also has a directory entry: its frame in each socket's L3
/// (kNoFrame where that socket does not cache it), which MemorySystem reads
/// and writes in place of a lookup in the caches. Entries live and die with
/// their buffer. A freed buffer's cached pages keep their frames, since the
/// caches do not learn of frees; when an L3 evicts one, ForgetFrame finds
/// its entry gone and does nothing.
class PageTable {
 public:
  /// Homes are stored in one signed byte, kInvalidNode when untouched.
  static constexpr int kMaxNodes = std::numeric_limits<int8_t>::max() + 1;

  explicit PageTable(int num_nodes);

  /// Creates a buffer of `num_pages` untouched pages. `label` is used only
  /// for diagnostics.
  BufferId CreateBuffer(int64_t num_pages, std::string label = "");

  /// Releases a buffer; its resident pages stop counting towards node
  /// residency. Freed ids are not reused.
  void FreeBuffer(BufferId buffer);

  /// True when the buffer id is live (created and not freed).
  bool IsLive(BufferId buffer) const;

  /// Global page id of the index-th page of a buffer.
  static PageId PageOf(BufferId buffer, int64_t index) {
    return (static_cast<PageId>(buffer) << kPageIndexBits) |
           static_cast<PageId>(index);
  }
  static BufferId BufferOf(PageId page) {
    return static_cast<BufferId>(page >> kPageIndexBits);
  }
  static int64_t IndexOf(PageId page) {
    return static_cast<int64_t>(page & ((PageId{1} << kPageIndexBits) - 1));
  }

  int64_t NumPages(BufferId buffer) const;
  const std::string& Label(BufferId buffer) const;

  /// Home node of a page, or kInvalidNode when never touched.
  NodeId HomeOf(PageId page) const;

  struct TouchResult {
    NodeId home = kInvalidNode;
    bool first_touch = false;
    /// The page's directory entry: frames[n] is its frame in node n's L3,
    /// or kNoFrame. Valid until the buffer is freed.
    int32_t* frames = nullptr;
  };

  /// Touches a page from `node`: allocates it there on first touch,
  /// otherwise returns the existing home.
  TouchResult Touch(PageId page, NodeId node) {
    ELASTIC_CHECK(node >= 0 && node < num_nodes_, "touching node out of range");
    Buffer& buf = GetBuffer(BufferOf(page));
    ELASTIC_CHECK(buf.live, "touching page of freed buffer");
    const int64_t index = IndexOf(page);
    ELASTIC_CHECK(index < static_cast<int64_t>(buf.home.size()),
                  "page index out of range");
    TouchResult result;
    result.frames = &buf.frames[static_cast<size_t>(index * num_nodes_)];
    if (buf.home[index] == kInvalidNode) {
      buf.home[index] = static_cast<int8_t>(node);
      resident_pages_[node]++;
      result.home = node;
      result.first_touch = true;
    } else {
      result.home = buf.home[index];
      result.first_touch = false;
    }
    return result;
  }

  /// Node `node`'s L3 evicted `page`: clears that frame from the page's
  /// entry, unless the buffer was freed and took its entries with it. Only
  /// a page Touch accepted can have been cached, so the buffer and index
  /// checks are implied.
  void ForgetFrame(PageId page, NodeId node) {
    Buffer& buf = buffers_[BufferOf(page)];
    if (!buf.live) return;
    buf.frames[static_cast<size_t>(IndexOf(page) * num_nodes_ + node)] = kNoFrame;
  }

  /// Pre-touches every page of the buffer on a single node (a loader thread
  /// that ran entirely on that node).
  void PlaceAllOn(BufferId buffer, NodeId node);

  /// Pre-touches pages round-robin across nodes in chunks of `chunk_pages`
  /// (parallel loader threads spread over the machine by the OS balancer).
  void PlaceChunkedRoundRobin(BufferId buffer, int64_t chunk_pages,
                              NodeId first_node = 0);

  /// Number of resident (touched, live) pages homed at `node`.
  int64_t ResidentPages(NodeId node) const;

  /// Resident pages of one buffer homed at `node`.
  int64_t ResidentPagesOfBuffer(BufferId buffer, NodeId node) const;

  int64_t total_buffers_created() const { return static_cast<int64_t>(buffers_.size()); }

  int num_nodes() const { return num_nodes_; }

 private:
  struct Buffer {
    std::string label;
    std::vector<int8_t> home;  // kInvalidNode (-1) when untouched
    /// Directory entries, num_nodes frames per page.
    std::vector<int32_t> frames;
    bool live = false;
  };

  const Buffer& GetBuffer(BufferId buffer) const {
    ELASTIC_CHECK(buffer < buffers_.size(), "buffer id out of range");
    return buffers_[buffer];
  }
  Buffer& GetBuffer(BufferId buffer) {
    ELASTIC_CHECK(buffer < buffers_.size(), "buffer id out of range");
    return buffers_[buffer];
  }

  int num_nodes_;
  std::vector<Buffer> buffers_;
  std::vector<int64_t> resident_pages_;
};

}  // namespace elastic::numasim

#endif  // ELASTICORE_NUMASIM_PAGE_TABLE_H_
