#ifndef ELASTICORE_NUMASIM_TOPOLOGY_H_
#define ELASTICORE_NUMASIM_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "simcore/check.h"

namespace elastic::numasim {

/// Identifier of a processing core, 0-based across the whole machine.
using CoreId = int;
/// Identifier of a NUMA node (socket), 0-based.
using NodeId = int;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr CoreId kInvalidCore = -1;

/// Static description of the simulated NUMA machine.
///
/// Defaults model the paper's evaluation platform: four sockets of Quad-Core
/// AMD Opteron 8387 at 2.8 GHz, 6 MB shared L3 per socket, nodes connected by
/// HyperTransport 3.x links in a square (S0-S1, S0-S2, S1-S3, S2-S3), with
/// 41.6 GB/s maximum aggregate bandwidth.
struct MachineConfig {
  int num_nodes = 4;
  int cores_per_node = 4;

  /// Simulated page size in bytes (Linux default).
  int64_t page_bytes = 4096;

  /// L3 capacity per socket, in pages (6 MB / 4 KB = 1536).
  int l3_pages_per_node = 1536;

  /// Core frequency in cycles per second.
  double cycles_per_second = 2.8e9;

  /// Cost of one page worth of data served from the local shared L3.
  int64_t l3_hit_cycles = 500;
  /// Cost of one page fetched from the node-local DRAM bank (64 lines at
  /// ~10 cycles effective with streaming overlap).
  int64_t local_dram_cycles = 5000;
  /// Additional cost per HyperTransport hop for a remote fetch: remote DRAM
  /// costs 2x local at one hop, 3x at two — the classic Opteron NUMA factor.
  int64_t remote_hop_cycles = 5000;

  /// Per-direction bandwidth of one HT link in bytes per second.
  /// Four links * 2 directions * 5.2 GB/s = 41.6 GB/s aggregate.
  double ht_link_bytes_per_second = 5.2e9;

  /// When a link is saturated, the remote access pays this multiplier on the
  /// hop cost per unit of excess demand (queueing model).
  double ht_congestion_penalty = 2.0;

  int total_cores() const { return num_nodes * cores_per_node; }
};

/// Immutable machine topology: core-to-node mapping and inter-node links.
///
/// The link graph is the square of Figure 2 in the paper; other node counts
/// get a ring. Routes over it are a RouteTable's.
class Topology {
 public:
  explicit Topology(const MachineConfig& config);

  const MachineConfig& config() const { return config_; }

  int num_nodes() const { return config_.num_nodes; }
  int total_cores() const { return config_.total_cores(); }

  /// Node that owns the given core.
  NodeId NodeOfCore(CoreId core) const {
    ELASTIC_CHECK(core >= 0 && core < total_cores(), "core id out of range");
    return core / config_.cores_per_node;
  }

  /// Cores belonging to the given node, in ascending id order.
  std::vector<CoreId> CoresOfNode(NodeId node) const;

  /// The j-th core of node i: core(i, j) = cores_per_node * i + j.
  /// This is the allocation-mode indexing function from Section IV-B.
  CoreId CoreAt(NodeId node, int j) const;

  /// A directed link between two adjacent nodes. Links are numbered in
  /// (src, dst) order, so the links leaving a node are contiguous and
  /// ascend by destination.
  struct Link {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
  };
  const std::vector<Link>& links() const { return links_; }
  int num_links() const { return static_cast<int>(links_.size()); }

  /// Index into links() of the directed link src -> dst; aborts when the
  /// two nodes share no direct link.
  int LinkIndex(NodeId src, NodeId dst) const;

 private:
  void BuildLinks();

  MachineConfig config_;
  std::vector<Link> links_;
  // link_index_[src * num_nodes + dst] = index into links_ of the directed
  // link src -> dst, or -1 when the nodes share no direct HT link.
  std::vector<int> link_index_;
};

/// Shortest routes between every pair of a topology's nodes, in one flat
/// table. Diagonally opposite sockets of the paper's square (S0-S3 and
/// S1-S2) are two hops apart and route through the lowest-numbered common
/// neighbour, so their traffic is accounted on both traversed links.
///
/// MemorySystem, the one reader, builds the table; a topology alone (the
/// synthetic many-core platforms of the control-plane benches) holds none.
class RouteTable {
 public:
  explicit RouteTable(const Topology& topology);

  /// The directed links (indices into Topology::links()) that data fetched
  /// from `to` into `from` crosses, in order from `to`. Empty when
  /// from == to.
  struct LinkSpan {
    const int* first = nullptr;
    const int* last = nullptr;

    const int* begin() const { return first; }
    const int* end() const { return last; }
    size_t size() const { return static_cast<size_t>(last - first); }
  };
  LinkSpan Route(NodeId from, NodeId to) const {
    const size_t pair = PairIndex(from, to);
    return LinkSpan{links_.data() + offsets_[pair],
                    links_.data() + offsets_[pair + 1]};
  }

  /// Number of HT hops between two nodes (0 when equal).
  int Hops(NodeId from, NodeId to) const {
    const size_t pair = PairIndex(from, to);
    return offsets_[pair + 1] - offsets_[pair];
  }

 private:
  size_t PairIndex(NodeId from, NodeId to) const {
    ELASTIC_CHECK(from >= 0 && from < num_nodes_, "node id out of range");
    ELASTIC_CHECK(to >= 0 && to < num_nodes_, "node id out of range");
    return static_cast<size_t>(from) * static_cast<size_t>(num_nodes_) +
           static_cast<size_t>(to);
  }

  int num_nodes_;
  // Every route's links back to back: route (from, to) is
  // links_[offsets_[p], offsets_[p + 1]) with p = from * num_nodes + to.
  std::vector<int> links_;
  std::vector<int> offsets_;
};

}  // namespace elastic::numasim

#endif  // ELASTICORE_NUMASIM_TOPOLOGY_H_
