// R-tree spatial index over (Box, id) entries.
//
// The tree is static: BulkLoad packs it with Sort-Tile-Recursive and it
// is never modified afterwards. This is the index Strabon-style spatial
// selection pushdown (E1/E2) and spatial link discovery (E10) sit on.
//
// One representation, built by STR straight into contiguous arrays:
//   - nodes: fixed-width FlatNodes laid out breadth-first, so the
//     children of an internal node (and the entries of a leaf) form one
//     contiguous [first, first + count) range;
//   - entry ids: one id per leaf entry, leaf by leaf;
//   - envelopes: struct-of-arrays columns for the nodes and for the
//     entries, each box stored once. A node's range is a contiguous slice
//     of these columns, so one geo::simd kernel call prunes all of its
//     children at once.
// Queries are allocation-free; FreezeTo/OpenFrozen move the arrays
// through a page chain unchanged.

#ifndef EXEARTH_GEO_RTREE_H_
#define EXEARTH_GEO_RTREE_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geo/geometry.h"
#include "geo/simd.h"
#include "storage/buffer_pool.h"

namespace exearth::geo {

/// A static R-tree mapping bounding boxes to opaque int64 ids.
class RTree {
 public:
  static constexpr int kMaxEntries = 16;
  /// Deepest tree the fixed traversal stack accepts (OpenFrozen rejects
  /// deeper streams; STR over 16-way nodes never gets close).
  static constexpr int kMaxHeight = 32;

  struct Entry {
    Box box;
    int64_t id = 0;
  };

  /// Fixed-width node. Children of an internal node (and entries of a
  /// leaf) are contiguous, so `first` + `count` fully address them; the
  /// node's own envelope is node_env_[index].
  struct FlatNode {
    uint32_t first = 0;  // index of first child (internal) / entry (leaf)
    uint16_t count = 0;
    uint16_t leaf = 0;
  };

  /// Per-traversal statistics, returned to the caller so concurrent
  /// queries never share a counter.
  struct TraversalStats {
    size_t nodes_visited = 0;
  };

  /// Builds a tree with Sort-Tile-Recursive packing.
  static RTree BulkLoad(std::vector<Entry> entries);

  /// Serializes the arrays into a page chain allocated from `pool`,
  /// returning the head page id in `*head`. Pages are written through the
  /// buffer pool; callers persist `*head` (and FlushAll/Sync) themselves.
  common::Status FreezeTo(storage::BufferPool* pool,
                          storage::PageId* head) const;

  /// Loads a tree serialized by FreezeTo. Reads go through the buffer
  /// pool (cold cache = storage reads, warm = pool hits). The arrays are
  /// identical to the source tree's, so query results are byte-identical
  /// by construction. A stream whose structure no BulkLoad could have
  /// produced is rejected with IOError.
  static common::Result<RTree> OpenFrozen(storage::BufferPool* pool,
                                          storage::PageId head);

  size_t size() const { return size_; }
  /// Height of the tree (1 for a single leaf or an empty tree).
  int Height() const;

  /// Ids of all entries whose box intersects `query`.
  std::vector<int64_t> Query(const Box& query) const;

  /// Calls `visitor(int64_t id)` for every entry intersecting `query`;
  /// return false from the visitor to stop early. Traversal statistics
  /// are added to `stats` when given. Safe for concurrent queries.
  template <typename Visitor>
  void VisitWith(const Box& query, Visitor&& visitor,
                 TraversalStats* stats = nullptr) const {
    VisitLeavesWith(
        query,
        [&](const int64_t* ids, uint32_t /*first*/, uint16_t /*count*/,
            uint64_t mask) {
          while (mask != 0) {
            const int i = std::countr_zero(mask);
            mask &= mask - 1;
            if (!visitor(ids[i])) return false;
          }
          return true;
        },
        stats);
  }

  /// Leaf-granular traversal for batch consumers: the visitor is called
  /// as `visitor(const int64_t* ids, uint32_t first, uint16_t count,
  /// uint64_t mask)` once per intersecting *leaf*, with that leaf's
  /// contiguous id range and the bitmask of entries whose envelope
  /// intersects `query` (bit i addresses ids[i]; bits at or above `count`
  /// are zero; leaves with an all-zero mask are skipped). Because a
  /// leaf's entries occupy the contiguous [first, first+count) slice of
  /// entry_envelopes(), the caller can evaluate further batched envelope
  /// predicates on the same slice with zero gathering — this is the hook
  /// the GeoStore/link probes use to settle their envelope fast paths
  /// while the slice is still in cache. Return false from the visitor to
  /// stop the traversal.
  ///
  /// Children are pruned in batches: one geo::simd kernel call tests all
  /// <= kMaxEntries child envelopes of a node, and set bits are consumed
  /// ascending, so traversal order, early-exit points and nodes_visited
  /// are identical across kernel variants.
  template <typename LeafVisitor>
  void VisitLeavesWith(const Box& query, LeafVisitor&& visitor,
                       TraversalStats* stats = nullptr) const {
    if (nodes_.empty()) return;
    // A child is pushed only after its envelope passed the parent's mask,
    // so the root is the one node whose envelope is tested on its own.
    if (!node_env_.At(0).Intersects(query)) {
      if (stats != nullptr) stats->nodes_visited += 1;
      return;
    }
    const simd::KernelTable& kern = simd::Kernels();
    // A node pushes at most kMaxEntries children on top of the unvisited
    // siblings of its ancestors, so kMaxHeight levels fit.
    uint32_t stack[kMaxHeight * kMaxEntries];
    size_t top = 0;
    stack[top++] = 0;
    size_t visited = 0;
    while (top > 0) {
      const FlatNode& node = nodes_[stack[--top]];
      ++visited;
      if (node.leaf != 0) {
        const uint64_t mask = kern.envelope_intersects(
            query, entry_env_.Slice(node.first, node.count));
        if (mask != 0 &&
            !visitor(ids_.data() + node.first, node.first, node.count, mask)) {
          break;
        }
      } else {
        uint64_t mask = kern.envelope_intersects(
            query, node_env_.Slice(node.first, node.count));
        while (mask != 0) {
          const int c = std::countr_zero(mask);
          mask &= mask - 1;
          stack[top++] = node.first + static_cast<uint32_t>(c);
        }
      }
    }
    if (stats != nullptr) stats->nodes_visited += visited;
  }

  /// SoA envelope columns of the leaf entries; the `first`/`count` pair
  /// of a VisitLeavesWith callback addresses a contiguous slice.
  const simd::EnvelopeColumns& entry_envelopes() const { return entry_env_; }

  /// The `k` entries nearest to `p` by box distance, closest first.
  std::vector<Entry> Nearest(const Point& p, size_t k) const;

 private:
  size_t size_ = 0;
  std::vector<FlatNode> nodes_;     // breadth-first; children contiguous
  std::vector<int64_t> ids_;        // leaf entry ids, leaf by leaf
  simd::EnvelopeColumns node_env_;  // envelope of nodes_[i]
  simd::EnvelopeColumns entry_env_; // envelope of ids_[i]
};

}  // namespace exearth::geo

#endif  // EXEARTH_GEO_RTREE_H_
