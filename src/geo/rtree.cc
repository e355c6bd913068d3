#include "geo/rtree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

#include "common/string_util.h"
#include "storage/page_chain.h"

namespace exearth::geo {

namespace {

// A node of one STR level under construction: its envelope and the
// contiguous [first, first + count) range it packs from the level below
// (from the sorted entries, for leaves).
struct PackedNode {
  Box box;
  uint32_t first = 0;
  uint32_t count = 0;
};

// One Sort-Tile-Recursive pass: sorts `items` by envelope-centre x, cuts
// them into ceil(sqrt(parents)) vertical strips, sorts each strip by
// centre y and packs runs of kMaxEntries into parents. The returned
// ranges index `items` in its new, permuted order.
template <typename T>
std::vector<PackedNode> PackLevel(std::vector<T>* items) {
  const size_t cap = RTree::kMaxEntries;
  const size_t n = items->size();
  std::sort(items->begin(), items->end(), [](const T& a, const T& b) {
    return a.box.Center().x < b.box.Center().x;
  });
  const size_t num_parents = (n + cap - 1) / cap;
  const size_t strips = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_parents))));
  const size_t strip_size = (n + strips - 1) / strips;
  std::vector<PackedNode> parents;
  parents.reserve(num_parents + strips);
  for (size_t begin = 0; begin < n; begin += strip_size) {
    const size_t end = std::min(begin + strip_size, n);
    std::sort(items->begin() + begin, items->begin() + end,
              [](const T& a, const T& b) {
                return a.box.Center().y < b.box.Center().y;
              });
    for (size_t i = begin; i < end; i += cap) {
      PackedNode parent;
      parent.first = static_cast<uint32_t>(i);
      parent.count = static_cast<uint32_t>(std::min(i + cap, end) - i);
      for (size_t j = i; j < i + parent.count; ++j) {
        parent.box.ExpandToInclude((*items)[j].box);
      }
      parents.push_back(parent);
    }
  }
  return parents;
}

}  // namespace

RTree RTree::BulkLoad(std::vector<Entry> entries) {
  RTree tree;
  tree.size_ = entries.size();
  if (entries.empty()) return tree;

  // levels[0] packs the entries into leaves; each level above packs the
  // one below until a single root remains.
  std::vector<std::vector<PackedNode>> levels;
  levels.push_back(PackLevel(&entries));
  size_t node_count = levels.back().size();
  while (levels.back().size() > 1) {
    std::vector<PackedNode> up = PackLevel(&levels.back());
    node_count += up.size();
    levels.push_back(std::move(up));
  }

  // Write the levels out breadth-first from the root. Every leaf sits on
  // level 0, so a level's nodes are written in the order their parents
  // listed them, and a node's children land at consecutive indices.
  tree.nodes_.reserve(node_count);
  tree.node_env_.Reserve(node_count);
  tree.ids_.reserve(entries.size());
  tree.entry_env_.Reserve(entries.size());
  std::vector<uint32_t> order = {0};  // this level's nodes, in output order
  uint32_t next_child = 1;
  for (size_t l = levels.size(); l-- > 0;) {
    std::vector<uint32_t> below;
    for (uint32_t idx : order) {
      const PackedNode& packed = levels[l][idx];
      FlatNode node;
      node.count = static_cast<uint16_t>(packed.count);
      node.leaf = l == 0 ? 1 : 0;
      if (l == 0) {
        node.first = static_cast<uint32_t>(tree.ids_.size());
        for (uint32_t j = packed.first; j < packed.first + packed.count; ++j) {
          tree.ids_.push_back(entries[j].id);
          tree.entry_env_.PushBack(entries[j].box);
        }
      } else {
        node.first = next_child;
        next_child += packed.count;
        for (uint32_t j = packed.first; j < packed.first + packed.count; ++j) {
          below.push_back(j);
        }
      }
      tree.nodes_.push_back(node);
      tree.node_env_.PushBack(packed.box);
    }
    order = std::move(below);
  }
  return tree;
}

namespace {

// On-disk frozen-tree stream (through a PageChain). Little-endian,
// pinned by the golden fixture alongside the page/WAL formats.
constexpr uint64_t kFrozenMagic = 0x3145525452414545ull;  // "EEARTRE1"
constexpr uint32_t kFrozenVersion = 1;

common::Status WriteBox(storage::PageChainWriter* w, const Box& b) {
  EEA_RETURN_NOT_OK(w->WriteF64(b.min_x));
  EEA_RETURN_NOT_OK(w->WriteF64(b.min_y));
  EEA_RETURN_NOT_OK(w->WriteF64(b.max_x));
  return w->WriteF64(b.max_y);
}

common::Status ReadBox(storage::PageChainReader* r, Box* b) {
  EEA_ASSIGN_OR_RETURN(b->min_x, r->ReadF64());
  EEA_ASSIGN_OR_RETURN(b->min_y, r->ReadF64());
  EEA_ASSIGN_OR_RETURN(b->max_x, r->ReadF64());
  EEA_ASSIGN_OR_RETURN(b->max_y, r->ReadF64());
  return common::Status::OK();
}

common::Status Corrupt(const char* what) {
  return common::Status::IOError(
      common::StrFormat("OpenFrozen: corrupt frozen r-tree (%s)", what));
}

}  // namespace

common::Status RTree::FreezeTo(storage::BufferPool* pool,
                               storage::PageId* head) const {
  storage::PageChainWriter w(pool, /*lsn=*/0);
  EEA_RETURN_NOT_OK(w.WriteU64(kFrozenMagic));
  EEA_RETURN_NOT_OK(w.WriteU32(kFrozenVersion));
  EEA_RETURN_NOT_OK(w.WriteU64(size_));
  EEA_RETURN_NOT_OK(w.WriteU64(nodes_.size()));
  EEA_RETURN_NOT_OK(w.WriteU64(ids_.size()));
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const FlatNode& node = nodes_[i];
    EEA_RETURN_NOT_OK(WriteBox(&w, node_env_.At(i)));
    EEA_RETURN_NOT_OK(w.WriteU32(node.first));
    EEA_RETURN_NOT_OK(w.WriteU32(static_cast<uint32_t>(node.count) |
                                 (static_cast<uint32_t>(node.leaf) << 16)));
  }
  for (size_t i = 0; i < ids_.size(); ++i) {
    EEA_RETURN_NOT_OK(WriteBox(&w, entry_env_.At(i)));
    EEA_RETURN_NOT_OK(w.WriteU64(std::bit_cast<uint64_t>(ids_[i])));
  }
  EEA_ASSIGN_OR_RETURN(*head, w.Finish());
  return common::Status::OK();
}

common::Result<RTree> RTree::OpenFrozen(storage::BufferPool* pool,
                                        storage::PageId head) {
  storage::PageChainReader r(pool, head);
  EEA_ASSIGN_OR_RETURN(uint64_t magic, r.ReadU64());
  if (magic != kFrozenMagic) {
    return common::Status::IOError(
        "OpenFrozen: page chain is not a frozen r-tree");
  }
  EEA_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kFrozenVersion) {
    return common::Status::IOError(common::StrFormat(
        "OpenFrozen: frozen r-tree format version mismatch: file has v%u, "
        "this reader supports v%u",
        version, kFrozenVersion));
  }
  EEA_ASSIGN_OR_RETURN(uint64_t size, r.ReadU64());
  EEA_ASSIGN_OR_RETURN(uint64_t node_count, r.ReadU64());
  EEA_ASSIGN_OR_RETURN(uint64_t entry_count, r.ReadU64());
  if (size != entry_count) return Corrupt("size differs from entry count");

  // The counts come from disk, so nothing is reserved from them: nodes
  // are read one at a time and checked to be the breadth-first layout
  // BulkLoad writes — internal child ranges tiling [1, node_count), leaf
  // ranges tiling [0, entry_count), both in order, at most kMaxHeight
  // levels. That bounds every later traversal, and entry_count, once it
  // equals the leaves' total, is safe to reserve.
  RTree tree;
  tree.size_ = size;
  uint64_t next_child = 1;
  uint64_t next_entry = 0;
  uint64_t level_end = 1;  // one past the last node of the current level
  int height = 1;
  for (uint64_t i = 0; i < node_count; ++i) {
    Box box;
    EEA_RETURN_NOT_OK(ReadBox(&r, &box));
    FlatNode node;
    EEA_ASSIGN_OR_RETURN(node.first, r.ReadU32());
    EEA_ASSIGN_OR_RETURN(uint32_t packed, r.ReadU32());
    node.count = static_cast<uint16_t>(packed & 0xffffu);
    node.leaf = static_cast<uint16_t>(packed >> 16);
    if (node.leaf > 1) return Corrupt("leaf flag is not 0 or 1");
    if (node.count == 0 || node.count > kMaxEntries) {
      return Corrupt("node fan-out outside [1, kMaxEntries]");
    }
    if (i == level_end) {
      level_end = next_child;
      if (++height > kMaxHeight) return Corrupt("tree deeper than kMaxHeight");
    }
    if (node.leaf != 0) {
      if (node.first != next_entry) return Corrupt("leaf ranges do not tile");
      next_entry += node.count;
    } else {
      if (node.first != next_child || node.first <= i) {
        return Corrupt("child ranges do not tile breadth-first");
      }
      next_child += node.count;
    }
    tree.nodes_.push_back(node);
    tree.node_env_.PushBack(box);
  }
  if (node_count > 0 && next_child != node_count) {
    return Corrupt("child ranges do not cover every node");
  }
  if (next_entry != entry_count) {
    return Corrupt("leaf ranges do not cover every entry");
  }
  tree.ids_.reserve(entry_count);
  tree.entry_env_.Reserve(entry_count);
  for (uint64_t i = 0; i < entry_count; ++i) {
    Box box;
    EEA_RETURN_NOT_OK(ReadBox(&r, &box));
    EEA_ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
    tree.ids_.push_back(std::bit_cast<int64_t>(id));
    tree.entry_env_.PushBack(box);
  }
  return tree;
}

int RTree::Height() const {
  if (nodes_.empty()) return 1;
  int height = 1;
  for (uint32_t i = 0; nodes_[i].leaf == 0; i = nodes_[i].first) ++height;
  return height;
}

std::vector<int64_t> RTree::Query(const Box& query) const {
  std::vector<int64_t> out;
  VisitWith(query, [&](int64_t id) {
    out.push_back(id);
    return true;
  });
  return out;
}

std::vector<RTree::Entry> RTree::Nearest(const Point& p, size_t k) const {
  // Best-first search over nodes and entries ordered by box distance.
  struct QueueItem {
    double dist;
    uint32_t index;  // into nodes_, or into ids_ when `entry`
    bool entry;
    bool operator>(const QueueItem& other) const { return dist > other.dist; }
  };
  std::vector<Entry> out;
  if (nodes_.empty()) return out;
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
  pq.push({node_env_.At(0).Distance(p), 0, false});
  while (!pq.empty() && out.size() < k) {
    const QueueItem item = pq.top();
    pq.pop();
    if (item.entry) {
      out.push_back({entry_env_.At(item.index), ids_[item.index]});
      continue;
    }
    const FlatNode& node = nodes_[item.index];
    const simd::EnvelopeColumns& env = node.leaf != 0 ? entry_env_ : node_env_;
    for (uint32_t i = node.first; i < node.first + node.count; ++i) {
      pq.push({env.At(i).Distance(p), i, node.leaf != 0});
    }
  }
  return out;
}

}  // namespace exearth::geo
