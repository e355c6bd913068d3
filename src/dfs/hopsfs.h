// HopsFS-style filesystem metadata: the namespace lives as rows in the
// partitioned transactional KV store (kv::KvStore standing in for NDB), and
// any number of stateless NameNode front-ends execute operations as
// transactions against it.
//
// Row layout (all values are small encoded structs):
//   i|<parent_id>|<name>  -> inode row (id, type, size, blocks, inline
//                            flag, and — for small files — the payload
//                            itself: the "Size Matters" single-row path)
//   b|<inode_id>|<index>  -> block descriptor + chunk (simulated datanode)
//
// Inode-id keyed parent/name rows give HopsFS's partition-affinity: all
// children of a directory resolve through single-row reads, and most
// operations touch few partitions.

#ifndef EXEARTH_DFS_HOPSFS_H_
#define EXEARTH_DFS_HOPSFS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dfs/filesystem.h"
#include "kv/kvstore.h"
#include "kv/meta_store.h"

namespace exearth::dfs {

/// Shared metadata state: the metadata store plus the inode-id
/// allocator. One instance per cluster; create any number of NameNode
/// front-ends on it. The store is any kv::MetaStore: an embedded
/// in-memory kv::KvStore (the Options-only constructor) or an external
/// store such as repl::ReplicatedKvStore, which is also the durable one
/// (a single durable store is a shard with zero followers).
class HopsFsCluster {
 public:
  struct Options {
    int kv_partitions = 8;
    /// Files up to this size are stored inline in the metadata store.
    uint64_t inline_threshold_bytes = 64 * 1024;
    /// Simulated block size for the block path.
    uint64_t block_size_bytes = 1 * 1024 * 1024;
    /// Transparent retries on transaction conflicts (total attempts).
    int max_txn_retries = 16;
    /// Conflict-retry backoff: capped exponential with deterministic
    /// seeded jitter (see common::RetryPolicy). Tiny defaults — conflicts
    /// in the in-memory store resolve in microseconds.
    uint64_t retry_initial_backoff_us = 1;
    double retry_backoff_multiplier = 2.0;
    uint64_t retry_max_backoff_us = 1024;
    double retry_jitter = 0.5;
    uint64_t retry_seed = 1;
  };

  explicit HopsFsCluster(const Options& options);

  /// Cluster over an external metadata store (not owned; must outlive
  /// the cluster) — e.g. a repl::ReplicatedKvStore. The root inode is
  /// created only on a fresh namespace, and the inode-id allocator
  /// resumes past every recovered id, so ids never collide across
  /// restarts of a durable store. `id_shards` partitions the inode-id
  /// space into disjoint ranges allocated round-robin (pass the store's
  /// shard count so id allocation scales with the shards; 1 keeps the
  /// classic sequential 2, 3, 4, ... numbering).
  HopsFsCluster(const Options& options, kv::MetaStore* store,
                int id_shards = 1);

  kv::MetaStore& store() { return *meta_; }
  const Options& options() const { return options_; }

  /// Inode ids are allocated from per-shard ranges (shard s owns
  /// [2 + s * 2^40, 2 + (s+1) * 2^40)), round-robin across shards, so
  /// id allocation never serializes on one counter and resumed clusters
  /// can extend each range independently.
  int64_t AllocateInodeId() {
    const size_t shard =
        shard_next_id_.size() == 1
            ? 0
            : id_rr_.fetch_add(1, std::memory_order_relaxed) %
                  shard_next_id_.size();
    return shard_next_id_[shard]->fetch_add(1, std::memory_order_relaxed);
  }

  /// First inode id of an id shard's range (1 is the root, 0 the
  /// virtual parent; ranges start at 2).
  static int64_t IdShardBase(int shard) {
    return 2 + static_cast<int64_t>(shard) * kIdShardRange;
  }
  static constexpr int64_t kIdShardRange = int64_t{1} << 40;

  /// Number of conflict-retries performed across all namenodes.
  uint64_t txn_retries() const {
    return txn_retries_.load(std::memory_order_relaxed);
  }
  void CountRetry() { txn_retries_.fetch_add(1, std::memory_order_relaxed); }

 private:
  /// Sets up `id_shards` range allocators, then advances each past the
  /// highest id already present in its range (recovered namespaces).
  void InitIdAllocator(int id_shards);

  Options options_;
  // Owned backing store for the embedded constructor; null when the
  // cluster runs over an external MetaStore.
  std::unique_ptr<kv::KvStore> owned_store_;
  std::unique_ptr<kv::KvMetaStore> owned_adapter_;
  kv::MetaStore* meta_ = nullptr;
  std::vector<std::unique_ptr<std::atomic<int64_t>>> shard_next_id_;
  std::atomic<uint64_t> id_rr_{0};
  std::atomic<uint64_t> txn_retries_{0};
};

/// A stateless namenode front-end. Thread-compatible: use one per thread
/// (they share the cluster, which is thread-safe).
class HopsFsNameNode : public FileSystem {
 public:
  explicit HopsFsNameNode(HopsFsCluster* cluster) : cluster_(cluster) {}

  common::Status Mkdir(const std::string& path) override;
  common::Status Create(const std::string& path, uint64_t size_bytes,
                        const std::string& data) override;
  common::Result<FileInfo> GetFileInfo(const std::string& path) override;
  common::Result<std::vector<std::string>> List(
      const std::string& path) override;
  common::Status Remove(const std::string& path) override;
  common::Result<std::string> ReadFile(const std::string& path) override;
  /// Rename is O(1) regardless of subtree size: children are keyed by their
  /// parent's inode id, so moving a directory re-links one row (the HopsFS
  /// subtree-operations property).
  common::Status Rename(const std::string& from,
                        const std::string& to) override;
  common::Status RemoveRecursive(const std::string& path) override;
  common::Result<uint64_t> DiskUsage(const std::string& path) override;

  /// Readiness probe for the admin /healthz endpoint: a live metadata
  /// transaction (root listing) against the backing KV store.
  common::Status CheckReady() { return List("/").status(); }

 private:
  // Resolves the parent directory of `path`; returns its inode id and the
  // final path component via `leaf`.
  common::Result<int64_t> ResolveParent(kv::MetaTransaction* txn,
                                        const std::string& path,
                                        std::string* leaf);

  HopsFsCluster* cluster_;
};

}  // namespace exearth::dfs

#endif  // EXEARTH_DFS_HOPSFS_H_
