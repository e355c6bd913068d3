// A NewSQL-style partitioned, transactional key-value store.
//
// This is the stand-in for NDB/MySQL Cluster under HopsFS (DESIGN.md §2).
// The properties the HopsFS papers rely on are reproduced:
//  * hash partitioning with per-partition latches -> throughput scales with
//    partitions until cross-partition transactions dominate;
//  * strict two-phase row locking with a no-wait policy -> conflicting
//    transactions abort (Status::Aborted) and retry, never deadlock;
//  * multi-partition commits run a two-phase commit whose extra round is
//    observable in the statistics (E3's factorial sweep).
//
// KvStore is purely in memory. Durability lives one layer up, in
// repl::ReplicatedKvStore: each replica of a shard owns a KvStore as the
// state machine its log applies to (ApplyCommitted), plus a WAL and a
// checkpoint image. The single durable store is a shard with zero
// followers.
//
// Thread safety: the store may be used from many threads concurrently; each
// Transaction object must be used by one thread at a time.

#ifndef EXEARTH_KV_KVSTORE_H_
#define EXEARTH_KV_KVSTORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "kv/meta_store.h"

namespace exearth::kv {

/// Aggregate statistics (monotonic counters).
struct StoreStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;            // lock conflicts (no-wait policy)
  uint64_t single_partition_commits = 0;
  uint64_t multi_partition_commits = 0;  // required 2PC
  uint64_t gets = 0;
  uint64_t puts = 0;
};

class KvStore;

/// A transaction: reads/writes row-lock their keys on first access (strict
/// 2PL, no-wait). Commit applies buffered writes and releases locks; Abort
/// (or destruction) releases locks and discards writes. Implements
/// kv::MetaTransaction so HopsFS can run against either a single KvStore
/// or the sharded replicated store.
class Transaction : public MetaTransaction {
 public:
  ~Transaction() override;

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Reads a key. NotFound if absent; Aborted if another transaction holds
  /// the row lock (caller should Abort and retry).
  common::Result<std::string> Get(const std::string& key) override;

  /// Read-committed read: returns the committed value without taking the
  /// row lock (sees own buffered writes). Use for rows that only need
  /// snapshot consistency (e.g. ancestor path resolution in HopsFS, which
  /// locks only the rows it mutates).
  common::Result<std::string> GetCommitted(const std::string& key) override;

  /// Buffers a write (applied at Commit). Aborted on lock conflict.
  common::Status Put(const std::string& key, std::string value) override;

  /// Buffers a deletion. Aborted on lock conflict.
  common::Status Delete(const std::string& key) override;

  /// True if the key exists (own writes considered). Aborted on conflict.
  common::Result<bool> Exists(const std::string& key) override;

  /// Applies buffered writes atomically and releases all locks.
  common::Status Commit() override;

  /// Discards buffered writes and releases all locks.
  void Abort() override;

  uint64_t id() const { return id_; }
  /// Number of distinct partitions this transaction has touched.
  int PartitionsTouched() const;

 private:
  friend class KvStore;
  Transaction(KvStore* store, uint64_t id) : store_(store), id_(id) {}

  common::Status LockRow(const std::string& key);

  KvStore* store_;
  uint64_t id_;
  bool finished_ = false;
  // Buffered writes: nullopt value = delete.
  std::unordered_map<std::string, std::optional<std::string>> writes_;
  std::unordered_set<std::string> locked_;
};

/// The partitioned store.
class KvStore {
 public:
  explicit KvStore(int num_partitions);

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  int num_partitions() const { return static_cast<int>(partitions_.size()); }

  /// Starts a transaction.
  std::unique_ptr<Transaction> Begin();

  // Auto-commit single-key conveniences.
  common::Status Put(const std::string& key, std::string value);
  common::Result<std::string> Get(const std::string& key);
  common::Status Delete(const std::string& key);

  /// All (key, value) pairs whose key starts with `prefix`, merged across
  /// partitions in key order. `limit` = 0 means unlimited. Reads committed
  /// data (does not block on row locks).
  std::vector<std::pair<std::string, std::string>> ScanPrefix(
      const std::string& prefix, size_t limit = 0) const;

  /// Total number of keys.
  size_t Size() const;

  /// Partition index a key hashes to (exposed for tests/benches).
  int PartitionOf(const std::string& key) const;

  StoreStats stats() const;

  /// Writes one committed row (nullopt erases it). Takes no transaction
  /// and no row lock: the caller orders the writes. Transaction::Commit
  /// applies its buffered writes through it, and so does the replicated
  /// log on every replica (commit, follower apply, promotion, WAL replay
  /// and checkpoint-image load).
  void ApplyCommitted(const std::string& key,
                      std::optional<std::string> value);

 private:
  friend class Transaction;

  struct Partition {
    mutable std::mutex mu;
    std::map<std::string, std::string> rows;         // committed data
    std::unordered_map<std::string, uint64_t> locks; // key -> txn id
  };

  Partition& PartitionFor(const std::string& key) {
    return *partitions_[static_cast<size_t>(PartitionOf(key))];
  }

  std::vector<std::unique_ptr<Partition>> partitions_;
  std::atomic<uint64_t> next_txn_id_{1};

  // Stats counters (relaxed; read via stats()).
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> aborts_{0};
  std::atomic<uint64_t> single_partition_commits_{0};
  std::atomic<uint64_t> multi_partition_commits_{0};
  std::atomic<uint64_t> gets_{0};
  std::atomic<uint64_t> puts_{0};
};

/// MetaStore adapter over a single KvStore. KvStore itself cannot
/// implement MetaStore (its Begin() returns unique_ptr<Transaction>,
/// which is not covariant with unique_ptr<MetaTransaction>), so this
/// thin non-owning view bridges the two. The wrapped store must outlive
/// the adapter.
class KvMetaStore final : public MetaStore {
 public:
  explicit KvMetaStore(KvStore* store) : store_(store) {}

  std::unique_ptr<MetaTransaction> Begin() override {
    return store_->Begin();
  }
  common::Status Put(const std::string& key, std::string value) override {
    return store_->Put(key, std::move(value));
  }
  common::Result<std::string> Get(const std::string& key) override {
    return store_->Get(key);
  }
  common::Status Delete(const std::string& key) override {
    return store_->Delete(key);
  }
  std::vector<std::pair<std::string, std::string>> ScanPrefix(
      const std::string& prefix, size_t limit = 0) const override {
    return store_->ScanPrefix(prefix, limit);
  }
  size_t Size() const override { return store_->Size(); }

  KvStore* store() const { return store_; }

 private:
  KvStore* store_;
};

}  // namespace exearth::kv

#endif  // EXEARTH_KV_KVSTORE_H_
