// Abstract metadata-store interface over the transactional KV layer.
//
// HopsFS (dfs/) was written directly against kv::KvStore; the replicated,
// sharded store (repl/) needs to slot in underneath it without dfs
// growing a dependency on repl. MetaStore/MetaTransaction capture exactly
// the surface HopsFS and its benches use: Begin() a strict-2PL
// transaction, auto-commit Put/Get/Delete, ScanPrefix and Size.
//
// Implementations:
//  * kv::KvMetaStore (kvstore.h) — thin adapter over a single in-memory
//    KvStore;
//  * repl::ReplicatedKvStore (src/repl/) — consistent-hash sharded,
//    leader/follower replicated store with quorum-acked commits; the
//    only durable implementation (one shard with zero followers is the
//    single durable store).
//
// Contract notes carried over from KvStore: transactions are strict 2PL
// with a no-wait policy (lock conflicts return Status::Aborted — callers
// abort and retry); a replicated implementation may additionally return
// Status::Unavailable when a shard has lost its quorum or a leader
// election is in flight (callers retry the whole transaction).

#ifndef EXEARTH_KV_META_STORE_H_
#define EXEARTH_KV_META_STORE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace exearth::kv {

/// One strict-2PL transaction against a MetaStore. Must be used by one
/// thread at a time; destruction without Commit aborts.
class MetaTransaction {
 public:
  virtual ~MetaTransaction() = default;

  /// Reads a key under its row lock. NotFound if absent; Aborted on a
  /// lock conflict (caller should Abort and retry).
  virtual common::Result<std::string> Get(const std::string& key) = 0;

  /// Read-committed read: no row lock taken (sees own buffered writes).
  virtual common::Result<std::string> GetCommitted(
      const std::string& key) = 0;

  /// Buffers a write (applied at Commit). Aborted on lock conflict.
  virtual common::Status Put(const std::string& key, std::string value) = 0;

  /// Buffers a deletion. Aborted on lock conflict.
  virtual common::Status Delete(const std::string& key) = 0;

  /// True if the key exists (own writes considered). Aborted on conflict.
  virtual common::Result<bool> Exists(const std::string& key) = 0;

  /// Applies buffered writes atomically and releases all locks.
  virtual common::Status Commit() = 0;

  /// Discards buffered writes and releases all locks.
  virtual void Abort() = 0;
};

/// The metadata store: a transactional, prefix-scannable key-value map.
class MetaStore {
 public:
  virtual ~MetaStore() = default;

  /// Starts a transaction.
  virtual std::unique_ptr<MetaTransaction> Begin() = 0;

  // Auto-commit single-key conveniences.
  virtual common::Status Put(const std::string& key, std::string value) = 0;
  virtual common::Result<std::string> Get(const std::string& key) = 0;
  virtual common::Status Delete(const std::string& key) = 0;

  /// All (key, value) pairs whose key starts with `prefix`, in key order.
  /// `limit` = 0 means unlimited. Reads committed data.
  virtual std::vector<std::pair<std::string, std::string>> ScanPrefix(
      const std::string& prefix, size_t limit = 0) const = 0;

  /// Total number of keys.
  virtual size_t Size() const = 0;
};

}  // namespace exearth::kv

#endif  // EXEARTH_KV_META_STORE_H_
