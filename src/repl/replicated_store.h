// Sharded, replicated metadata store (ROADMAP item 3), and the only
// durable kv:: store: a single durable store is one shard with zero
// followers (followers_per_shard = 0, write_quorum = 0, a data_dir).
//
// The paper's HopsFS result rests on a replicated, partitioned NewSQL
// store under the namenode; this module reproduces that shape in
// process. Keys are placed on N shards by consistent hashing (a seeded
// vnode ring, so placement is stable and deterministic). Each shard is a
// replica group: one leader plus K followers. Every replica owns a WAL
// file (shardSSS_replicaRR.wal), a checkpoint image in a pages file
// beside it (shardSSS_replicaRR.pages, created by the replica's first
// checkpoint) and an in-memory kv::KvStore, the state machine the log
// applies to. All replicas of a shard share one LSN sequence.
//
// Commit protocol (per shard, serialized by the shard mutex):
//   1. the leader appends the transaction's Put/Delete records plus a
//      Commit marker to its own WAL and group-fsyncs them;
//   2. `repl.leader.crash` fault point: a triggered fault kills the
//      leader *after* its local durable append but *before* anything is
//      shipped — the canonical mid-commit crash;
//   3. the encoded frame batch is shipped to each follower over an
//      in-process channel (`repl.channel.send` fault point: `io` faults
//      corrupt the bytes, others drop the batch). A follower verifies
//      the batch with Wal::ValidatePrefix — the same frame scanner a
//      restarting primary uses — rejects it unless it starts exactly at
//      its next LSN (so every follower log is a strict prefix of the
//      leader's log), then durably appends + fsyncs it: that is the ack.
//      `repl.follower.apply` can delay the in-memory apply, leaving the
//      batch durable-but-unapplied (replication lag in applied LSN);
//   4. the commit is acknowledged only once >= write_quorum followers
//      acked; on a quorum miss the leader steps down and the commit
//      returns Unavailable (unacknowledged). An acked commit is applied
//      to the leader's store before the shard mutex is released, so a
//      checkpoint never images a store that lacks an acked write.
//
// Checkpoints run only when Checkpoint() is called. The leader images
// its store at its durable LSN L into a fresh page chain, flips the
// pages file's meta slot to it (`kvckpt1 <head> <L>`), frees the old
// chain and truncates its WAL to a checkpoint marker at L + 1. The
// marker then ships like any other record: a follower that receives it
// drains its apply queue and checkpoints at the same L, so every
// replica writes the same marker LSN (a failed follower checkpoint is a
// node loss). Open loads the image named by the meta slot and replays
// the WAL above its LSN; the shard log starts at the leader's
// checkpoint marker, and a follower whose log ends below that point is
// reported down (it would need the image, not the log, to catch up).
//
// Failover: when a leader dies (injected crash, poisoned WAL, or
// CrashReplica), a deterministic election picks the live replica with
// the highest durable LSN, ties broken by lowest replica id; a seeded
// Rng stamps each election with a reproducible term nonce. Because
// follower logs are strict prefixes of the leader's log, the max-LSN
// winner contains every quorum-acked write — an acked write survives
// any single-node crash by construction — while a commit the crashed
// leader never shipped exists on no surviving node and stays invisible.
// A crashed replica is a permanent node loss (its WAL is never
// reconsidered); lagging followers are caught up from the shard's
// in-memory log on the next ship.
//
// Transaction ids resume past the highest id in any replica's WAL, so
// the data records of a commit that lost its marker never join a later
// transaction's commit at replay.
//
// Cross-shard transactions commit shard-by-shard in shard-id order:
// before the first shard acks, any failure aborts the whole transaction
// (nothing durable anywhere); after the first ack the transaction is
// past its commit point and the remaining shards are retried against
// freshly elected leaders until they land, so a multi-shard commit is
// either fully invisible or fully applied even across a mid-commit
// leader kill. (If a later shard has lost *all* replicas the commit is
// stuck partial and reported Unavailable — with K >= 1 and single-node
// crashes this cannot happen.)
//
// The in-memory shard log is the catch-up source for lagging followers.
// After every commit, checkpoint and open it is trimmed to the lowest
// durable LSN among the live followers, so a caught-up shard (and any
// zero-follower shard) holds no records; ShardStatus::log_records shows
// what it holds.

#ifndef EXEARTH_REPL_REPLICATED_STORE_H_
#define EXEARTH_REPL_REPLICATED_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "kv/kvstore.h"
#include "kv/meta_store.h"

namespace exearth::repl {

struct ReplOptions {
  /// Number of shards (replica groups).
  int num_shards = 1;
  /// Followers per shard; the replica group size is 1 + this.
  int followers_per_shard = 2;
  /// Follower acks (durable appends of the whole commit batch) required
  /// before a commit is acknowledged; clamped to followers_per_shard.
  /// With the default 1, an acked write is durable on two nodes and
  /// survives any single-node crash. 0 (only meaningful with zero
  /// followers) degenerates to single-node durability.
  int write_quorum = 1;
  /// Partitions of each replica's in-memory kv::KvStore.
  int kv_partitions = 4;
  /// Virtual nodes per shard on the consistent-hash ring.
  int ring_vnodes = 16;
  /// Directory for per-replica WAL and checkpoint files (created if
  /// missing). Empty = volatile mode: the full protocol runs (channels,
  /// quorum, elections) but nothing touches disk — for tools and smoke
  /// tests.
  std::string data_dir;
  /// Seed for the election-term nonce stream (the winner rule itself is
  /// deterministic; the nonce makes each election traceable).
  uint64_t election_seed = 42;
};

/// One replica's view in a status snapshot.
struct ReplicaStatus {
  int shard = 0;
  int replica = 0;
  bool is_leader = false;
  bool down = false;
  uint64_t durable_lsn = 0;     // highest LSN durably appended
  uint64_t applied_lsn = 0;     // highest LSN applied to the in-memory store
  uint64_t lag_frames = 0;      // leader durable LSN - this durable LSN
  uint64_t checkpoint_lsn = 0;  // LSN the checkpoint image covers (0: none)
  uint64_t recovered_rows = 0;  // rows loaded from that image at open
  uint64_t recovered_txns = 0;  // committed transactions replayed at open
};

struct ShardStatus {
  int shard = 0;
  int leader = -1;  // replica id, -1 when every replica is down
  uint64_t leader_lsn = 0;
  uint64_t elections = 0;       // failovers since open
  uint64_t election_term = 0;   // seeded nonce of the latest election
  uint64_t log_records = 0;     // shard-log records held for catch-up
  std::vector<ReplicaStatus> replicas;
};

/// Monotonic counters, mirrored into the global MetricsRegistry under
/// `repl.*` (the determinism gate diffs these byte-for-byte).
struct ReplStats {
  uint64_t commits_acked = 0;
  uint64_t quorum_failures = 0;   // commits refused for lack of acks
  uint64_t elections = 0;         // failover elections across shards
  uint64_t leader_crashes = 0;    // injected leader kills
  uint64_t channel_drops = 0;     // batches dropped by repl.channel.send
  uint64_t follower_rejects = 0;  // batches failing ValidatePrefix/LSN
  uint64_t catchup_records = 0;   // records re-shipped to lagging followers
  uint64_t frames_shipped = 0;    // records durably appended on followers
};

class ShardGroup;

/// The sharded, replicated store. Implements kv::MetaStore, so
/// dfs::HopsFsCluster runs on it unchanged. Thread-safe; per-shard
/// commits are serialized by the shard mutex.
class ReplicatedKvStore final : public kv::MetaStore {
 public:
  /// Opens (or recovers) a store. With a data_dir, each replica loads its
  /// checkpoint image (if any) and replays its WAL above the image's LSN:
  /// committed transactions become visible, the replica with the highest
  /// durable LSN (ties: lowest id) becomes leader.
  static common::Result<std::unique_ptr<ReplicatedKvStore>> Open(
      const ReplOptions& options);

  ~ReplicatedKvStore() override;
  ReplicatedKvStore(const ReplicatedKvStore&) = delete;
  ReplicatedKvStore& operator=(const ReplicatedKvStore&) = delete;

  // --- kv::MetaStore -----------------------------------------------------
  std::unique_ptr<kv::MetaTransaction> Begin() override;
  common::Status Put(const std::string& key, std::string value) override;
  common::Result<std::string> Get(const std::string& key) override;
  common::Status Delete(const std::string& key) override;
  std::vector<std::pair<std::string, std::string>> ScanPrefix(
      const std::string& prefix, size_t limit = 0) const override;
  size_t Size() const override;

  // --- Sharding ----------------------------------------------------------
  /// Shard a key lives on (consistent-hash ring lookup).
  int ShardOf(const std::string& key) const;
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int replicas_per_shard() const { return options_.followers_per_shard + 1; }
  const ReplOptions& options() const { return options_; }

  // --- Follower reads ----------------------------------------------------
  /// Reads a key from a specific replica's store (leader or follower).
  /// Follower reads see the replica's *applied* state, which may lag the
  /// leader; NotFound if absent, Unavailable if the replica is down.
  common::Result<std::string> ReadReplica(int shard, int replica,
                                          const std::string& key) const;
  /// Prefix scan against a specific replica's applied state.
  common::Result<std::vector<std::pair<std::string, std::string>>>
  ScanReplicaPrefix(int shard, int replica, const std::string& prefix,
                    size_t limit = 0) const;

  // --- Introspection / ops ----------------------------------------------
  std::vector<ShardStatus> StatusSnapshot() const;
  ReplStats repl_stats() const;
  /// Readiness: every shard has a live leader and enough live followers
  /// to reach its write quorum.
  common::Status CheckReady() const;
  /// Permanently removes a replica (simulated node loss). Killing a
  /// leader triggers an immediate election. Drills and the blackout
  /// bench use this alongside the `repl.*` fault points.
  void CrashReplica(int shard, int replica);
  /// Checkpoints every shard (see the header comment); runs only when
  /// called. A failed leader checkpoint is returned and leaves its shard
  /// serving. FailedPrecondition on a volatile store.
  common::Status Checkpoint();

 private:
  friend class ReplTransaction;
  explicit ReplicatedKvStore(const ReplOptions& options);

  ReplOptions options_;
  // Consistent-hash ring: sorted vnode hashes + the shard each maps to.
  std::vector<uint64_t> ring_hash_;
  std::vector<int> ring_shard_;
  std::vector<std::unique_ptr<ShardGroup>> shards_;
  // Resumes past the highest transaction id in any replica's WAL.
  std::atomic<uint64_t> next_txn_id_{1};
};

}  // namespace exearth::repl

#endif  // EXEARTH_REPL_REPLICATED_STORE_H_
