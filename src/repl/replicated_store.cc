#include "repl/replicated_store.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "storage/buffer_pool.h"
#include "storage/page_chain.h"
#include "storage/storage_manager.h"
#include "storage/wal.h"

namespace exearth::repl {

using common::Result;
using common::Status;
using common::StatusCode;
using common::StrFormat;
using storage::Wal;
using storage::WalRecord;
using storage::WalRecordType;

namespace {

// Last-write-wins per key, key-sorted so the WAL order (and therefore
// every replica's log) is deterministic.
using WriteSet = std::map<std::string, std::optional<std::string>>;

// Frames in each replica's page cache. Checkpoint images are written and
// read front to back, so the size changes no byte on disk.
constexpr size_t kImagePoolPages = 64;

// Meta slot contents naming the live checkpoint image. Pinned by the
// golden-format test.
constexpr char kMetaPrefix[] = "kvckpt1";

std::string EncodeCheckpointMeta(storage::PageId head, uint64_t lsn) {
  return StrFormat("%s %u %llu", kMetaPrefix, head,
                   static_cast<unsigned long long>(lsn));
}

Status DecodeCheckpointMeta(const std::string& meta, storage::PageId* head,
                            uint64_t* lsn) {
  unsigned int h = 0;
  unsigned long long l = 0;
  char tag[16] = {0};
  if (std::sscanf(meta.c_str(), "%15s %u %llu", tag, &h, &l) != 3 ||
      std::string(tag) != kMetaPrefix) {
    return Status::IOError("unrecognized checkpoint metadata: " + meta);
  }
  *head = static_cast<storage::PageId>(h);
  *lsn = l;
  return Status::OK();
}

// The marker Wal::Checkpoint(lsn) leaves: it takes the next LSN and
// carries the LSN it covers in txn_id.
WalRecord CheckpointMarker(uint64_t lsn) {
  WalRecord rec;
  rec.lsn = lsn + 1;
  rec.type = WalRecordType::kCheckpoint;
  rec.txn_id = lsn;
  return rec;
}

struct ReplMetrics {
  common::Counter* commits_acked;
  common::Counter* quorum_failures;
  common::Counter* elections;
  common::Counter* leader_crashes;
  common::Counter* channel_drops;
  common::Counter* follower_rejects;
  common::Counter* catchup_records;
  common::Counter* frames_shipped;

  static const ReplMetrics& Get() {
    static ReplMetrics m = [] {
      auto& reg = common::MetricsRegistry::Default();
      return ReplMetrics{
          reg.GetCounter("repl.commits_acked"),
          reg.GetCounter("repl.quorum_failures"),
          reg.GetCounter("repl.elections"),
          reg.GetCounter("repl.leader_crashes"),
          reg.GetCounter("repl.channel_drops"),
          reg.GetCounter("repl.follower_rejects"),
          reg.GetCounter("repl.catchup_records"),
          reg.GetCounter("repl.frames_shipped"),
      };
    }();
    return m;
  }
};

// Applies `records` (a log slice) to `store`: data records of committed
// transactions are applied in log order (2PL guarantees per-key record
// order equals commit order), records of transactions whose commit
// marker is absent land in `leftover` to wait for it. `applied_lsn`
// advances to the last commit or checkpoint marker seen. Returns the
// number of transactions applied.
uint64_t ApplyRecords(std::span<const WalRecord> records, kv::KvStore* store,
                      uint64_t* applied_lsn,
                      std::vector<WalRecord>* leftover) {
  std::set<uint64_t> committed;
  for (const WalRecord& rec : records) {
    if (rec.type == WalRecordType::kCommit) committed.insert(rec.txn_id);
  }
  for (const WalRecord& rec : records) {
    switch (rec.type) {
      case WalRecordType::kPut:
      case WalRecordType::kDelete:
        if (committed.count(rec.txn_id) == 0) {
          leftover->push_back(rec);
        } else if (rec.type == WalRecordType::kPut) {
          store->ApplyCommitted(rec.key, rec.value);
        } else {
          store->ApplyCommitted(rec.key, std::nullopt);
        }
        break;
      case WalRecordType::kCommit:
      case WalRecordType::kCheckpoint:
        if (rec.lsn > *applied_lsn) *applied_lsn = rec.lsn;
        break;
    }
  }
  return committed.size();
}

// Ring placement hash: FNV-1a alone clusters badly for short strings
// with shared prefixes (vnode names, "key-<n>" workloads) because its
// high bits avalanche poorly — a splitmix64-style finalizer spreads
// them before the 64-bit ring ordering is taken.
uint64_t PlacementHash(const std::string& s) {
  uint64_t z = common::Fnv1a(s);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

}  // namespace

// ------------------------------------------------------------- ShardGroup

/// One shard's replica group: leader + K followers, each with its own
/// WAL, checkpoint image and in-memory store. All mutation runs under
/// mu_ — replication within a shard is serialized; throughput scales
/// across shards.
class ShardGroup {
 public:
  ShardGroup(int shard_id, const ReplOptions& options)
      : shard_id_(shard_id),
        options_(options),
        rng_(options.election_seed +
             0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(shard_id + 1)) {}

  /// Creates (or recovers) every replica. With a data_dir each replica
  /// loads its image and replays its WAL; the replica with the highest
  /// durable LSN becomes leader (recovery selection — not counted as a
  /// failover election) and its log becomes the shard log. A follower
  /// whose log ends below the shard log's start is reported down; the
  /// shard log then keeps only what the live followers lack.
  /// `*max_txn_id` rises to the highest transaction id in any WAL.
  Status Open(uint64_t* max_txn_id) {
    std::lock_guard<std::mutex> lock(mu_);
    const int n = options_.followers_per_shard + 1;
    for (int i = 0; i < n; ++i) {
      Replica r;
      r.id = i;
      r.store = std::make_unique<kv::KvStore>(options_.kv_partitions);
      std::vector<WalRecord> log;
      if (!options_.data_dir.empty()) {
        EEA_RETURN_NOT_OK(RecoverReplica(&r, &log, max_txn_id));
      }
      replicas_.push_back(std::move(r));
      if (i == 0 || replicas_.back().durable_lsn >
                        replicas_[static_cast<size_t>(leader_)].durable_lsn) {
        leader_ = i;
        log_ = std::move(log);
      }
    }
    log_base_ = log_.empty() ? 0 : log_.front().lsn - 1;
    for (const Replica& r : replicas_) {
      if (r.durable_lsn < log_base_) DownLocked(r.id);
    }
    mem_next_lsn_ =
        replicas_[static_cast<size_t>(leader_)].durable_lsn + 1;
    TrimLogLocked();
    return Status::OK();
  }

  /// The quorum-replicated commit path; see the header's protocol doc.
  /// `expected_leader` guards against an election between the caller's
  /// Begin() and this commit (Aborted => retry the whole transaction).
  Status Replicate(uint64_t txn_id, const WriteSet& writes,
                   int expected_leader) {
    std::lock_guard<std::mutex> lock(mu_);
    EEA_RETURN_NOT_OK(EnsureLeaderLocked());
    if (leader_ != expected_leader) {
      return Status::Aborted("repl: leader changed mid-transaction; retry");
    }
    Replica& leader = replicas_[static_cast<size_t>(leader_)];
    // 1. Leader-local durable append: data records + commit marker,
    //    one group fsync.
    std::vector<WalRecord> batch;
    batch.reserve(writes.size() + 1);
    uint64_t cursor = mem_next_lsn_;
    Status append = Status::OK();
    for (const auto& [key, value] : writes) {
      WalRecord rec;
      rec.type = value.has_value() ? WalRecordType::kPut
                                   : WalRecordType::kDelete;
      rec.txn_id = txn_id;
      rec.key = key;
      rec.value = value.value_or("");
      append = LeaderAppendLocked(&leader, &cursor, &rec);
      if (!append.ok()) break;
      batch.push_back(std::move(rec));
    }
    if (append.ok()) {
      WalRecord marker;
      marker.type = WalRecordType::kCommit;
      marker.txn_id = txn_id;
      append = LeaderAppendLocked(&leader, &cursor, &marker);
      if (append.ok()) batch.push_back(std::move(marker));
    }
    if (append.ok() && leader.wal != nullptr) append = leader.wal->Sync();
    if (!append.ok()) {
      // The leader lost its log mid-commit (an injected storage.wal.*
      // fault or a real IO error): that node is gone. Nothing was
      // shipped, so the transaction is invisible everywhere.
      ++stats_.leader_crashes;
      ReplMetrics::Get().leader_crashes->Increment();
      DownLocked(leader_);
      ElectLocked();
      return Status::Unavailable("repl: leader lost its wal mid-commit: " +
                                 append.message());
    }
    leader.durable_lsn = batch.back().lsn;
    // 2. The canonical mid-commit kill: durable on the leader, shipped
    //    to nobody. The dead leader's WAL is never reconsidered, so the
    //    transaction stays invisible (unacked => invisible).
    Status crash = common::fault::MaybeFail("repl.leader.crash");
    if (!crash.ok()) {
      ++stats_.leader_crashes;
      ReplMetrics::Get().leader_crashes->Increment();
      DownLocked(leader_);
      ElectLocked();
      return Status::Unavailable(
          "repl: leader crashed mid-commit (injected)");
    }
    // 3. The batch enters the shard log (catch-up source).
    const size_t batch_size = batch.size();
    mem_next_lsn_ = leader.durable_lsn + 1;
    log_.insert(log_.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
    // 4. Ship to every live follower; a lagging follower receives the
    //    whole suffix it is missing in one batch.
    int acks = 0;
    for (Replica& f : replicas_) {
      if (f.id == leader_ || f.down) continue;
      if (ShipSuffixLocked(&f, batch_size)) ++acks;
    }
    const int quorum =
        std::min(options_.write_quorum, options_.followers_per_shard);
    if (acks < quorum) {
      ++stats_.quorum_failures;
      ReplMetrics::Get().quorum_failures->Increment();
      DownLocked(leader_);
      ElectLocked();
      return Status::Unavailable(
          StrFormat("repl: shard %d write quorum not reached (%d/%d acks)",
                    shard_id_, acks, quorum));
    }
    ++stats_.commits_acked;
    ReplMetrics::Get().commits_acked->Increment();
    // 5. Apply to the leader's store before the shard mutex is released,
    //    so a checkpoint never images a store that lacks an acked write.
    //    The caller's kv transaction still holds the row locks.
    ApplyRecords(std::span(log_).last(batch_size), leader.store.get(),
                 &leader.applied_lsn, &leader.apply_queue);
    TrimLogLocked();
    return Status::OK();
  }

  /// Images the leader's store at its durable LSN, then ships the
  /// checkpoint marker like any other record (see the header comment).
  Status Checkpoint() {
    std::lock_guard<std::mutex> lock(mu_);
    EEA_RETURN_NOT_OK(EnsureLeaderLocked());
    Replica& leader = replicas_[static_cast<size_t>(leader_)];
    if (leader.wal == nullptr) {
      return Status::FailedPrecondition(
          "repl: a volatile store has nothing to checkpoint");
    }
    const uint64_t lsn = leader.durable_lsn;
    EEA_RETURN_NOT_OK(CheckpointReplica(&leader, lsn));
    log_.push_back(CheckpointMarker(lsn));
    for (Replica& f : replicas_) {
      if (f.id != leader_ && !f.down) ShipSuffixLocked(&f, 1);
    }
    TrimLogLocked();
    return Status::OK();
  }

  /// Current leader's store (runs a pending election if the leader is
  /// down). nullptr + *idx == -1 when the shard has no live replica.
  kv::KvStore* LeaderStore(int* idx) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!EnsureLeaderLocked().ok()) {
      *idx = -1;
      return nullptr;
    }
    *idx = leader_;
    return replicas_[static_cast<size_t>(leader_)].store.get();
  }

  Result<std::string> LeaderGet(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    EEA_RETURN_NOT_OK(EnsureLeaderLocked());
    return replicas_[static_cast<size_t>(leader_)].store->Get(key);
  }

  std::vector<std::pair<std::string, std::string>> LeaderScan(
      const std::string& prefix, size_t limit) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!EnsureLeaderLocked().ok()) return {};
    return replicas_[static_cast<size_t>(leader_)].store->ScanPrefix(prefix,
                                                                     limit);
  }

  size_t LeaderSize() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!EnsureLeaderLocked().ok()) return 0;
    return replicas_[static_cast<size_t>(leader_)].store->Size();
  }

  Result<std::string> ReadReplica(int replica, const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    EEA_RETURN_NOT_OK(CheckReplicaLocked(replica));
    return replicas_[static_cast<size_t>(replica)].store->Get(key);
  }

  Result<std::vector<std::pair<std::string, std::string>>> ScanReplica(
      int replica, const std::string& prefix, size_t limit) const {
    std::lock_guard<std::mutex> lock(mu_);
    EEA_RETURN_NOT_OK(CheckReplicaLocked(replica));
    return replicas_[static_cast<size_t>(replica)].store->ScanPrefix(prefix,
                                                                     limit);
  }

  void Crash(int replica) {
    std::lock_guard<std::mutex> lock(mu_);
    if (replica < 0 || replica >= static_cast<int>(replicas_.size())) return;
    if (replicas_[static_cast<size_t>(replica)].down) return;
    DownLocked(replica);
    if (replica == leader_) ElectLocked();
  }

  ShardStatus Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    ShardStatus out;
    out.shard = shard_id_;
    out.leader =
        (leader_ >= 0 && !replicas_[static_cast<size_t>(leader_)].down)
            ? leader_
            : -1;
    out.leader_lsn =
        out.leader >= 0
            ? replicas_[static_cast<size_t>(out.leader)].durable_lsn
            : 0;
    out.elections = elections_;
    out.election_term = election_term_;
    out.log_records = log_.size();
    for (const Replica& r : replicas_) {
      ReplicaStatus rs;
      rs.shard = shard_id_;
      rs.replica = r.id;
      rs.is_leader = (r.id == out.leader);
      rs.down = r.down;
      rs.durable_lsn = r.durable_lsn;
      rs.applied_lsn = r.applied_lsn;
      rs.lag_frames = out.leader_lsn > r.durable_lsn
                          ? out.leader_lsn - r.durable_lsn
                          : 0;
      rs.checkpoint_lsn = r.checkpoint_lsn;
      rs.recovered_rows = r.recovered_rows;
      rs.recovered_txns = r.recovered_txns;
      out.replicas.push_back(rs);
    }
    return out;
  }

  ReplStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    ReplStats s = stats_;
    s.elections = elections_;
    return s;
  }

  Status CheckReady() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (leader_ < 0 || replicas_[static_cast<size_t>(leader_)].down) {
      return Status::Unavailable(
          StrFormat("repl: shard %d has no live leader", shard_id_));
    }
    int live_followers = 0;
    for (const Replica& r : replicas_) {
      if (!r.down && r.id != leader_) ++live_followers;
    }
    const int quorum =
        std::min(options_.write_quorum, options_.followers_per_shard);
    if (live_followers < quorum) {
      return Status::Unavailable(StrFormat(
          "repl: shard %d has %d live followers, quorum needs %d",
          shard_id_, live_followers, quorum));
    }
    return Status::OK();
  }

 private:
  struct Replica {
    int id = 0;
    bool down = false;
    std::unique_ptr<Wal> wal;  // null in volatile mode
    // The checkpoint image's pages file; null until the replica's first
    // checkpoint (or an open that finds the file).
    std::unique_ptr<storage::DiskStorageManager> disk;
    std::unique_ptr<storage::BufferPool> pool;
    std::unique_ptr<kv::KvStore> store;
    uint64_t durable_lsn = 0;
    uint64_t applied_lsn = 0;
    uint64_t checkpoint_lsn = 0;
    uint64_t recovered_rows = 0;
    uint64_t recovered_txns = 0;
    // Durably appended but not yet applied (repl.follower.apply lag),
    // plus records of transactions whose commit marker never arrived.
    std::vector<WalRecord> apply_queue;
  };

  std::string FilePath(int replica, const char* ext) const {
    return StrFormat("%s/shard%03d_replica%02d.%s", options_.data_dir.c_str(),
                     shard_id_, replica, ext);
  }

  // Loads `r`'s checkpoint image (if its pages file exists) and replays
  // its WAL, reading it once, above the image's LSN. `log` receives the
  // replica's log as its WAL holds it: the checkpoint marker, which
  // Wal::Replay skips, then every record after it.
  Status RecoverReplica(Replica* r, std::vector<WalRecord>* log,
                        uint64_t* max_txn_id) {
    EEA_ASSIGN_OR_RETURN(r->wal, Wal::Open(FilePath(r->id, "wal")));
    if (std::filesystem::exists(FilePath(r->id, "pages"))) {
      EEA_RETURN_NOT_OK(OpenPages(r));
      EEA_RETURN_NOT_OK(LoadImage(r));
    }
    const uint64_t wal_checkpoint = r->wal->checkpoint_lsn();
    if (wal_checkpoint > 0) log->push_back(CheckpointMarker(wal_checkpoint));
    EEA_RETURN_NOT_OK(r->wal->Replay([&](const WalRecord& rec) {
      *max_txn_id = std::max(*max_txn_id, rec.txn_id);
      log->push_back(rec);
      return Status::OK();
    }));
    r->durable_lsn = r->wal->next_lsn() - 1;
    // The WAL must continue the image: a WAL truncated past the image,
    // or one that ends below it, has lost committed records.
    if (wal_checkpoint > r->checkpoint_lsn ||
        r->durable_lsn < r->checkpoint_lsn) {
      return Status::IOError(StrFormat(
          "repl: %s (checkpoint %llu, last lsn %llu) does not continue its "
          "checkpoint image at lsn %llu",
          r->wal->path().c_str(),
          static_cast<unsigned long long>(wal_checkpoint),
          static_cast<unsigned long long>(r->durable_lsn),
          static_cast<unsigned long long>(r->checkpoint_lsn)));
    }
    // Records at or below the image's LSN are in the image already (a
    // crash between the meta flip and the WAL truncation leaves them).
    auto suffix = std::find_if(log->begin(), log->end(), [r](const auto& rec) {
      return rec.lsn > r->checkpoint_lsn;
    });
    r->applied_lsn = r->checkpoint_lsn;
    r->recovered_txns =
        ApplyRecords(std::span(suffix, log->end()), r->store.get(),
                     &r->applied_lsn, &r->apply_queue);
    return Status::OK();
  }

  Status OpenPages(Replica* r) {
    EEA_ASSIGN_OR_RETURN(
        r->disk, storage::DiskStorageManager::Open(FilePath(r->id, "pages")));
    r->pool =
        std::make_unique<storage::BufferPool>(r->disk.get(), kImagePoolPages);
    return Status::OK();
  }

  // Loads the image the meta slot names into `r`'s store; an empty slot
  // (the first checkpoint never completed) means no image.
  Status LoadImage(Replica* r) {
    EEA_ASSIGN_OR_RETURN(const std::string meta, r->disk->ReadMeta());
    if (meta.empty()) return Status::OK();
    storage::PageId head = storage::kInvalidPageId;
    EEA_RETURN_NOT_OK(DecodeCheckpointMeta(meta, &head, &r->checkpoint_lsn));
    storage::PageChainReader reader(r->pool.get(), head);
    EEA_ASSIGN_OR_RETURN(r->recovered_rows, reader.ReadU64());
    for (uint64_t i = 0; i < r->recovered_rows; ++i) {
      EEA_ASSIGN_OR_RETURN(std::string key, reader.ReadString());
      EEA_ASSIGN_OR_RETURN(std::string value, reader.ReadString());
      r->store->ApplyCommitted(key, std::move(value));
    }
    return Status::OK();
  }

  // Images `r`'s store, which has applied every commit up to `lsn`, and
  // truncates its WAL to a checkpoint marker at lsn + 1. Durability
  // order: pages -> fsync -> meta flip (the atomic commit point) -> free
  // the old image -> truncate the WAL. A crash anywhere in it recovers:
  // before the flip the old image and the full WAL win; after it the new
  // image wins and stale WAL records sit at or below its LSN.
  Status CheckpointReplica(Replica* r, uint64_t lsn) {
    if (r->pool == nullptr) EEA_RETURN_NOT_OK(OpenPages(r));
    storage::PageId old_head = storage::kInvalidPageId;
    EEA_ASSIGN_OR_RETURN(const std::string old_meta, r->disk->ReadMeta());
    if (!old_meta.empty()) {
      uint64_t old_lsn = 0;
      EEA_RETURN_NOT_OK(DecodeCheckpointMeta(old_meta, &old_head, &old_lsn));
    }
    storage::PageId head = storage::kInvalidPageId;
    Status s = WriteImage(r, lsn, &head);
    if (s.ok()) s = r->pool->FlushAll();
    if (s.ok()) s = r->disk->Sync();
    if (!s.ok()) {
      // Nothing references the failed image: take its pages back, then
      // drop the frames it left dirty, so the next checkpoint neither
      // writes them back nor grows the file. A page FreeChain cannot free
      // leaks, as at a crash. (The pages file is not reopened: its last
      // synced superblock may list as free pages the failed flush wrote.)
      storage::FreeChain(r->pool.get(), head);
      r->pool = std::make_unique<storage::BufferPool>(r->disk.get(),
                                                      kImagePoolPages);
      return s;
    }
    EEA_RETURN_NOT_OK(r->disk->WriteMeta(EncodeCheckpointMeta(head, lsn)));
    EEA_RETURN_NOT_OK(storage::FreeChain(r->pool.get(), old_head));
    EEA_RETURN_NOT_OK(r->wal->Checkpoint(lsn));
    r->checkpoint_lsn = lsn;
    r->durable_lsn = r->applied_lsn = lsn + 1;
    // Anything still queued belongs to transactions whose commit marker
    // never came; the truncated WAL no longer holds them either.
    r->apply_queue.clear();
    return Status::OK();
  }

  // Writes `r`'s store into the pool as a new page chain. `*head` names
  // its first page even when a write fails part-way.
  Status WriteImage(Replica* r, uint64_t lsn, storage::PageId* head) {
    // ScanPrefix is globally key-sorted: the image is deterministic.
    const auto rows = r->store->ScanPrefix("");
    storage::PageChainWriter writer(r->pool.get(), lsn);
    Status s = writer.WriteU64(rows.size());
    for (size_t i = 0; s.ok() && i < rows.size(); ++i) {
      s = writer.WriteString(rows[i].first);
      if (s.ok()) s = writer.WriteString(rows[i].second);
    }
    if (s.ok()) s = writer.Finish().status();
    *head = writer.head();
    return s;
  }

  Status CheckReplicaLocked(int replica) const {
    if (replica < 0 || replica >= static_cast<int>(replicas_.size())) {
      return Status::InvalidArgument(
          StrFormat("repl: shard %d has no replica %d", shard_id_, replica));
    }
    if (replicas_[static_cast<size_t>(replica)].down) {
      return Status::Unavailable(StrFormat(
          "repl: shard %d replica %d is down", shard_id_, replica));
    }
    return Status::OK();
  }

  Status LeaderAppendLocked(Replica* leader, uint64_t* cursor,
                            WalRecord* rec) {
    if (leader->wal != nullptr) {
      auto lsn = leader->wal->Append(rec->type, rec->txn_id, rec->key,
                                     rec->value);
      if (!lsn.ok()) return lsn.status();
      rec->lsn = *lsn;
    } else {
      rec->lsn = (*cursor)++;
    }
    return Status::OK();
  }

  void DownLocked(int idx) {
    replicas_[static_cast<size_t>(idx)].down = true;
  }

  Status EnsureLeaderLocked() {
    if (leader_ >= 0 && !replicas_[static_cast<size_t>(leader_)].down) {
      return Status::OK();
    }
    ElectLocked();
    if (leader_ < 0) {
      return Status::Unavailable(
          StrFormat("repl: shard %d has no live replicas", shard_id_));
    }
    return Status::OK();
  }

  // Deterministic failover: highest durable LSN wins, ties by lowest
  // replica id; the seeded rng stamps a reproducible term nonce. The
  // winner applies its pending batches (promotion) and its log becomes
  // the shard log.
  void ElectLocked() {
    int winner = -1;
    for (const Replica& r : replicas_) {
      if (r.down) continue;
      if (winner < 0 ||
          r.durable_lsn > replicas_[static_cast<size_t>(winner)].durable_lsn) {
        winner = r.id;
      }
    }
    leader_ = winner;
    if (winner < 0) return;
    ++elections_;
    ReplMetrics::Get().elections->Increment();
    election_term_ = rng_.Next();
    Replica& w = replicas_[static_cast<size_t>(winner)];
    DrainApplyLocked(&w);
    // The new leader's log is authoritative: drop bookkeeping for
    // records no surviving replica holds (the dead leader's unshipped
    // tail — exactly the unacked writes that must stay invisible).
    if (log_base_ + log_.size() > w.durable_lsn) {
      log_.resize(static_cast<size_t>(w.durable_lsn - log_base_));
    }
    mem_next_lsn_ = w.durable_lsn + 1;
  }

  // Ships the log suffix the follower is missing over the in-process
  // channel; returns true when the follower durably appended it (the
  // ack). `new_records` is the size of the just-committed batch, so
  // anything beyond it counts as catch-up traffic.
  bool ShipSuffixLocked(Replica* f, size_t new_records) {
    if (f->durable_lsn >= log_base_ + log_.size()) return true;  // caught up
    std::string bytes;
    for (size_t i = static_cast<size_t>(f->durable_lsn - log_base_);
         i < log_.size(); ++i) {
      bytes += Wal::EncodeRecordFrame(log_[i]);
    }
    // The channel fault boundary: `io` corrupts the bytes in flight
    // (the follower's shared frame scan must reject them), any other
    // code drops the batch on the floor (the follower just lags).
    Status fault = common::fault::MaybeFail("repl.channel.send");
    if (!fault.ok()) {
      if (fault.code() == StatusCode::kIOError) {
        bytes[bytes.size() / 2] ^= 0x5a;
      } else {
        ++stats_.channel_drops;
        ReplMetrics::Get().channel_drops->Increment();
        return false;
      }
    }
    // --- Follower side of the channel -----------------------------------
    // Verify with the same scanner a restarting primary uses, and
    // require the batch to start exactly at the next LSN so this log
    // stays a strict prefix of the leader's (the election invariant).
    size_t valid = 0;
    std::vector<WalRecord> records;
    Status scan = Wal::ValidatePrefix(bytes, &valid, &records);
    if (!scan.ok() || valid != bytes.size() || records.empty() ||
        records.front().lsn != f->durable_lsn + 1) {
      ++stats_.follower_rejects;
      ReplMetrics::Get().follower_rejects->Increment();
      return false;
    }
    const size_t shipped = records.size();
    const uint64_t last_lsn = records.back().lsn;
    for (WalRecord& rec : records) {
      if (rec.type == WalRecordType::kCheckpoint) {
        // The leader checkpointed at txn_id: image the same state, so
        // this replica writes its marker at the same LSN.
        DrainApplyLocked(f);
        if (!CheckpointReplica(f, rec.txn_id).ok()) {
          DownLocked(f->id);  // follower lost its files: node loss
          return false;
        }
        continue;
      }
      if (f->wal != nullptr &&
          !f->wal->Append(rec.type, rec.txn_id, rec.key, rec.value).ok()) {
        DownLocked(f->id);  // follower lost its wal: node loss
        return false;
      }
      f->apply_queue.push_back(std::move(rec));
    }
    if (f->wal != nullptr && !f->wal->Sync().ok()) {
      DownLocked(f->id);
      return false;
    }
    f->durable_lsn = last_lsn;  // the ack point
    stats_.frames_shipped += shipped;
    ReplMetrics::Get().frames_shipped->Increment(shipped);
    if (shipped > new_records) {
      const uint64_t catchup = shipped - new_records;
      stats_.catchup_records += catchup;
      ReplMetrics::Get().catchup_records->Increment(catchup);
    }
    // Applying to the in-memory store can lag behind the durable append
    // without voiding the ack; the queue drains on the next batch or on
    // promotion.
    Status apply = common::fault::MaybeFail("repl.follower.apply");
    if (apply.ok()) DrainApplyLocked(f);
    return true;
  }

  // Drops the log prefix every live follower holds durably. Catch-up
  // ships only records a live follower lacks, and a down replica never
  // returns, so nothing below the trim point is ever shipped again; a
  // shard with no live follower keeps no log. An election's winner holds
  // at least every live follower's durable LSN, so its log still
  // continues the trimmed one.
  void TrimLogLocked() {
    uint64_t keep_from = log_base_ + log_.size();
    for (const Replica& r : replicas_) {
      if (r.id != leader_ && !r.down) {
        keep_from = std::min(keep_from, r.durable_lsn);
      }
    }
    if (keep_from <= log_base_) return;
    const auto drop = static_cast<std::ptrdiff_t>(keep_from - log_base_);
    log_.erase(log_.begin(), log_.begin() + drop);
    log_base_ = keep_from;
  }

  void DrainApplyLocked(Replica* r) {
    if (r->apply_queue.empty()) return;
    std::vector<WalRecord> leftover;
    ApplyRecords(r->apply_queue, r->store.get(), &r->applied_lsn, &leftover);
    r->apply_queue.swap(leftover);
  }

  const int shard_id_;
  const ReplOptions options_;
  common::Rng rng_;

  mutable std::mutex mu_;
  std::vector<Replica> replicas_;
  int leader_ = -1;
  uint64_t elections_ = 0;
  uint64_t election_term_ = 0;
  // Next LSN in volatile mode (durable mode asks the leader's WAL).
  uint64_t mem_next_lsn_ = 1;
  // The shard's replicated log, the catch-up source for lagging
  // followers: log_[i].lsn == log_base_ + i + 1. It holds only what some
  // live follower still lacks (TrimLogLocked).
  std::vector<WalRecord> log_;
  uint64_t log_base_ = 0;
  ReplStats stats_;  // elections tracked separately in elections_
};

// -------------------------------------------------------- ReplTransaction

/// A cross-shard transaction: per touched shard, a strict-2PL
/// kv::Transaction on that shard's leader store (reads, row locks,
/// read-your-writes) plus a key-sorted write set for replication.
class ReplTransaction final : public kv::MetaTransaction {
 public:
  ReplTransaction(ReplicatedKvStore* store, uint64_t id)
      : store_(store), id_(id) {}

  ~ReplTransaction() override {
    if (!finished_) Abort();
  }

  Result<std::string> Get(const std::string& key) override {
    Handle* h = nullptr;
    EEA_RETURN_NOT_OK(HandleFor(key, &h));
    return h->txn->Get(key);
  }

  Result<std::string> GetCommitted(const std::string& key) override {
    Handle* h = nullptr;
    EEA_RETURN_NOT_OK(HandleFor(key, &h));
    return h->txn->GetCommitted(key);
  }

  Status Put(const std::string& key, std::string value) override {
    Handle* h = nullptr;
    EEA_RETURN_NOT_OK(HandleFor(key, &h));
    EEA_RETURN_NOT_OK(h->txn->Put(key, value));
    h->writes[key] = std::move(value);
    return Status::OK();
  }

  Status Delete(const std::string& key) override {
    Handle* h = nullptr;
    EEA_RETURN_NOT_OK(HandleFor(key, &h));
    EEA_RETURN_NOT_OK(h->txn->Delete(key));
    h->writes[key] = std::nullopt;
    return Status::OK();
  }

  Result<bool> Exists(const std::string& key) override {
    Handle* h = nullptr;
    EEA_RETURN_NOT_OK(HandleFor(key, &h));
    return h->txn->Exists(key);
  }

  // Shard-by-shard commit in shard-id order. Before the first shard
  // acks, any failure aborts everything (the transaction is invisible
  // everywhere). After the first ack the transaction is past its commit
  // point: remaining shards are driven to completion against freshly
  // elected leaders, so a mid-commit leader kill cannot strand a
  // half-visible multi-shard transaction.
  Status Commit() override {
    finished_ = true;
    bool past_commit_point = false;
    for (auto it = handles_.begin(); it != handles_.end(); ++it) {
      Handle& h = it->second;
      if (h.writes.empty()) {
        h.txn->Abort();  // read-only on this shard: release the row locks
        continue;
      }
      const Status s =
          store_->shards_[static_cast<size_t>(it->first)]->Replicate(
              id_, h.writes, h.leader);
      // Replicate applied the rows to the leader store under our row
      // locks (or refused the commit): Abort only releases the locks.
      h.txn->Abort();
      if (s.ok()) {
        past_commit_point = true;
      } else if (!past_commit_point) {
        Abort();
        return s;
      } else {
        EEA_RETURN_NOT_OK(RetryShardCommit(it->first, h.writes));
      }
    }
    return Status::OK();
  }

  void Abort() override {
    finished_ = true;
    for (auto& [sid, h] : handles_) h.txn->Abort();
  }

 private:
  struct Handle {
    std::unique_ptr<kv::MetaTransaction> txn;
    int leader = -1;  // leader index observed at Begin (guards commits)
    WriteSet writes;
  };

  Status HandleFor(const std::string& key, Handle** out) {
    const int sid = store_->ShardOf(key);
    auto it = handles_.find(sid);
    if (it == handles_.end()) {
      int leader = -1;
      kv::KvStore* ls =
          store_->shards_[static_cast<size_t>(sid)]->LeaderStore(&leader);
      if (ls == nullptr) {
        return Status::Unavailable(
            StrFormat("repl: shard %d has no live replicas", sid));
      }
      Handle h;
      h.txn = ls->Begin();
      h.leader = leader;
      it = handles_.emplace(sid, std::move(h)).first;
    }
    *out = &it->second;
    return Status::OK();
  }

  // Past-commit-point completion of one shard: re-acquire locks on the
  // current leader, then replicate (which applies). Loops over elections
  // and lock conflicts; fails only if the shard loses every replica.
  Status RetryShardCommit(int sid, const WriteSet& writes) {
    ShardGroup* shard = store_->shards_[static_cast<size_t>(sid)].get();
    for (int attempt = 0; attempt < 64; ++attempt) {
      int leader = -1;
      kv::KvStore* ls = shard->LeaderStore(&leader);
      if (ls == nullptr) {
        return Status::Unavailable(StrFormat(
            "repl: shard %d lost all replicas mid multi-shard commit "
            "(commit is partial)",
            sid));
      }
      auto txn = ls->Begin();
      bool conflict = false;
      for (const auto& [key, value] : writes) {
        Status s = value.has_value() ? txn->Put(key, *value)
                                     : txn->Delete(key);
        if (!s.ok()) {
          txn->Abort();
          conflict = true;
          break;
        }
      }
      if (conflict) continue;
      const Status s = shard->Replicate(id_, writes, leader);
      txn->Abort();  // releases the row locks; Replicate applied the rows
      if (s.ok()) return Status::OK();
      if (s.code() != StatusCode::kAborted &&
          s.code() != StatusCode::kUnavailable) {
        return s;
      }
    }
    return Status::Internal(StrFormat(
        "repl: shard %d commit did not complete after retries", sid));
  }

  ReplicatedKvStore* store_;
  uint64_t id_;
  bool finished_ = false;
  std::map<int, Handle> handles_;  // ordered: commits run in shard order
};

// ------------------------------------------------------ ReplicatedKvStore

ReplicatedKvStore::ReplicatedKvStore(const ReplOptions& options)
    : options_(options) {}

ReplicatedKvStore::~ReplicatedKvStore() = default;

Result<std::unique_ptr<ReplicatedKvStore>> ReplicatedKvStore::Open(
    const ReplOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("repl: num_shards must be >= 1");
  }
  if (options.followers_per_shard < 0 || options.write_quorum < 0) {
    return Status::InvalidArgument(
        "repl: followers_per_shard and write_quorum must be >= 0");
  }
  if (options.ring_vnodes < 1) {
    return Status::InvalidArgument("repl: ring_vnodes must be >= 1");
  }
  if (!options.data_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.data_dir, ec);
    if (ec) {
      return Status::IOError("repl: cannot create data_dir " +
                             options.data_dir + ": " + ec.message());
    }
  }
  auto store =
      std::unique_ptr<ReplicatedKvStore>(new ReplicatedKvStore(options));
  // Seeded vnode ring: placement depends only on (shard, vnode) names,
  // so it is stable across runs and processes.
  std::vector<std::pair<uint64_t, int>> ring;
  ring.reserve(static_cast<size_t>(options.num_shards) *
               static_cast<size_t>(options.ring_vnodes));
  for (int s = 0; s < options.num_shards; ++s) {
    for (int v = 0; v < options.ring_vnodes; ++v) {
      ring.emplace_back(
          PlacementHash(StrFormat("eea-repl-shard-%d-vnode-%d", s, v)), s);
    }
  }
  std::sort(ring.begin(), ring.end());
  for (const auto& [hash, shard] : ring) {
    store->ring_hash_.push_back(hash);
    store->ring_shard_.push_back(shard);
  }
  uint64_t max_txn_id = 0;
  for (int s = 0; s < options.num_shards; ++s) {
    store->shards_.push_back(std::make_unique<ShardGroup>(s, options));
    EEA_RETURN_NOT_OK(store->shards_.back()->Open(&max_txn_id));
  }
  store->next_txn_id_.store(max_txn_id + 1, std::memory_order_relaxed);
  return store;
}

int ReplicatedKvStore::ShardOf(const std::string& key) const {
  const uint64_t h = PlacementHash(key);
  auto it = std::upper_bound(ring_hash_.begin(), ring_hash_.end(), h);
  const size_t idx = it == ring_hash_.end()
                         ? 0  // wrap around the ring
                         : static_cast<size_t>(it - ring_hash_.begin());
  return ring_shard_[idx];
}

std::unique_ptr<kv::MetaTransaction> ReplicatedKvStore::Begin() {
  return std::make_unique<ReplTransaction>(
      this, next_txn_id_.fetch_add(1, std::memory_order_relaxed));
}

Status ReplicatedKvStore::Put(const std::string& key, std::string value) {
  auto txn = Begin();
  EEA_RETURN_NOT_OK(txn->Put(key, std::move(value)));
  return txn->Commit();
}

Result<std::string> ReplicatedKvStore::Get(const std::string& key) {
  return shards_[static_cast<size_t>(ShardOf(key))]->LeaderGet(key);
}

Status ReplicatedKvStore::Delete(const std::string& key) {
  auto txn = Begin();
  EEA_RETURN_NOT_OK(txn->Delete(key));
  return txn->Commit();
}

std::vector<std::pair<std::string, std::string>>
ReplicatedKvStore::ScanPrefix(const std::string& prefix,
                              size_t limit) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& shard : shards_) {
    auto rows = shard->LeaderScan(prefix, 0);
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  std::sort(out.begin(), out.end());
  if (limit > 0 && out.size() > limit) out.resize(limit);
  return out;
}

size_t ReplicatedKvStore::Size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->LeaderSize();
  return total;
}

Result<std::string> ReplicatedKvStore::ReadReplica(
    int shard, int replica, const std::string& key) const {
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument(StrFormat("repl: no shard %d", shard));
  }
  return shards_[static_cast<size_t>(shard)]->ReadReplica(replica, key);
}

Result<std::vector<std::pair<std::string, std::string>>>
ReplicatedKvStore::ScanReplicaPrefix(int shard, int replica,
                                     const std::string& prefix,
                                     size_t limit) const {
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument(StrFormat("repl: no shard %d", shard));
  }
  return shards_[static_cast<size_t>(shard)]->ScanReplica(replica, prefix,
                                                          limit);
}

std::vector<ShardStatus> ReplicatedKvStore::StatusSnapshot() const {
  std::vector<ShardStatus> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->Snapshot());
  return out;
}

ReplStats ReplicatedKvStore::repl_stats() const {
  ReplStats total;
  for (const auto& shard : shards_) {
    const ReplStats s = shard->stats();
    total.commits_acked += s.commits_acked;
    total.quorum_failures += s.quorum_failures;
    total.elections += s.elections;
    total.leader_crashes += s.leader_crashes;
    total.channel_drops += s.channel_drops;
    total.follower_rejects += s.follower_rejects;
    total.catchup_records += s.catchup_records;
    total.frames_shipped += s.frames_shipped;
  }
  return total;
}

Status ReplicatedKvStore::CheckReady() const {
  for (const auto& shard : shards_) {
    EEA_RETURN_NOT_OK(shard->CheckReady());
  }
  return Status::OK();
}

Status ReplicatedKvStore::Checkpoint() {
  for (const auto& shard : shards_) EEA_RETURN_NOT_OK(shard->Checkpoint());
  return Status::OK();
}

void ReplicatedKvStore::CrashReplica(int shard, int replica) {
  if (shard < 0 || shard >= num_shards()) return;
  shards_[static_cast<size_t>(shard)]->Crash(replica);
}

}  // namespace exearth::repl
