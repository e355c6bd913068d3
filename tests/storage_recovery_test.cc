// Durability suite for the paged storage layer (ROADMAP item 1): page
// CRC framing, the storage managers, buffer-pool invariants, the WAL,
// and the two consumers (the durable KV store — a zero-follower
// repl::ReplicatedKvStore — and the frozen R-tree).
//
// The four pillars, mirroring ISSUE/EXPERIMENTS E18:
//   1. Crash-recovery chaos: fault points storage.wal.append /
//      storage.wal.fsync / storage.page.write kill writes mid-commit at
//      fixed seeds; after recovery every acknowledged write is present,
//      no unacknowledged write is visible, and the recovered state is
//      byte-identical across two runs at the same seed.
//   2. Randomized torture: >= 10k seeded Put/Delete/Checkpoint/reopen
//      operations checked against an in-memory model map after every
//      reopen.
//   3. Golden on-disk format: a fixed operation script must produce
//      bit-exact page and WAL files against committed fixtures, so
//      accidental format changes fail loudly (and version bumps are
//      deliberate: regenerate with EEA_REGENERATE_GOLDEN=1).
//   4. Frozen R-tree disk/memory equivalence: SpatialSelect and
//      SpatialSelectBatch against the paged index — through a buffer
//      pool smaller than the index — must be byte-identical to the
//      in-memory tree, under every available SIMD variant.
//
// Everything is seeded; each test reproduces the same byte stream on
// every run (and under asan/tsan — ctest label `storage`).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "dfs/hopsfs.h"
#include "geo/simd.h"
#include "kv/meta_store.h"
#include "repl/replicated_store.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/page_chain.h"
#include "storage/storage_manager.h"
#include "storage/wal.h"
#include "strabon/geostore.h"
#include "strabon/workload.h"

#ifndef EEA_TEST_DATA_DIR
#define EEA_TEST_DATA_DIR "tests/data"
#endif

namespace exearth {
namespace {

using common::FaultInjector;
using common::FaultRule;
using common::Fnv1a;
using common::Rng;
using common::Status;
using common::StrFormat;
using storage::BufferPool;
using storage::DiskStorageManager;
using storage::MemoryStorageManager;
using storage::PageHandle;
using storage::PageId;
using storage::Wal;
using storage::WalRecord;
using storage::WalRecordType;

// A throwaway directory under /tmp, recursively removed on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/eea_storage_test_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Order-stable FNV-1a hash of the store's full committed contents.
uint64_t StoreContentHash(const kv::MetaStore& store) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& [key, value] : store.ScanPrefix("")) {
    h ^= Fnv1a(key);
    h *= 1099511628211ull;
    h ^= Fnv1a(value);
    h *= 1099511628211ull;
  }
  return h;
}

// The single durable store: a shard with zero followers over one
// directory. Its files are the replica's WAL and, after the first
// checkpoint, its checkpoint image.
constexpr char kWalFile[] = "shard000_replica00.wal";
constexpr char kPagesFile[] = "shard000_replica00.pages";

std::unique_ptr<repl::ReplicatedKvStore> OpenStore(const TempDir& dir,
                                                   int partitions) {
  repl::ReplOptions opt;
  opt.followers_per_shard = 0;
  opt.write_quorum = 0;
  opt.kv_partitions = partitions;
  opt.data_dir = dir.path();
  auto store = repl::ReplicatedKvStore::Open(opt);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

// The one replica's recovery counters.
repl::ReplicaStatus Replica0(const repl::ReplicatedKvStore& store) {
  return store.StatusSnapshot()[0].replicas[0];
}

// Every test runs against a clean process-wide fault injector.
class StorageRecoveryTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Default().Reset();
    FaultInjector::Default().set_seed(1);
  }
  void TearDown() override { FaultInjector::Default().Reset(); }
};

// --- Page primitives --------------------------------------------------------

TEST_F(StorageRecoveryTest, Crc32MatchesCheckValue) {
  // The standard CRC-32 check value pins the polynomial and reflection.
  EXPECT_EQ(storage::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(storage::Crc32("", 0), 0u);
}

TEST_F(StorageRecoveryTest, SealVerifyRejectsCorruptionAndMisdirection) {
  std::vector<char> page(storage::kPageSize, 0);
  for (size_t i = storage::kPageHeaderSize; i < storage::kPageSize; ++i) {
    page[i] = static_cast<char>(i * 31);
  }
  storage::SealPage(page.data(), 7, 42);
  EXPECT_TRUE(storage::VerifyPage(page.data(), 7));
  EXPECT_EQ(storage::PageLsn(page.data()), 42u);
  // A misdirected read (right bytes, wrong page) fails verification.
  EXPECT_FALSE(storage::VerifyPage(page.data(), 8));
  // A single flipped payload bit fails the checksum.
  page[2000] = static_cast<char>(page[2000] ^ 1);
  EXPECT_FALSE(storage::VerifyPage(page.data(), 7));
}

// --- Storage managers -------------------------------------------------------

TEST_F(StorageRecoveryTest, MemoryManagerAllocWriteReadFree) {
  MemoryStorageManager mem;
  auto p1 = mem.AllocatePage();
  auto p2 = mem.AllocatePage();
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_NE(p1.value(), p2.value());
  EXPECT_NE(p1.value(), 0u);  // page 0 is reserved for the superblock

  std::vector<char> buf(storage::kPageSize, 0);
  std::snprintf(buf.data() + storage::kPageHeaderSize, 32, "hello page");
  ASSERT_TRUE(mem.WritePage(p1.value(), buf.data(), 5).ok());

  std::vector<char> rd(storage::kPageSize, 0);
  ASSERT_TRUE(mem.ReadPage(p1.value(), rd.data()).ok());
  EXPECT_TRUE(storage::VerifyPage(rd.data(), p1.value()));
  EXPECT_STREQ(rd.data() + storage::kPageHeaderSize, "hello page");
  EXPECT_EQ(storage::PageLsn(rd.data()), 5u);

  // Freed pages are reused before the file grows.
  ASSERT_TRUE(mem.FreePage(p1.value()).ok());
  EXPECT_EQ(mem.free_pages(), 1u);
  auto p3 = mem.AllocatePage();
  ASSERT_TRUE(p3.ok());
  EXPECT_EQ(p3.value(), p1.value());
  EXPECT_EQ(mem.free_pages(), 0u);

  ASSERT_TRUE(mem.WriteMeta("memmeta").ok());
  auto meta = mem.ReadMeta();
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta.value(), "memmeta");
}

TEST_F(StorageRecoveryTest, DiskManagerPersistsPagesMetaAndFreeList) {
  TempDir dir;
  PageId a = storage::kInvalidPageId;
  PageId b = storage::kInvalidPageId;
  {
    auto opened = DiskStorageManager::Open(dir.File("pages"));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto disk = std::move(opened).value();
    auto pa = disk->AllocatePage();
    auto pb = disk->AllocatePage();
    auto pc = disk->AllocatePage();
    ASSERT_TRUE(pa.ok() && pb.ok() && pc.ok());
    a = pa.value();
    b = pb.value();
    std::vector<char> buf(storage::kPageSize, 0);
    std::snprintf(buf.data() + storage::kPageHeaderSize, 32, "page-a");
    ASSERT_TRUE(disk->WritePage(a, buf.data(), 11).ok());
    std::snprintf(buf.data() + storage::kPageHeaderSize, 32, "page-b");
    ASSERT_TRUE(disk->WritePage(b, buf.data(), 12).ok());
    ASSERT_TRUE(disk->FreePage(pc.value()).ok());
    ASSERT_TRUE(disk->WriteMeta("diskmeta v1").ok());
    ASSERT_TRUE(disk->Sync().ok());
  }
  {
    auto opened = DiskStorageManager::Open(dir.File("pages"));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto disk = std::move(opened).value();
    EXPECT_EQ(disk->page_count(), 4u);  // superblock + 3 allocated
    EXPECT_EQ(disk->free_pages(), 1u);
    auto meta = disk->ReadMeta();
    ASSERT_TRUE(meta.ok());
    EXPECT_EQ(meta.value(), "diskmeta v1");
    std::vector<char> rd(storage::kPageSize, 0);
    ASSERT_TRUE(disk->ReadPage(a, rd.data()).ok());
    EXPECT_STREQ(rd.data() + storage::kPageHeaderSize, "page-a");
    EXPECT_EQ(storage::PageLsn(rd.data()), 11u);
    ASSERT_TRUE(disk->ReadPage(b, rd.data()).ok());
    EXPECT_STREQ(rd.data() + storage::kPageHeaderSize, "page-b");
    // The freed page comes back first.
    auto pd = disk->AllocatePage();
    ASSERT_TRUE(pd.ok());
    EXPECT_EQ(pd.value(), 3u);
  }
}

TEST_F(StorageRecoveryTest, DiskManagerRejectsFutureFormatVersion) {
  TempDir dir;
  {
    auto opened = DiskStorageManager::Open(dir.File("pages"));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  }
  // Doctor the superblock's version field (u32 right after the u64 magic)
  // and re-seal the page so only the version check can object.
  std::string bytes = ReadFileBytes(dir.File("pages"));
  ASSERT_GE(bytes.size(), storage::kPageSize);
  storage::StoreU32(bytes.data() + storage::kPageHeaderSize + 8, 999);
  storage::SealPage(bytes.data(), 0, storage::PageLsn(bytes.data()));
  WriteFileBytes(dir.File("pages"), bytes);

  auto reopened = DiskStorageManager::Open(dir.File("pages"));
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("format version mismatch"),
            std::string::npos)
      << reopened.status().ToString();
  EXPECT_NE(reopened.status().message().find("999"), std::string::npos)
      << "the message should name the on-disk version: "
      << reopened.status().ToString();
}

TEST_F(StorageRecoveryTest, DiskManagerRejectsCorruptSuperblock) {
  TempDir dir;
  {
    auto opened = DiskStorageManager::Open(dir.File("pages"));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  }
  std::string bytes = ReadFileBytes(dir.File("pages"));
  ASSERT_GE(bytes.size(), storage::kPageSize);
  bytes[100] = static_cast<char>(bytes[100] ^ 0xff);  // no re-seal
  WriteFileBytes(dir.File("pages"), bytes);
  auto reopened = DiskStorageManager::Open(dir.File("pages"));
  EXPECT_FALSE(reopened.ok());
}

// --- Buffer pool ------------------------------------------------------------

TEST_F(StorageRecoveryTest, BufferPoolEvictsLruAndWritesBackDirty) {
  MemoryStorageManager mem;
  BufferPool pool(&mem, 2);
  PageId ids[3];
  for (int i = 0; i < 3; ++i) {
    auto h = pool.New();
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    ids[i] = h.value().id();
    std::snprintf(h.value().payload(), 32, "payload-%d", i);
    h.value().MarkDirty();
    ASSERT_TRUE(pool.CheckInvariants().ok());
  }
  // Capacity 2, three pages touched: the third New evicted the LRU frame
  // (page 0 of ours), writing it back because it was dirty.
  auto stats = pool.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_GE(stats.writebacks, 1u);
  EXPECT_LE(stats.cached_pages, 2u);

  // Every page reads back with its payload intact, through the cache or
  // from storage.
  for (int i = 0; i < 3; ++i) {
    auto h = pool.Fetch(ids[i]);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_STREQ(h.value().payload(), StrFormat("payload-%d", i).c_str());
  }
  stats = pool.stats();
  EXPECT_GE(stats.misses, 1u);
  ASSERT_TRUE(pool.CheckInvariants().ok());
}

TEST_F(StorageRecoveryTest, BufferPoolNeverEvictsPinnedFrames) {
  MemoryStorageManager mem;
  BufferPool pool(&mem, 2);
  auto h1 = pool.New();
  auto h2 = pool.New();
  ASSERT_TRUE(h1.ok() && h2.ok());
  // Both frames pinned, pool full: a third page has no evictable frame.
  auto h3 = pool.New();
  EXPECT_FALSE(h3.ok());
  ASSERT_TRUE(pool.CheckInvariants().ok());
  // Releasing one pin frees an eviction candidate.
  h1.value().Release();
  auto h4 = pool.New();
  EXPECT_TRUE(h4.ok()) << h4.status().ToString();
  ASSERT_TRUE(pool.CheckInvariants().ok());
}

TEST_F(StorageRecoveryTest, BufferPoolRefusesToFreePinnedPage) {
  MemoryStorageManager mem;
  BufferPool pool(&mem, 4);
  auto h = pool.New();
  ASSERT_TRUE(h.ok());
  const PageId id = h.value().id();
  EXPECT_FALSE(pool.FreePage(id).ok());
  h.value().Release();
  EXPECT_TRUE(pool.FreePage(id).ok());
  EXPECT_EQ(mem.free_pages(), 1u);
  ASSERT_TRUE(pool.CheckInvariants().ok());
}

// --- WAL --------------------------------------------------------------------

TEST_F(StorageRecoveryTest, WalAppendSyncReplayRoundTrip) {
  TempDir dir;
  {
    auto opened = Wal::Open(dir.File("wal"));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto wal = std::move(opened).value();
    ASSERT_TRUE(wal->Append(WalRecordType::kPut, 1, "k1", "v1").ok());
    ASSERT_TRUE(wal->Append(WalRecordType::kDelete, 1, "k2", "").ok());
    ASSERT_TRUE(wal->Append(WalRecordType::kCommit, 1, "", "").ok());
    ASSERT_TRUE(wal->Sync().ok());
    EXPECT_EQ(wal->next_lsn(), 4u);
  }
  auto reopened = Wal::Open(dir.File("wal"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto wal = std::move(reopened).value();
  EXPECT_EQ(wal->next_lsn(), 4u);
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal->Replay([&](const WalRecord& rec) {
                    records.push_back(rec);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kPut);
  EXPECT_EQ(records[0].key, "k1");
  EXPECT_EQ(records[0].value, "v1");
  EXPECT_EQ(records[1].type, WalRecordType::kDelete);
  EXPECT_EQ(records[2].type, WalRecordType::kCommit);
  EXPECT_EQ(records[2].lsn, 3u);
}

TEST_F(StorageRecoveryTest, WalTruncatesTornTailOnOpen) {
  TempDir dir;
  {
    auto opened = Wal::Open(dir.File("wal"));
    ASSERT_TRUE(opened.ok());
    auto wal = std::move(opened).value();
    ASSERT_TRUE(wal->Append(WalRecordType::kPut, 1, "intact", "yes").ok());
    ASSERT_TRUE(wal->Append(WalRecordType::kCommit, 1, "", "").ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  // Simulate a crash mid-append: garbage (a half-written frame) at the
  // tail of the log.
  {
    std::ofstream out(dir.File("wal"),
                      std::ios::binary | std::ios::app);
    out.write("\x37\x13\xfe", 3);
  }
  auto reopened = Wal::Open(dir.File("wal"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto wal = std::move(reopened).value();
  EXPECT_EQ(wal->stats().torn_tail_bytes, 3u);
  size_t n = 0;
  ASSERT_TRUE(wal->Replay([&](const WalRecord&) {
                    ++n;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(n, 2u);  // both intact records survive; the torn tail is gone
  // The log is healthy again: appends continue after the last intact LSN.
  auto lsn = wal->Append(WalRecordType::kPut, 2, "after", "crash");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 3u);
  ASSERT_TRUE(wal->Sync().ok());
}

TEST_F(StorageRecoveryTest, WalCheckpointBoundsReplay) {
  TempDir dir;
  auto opened = Wal::Open(dir.File("wal"));
  ASSERT_TRUE(opened.ok());
  auto wal = std::move(opened).value();
  ASSERT_TRUE(wal->Append(WalRecordType::kPut, 1, "old", "1").ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kCommit, 1, "", "").ok());
  ASSERT_TRUE(wal->Sync().ok());
  ASSERT_TRUE(wal->Checkpoint(2).ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kPut, 2, "new", "2").ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kCommit, 2, "", "").ok());
  ASSERT_TRUE(wal->Sync().ok());

  // Replay on the live log and on a reopened one: only post-checkpoint
  // records surface.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::string> keys;
    ASSERT_TRUE(wal->Replay([&](const WalRecord& rec) {
                      if (rec.type == WalRecordType::kPut)
                        keys.push_back(rec.key);
                      return Status::OK();
                    })
                    .ok());
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], "new");
    EXPECT_EQ(wal->checkpoint_lsn(), 2u);
    if (pass == 0) {
      auto r = Wal::Open(dir.File("wal"));
      ASSERT_TRUE(r.ok());
      wal = std::move(r).value();
    }
  }
}

TEST_F(StorageRecoveryTest, WalGroupFsyncCoversConcurrentSyncRequests) {
  // Concurrent Sync() callers elect one leader whose fsync covers every
  // byte appended before it started: fsyncs never exceed requests, and
  // every synced record survives a reopen.
  TempDir dir;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  {
    auto opened = Wal::Open(dir.File("wal"));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto wal = std::move(opened).value();
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&wal, t]() {
        for (int i = 0; i < kPerThread; ++i) {
          ASSERT_TRUE(wal->Append(WalRecordType::kPut,
                                  static_cast<uint64_t>(t + 1),
                                  StrFormat("g|%d|%03d", t, i), "v")
                          .ok());
          ASSERT_TRUE(wal->Sync().ok());
        }
      });
    }
    for (std::thread& w : workers) w.join();
    const storage::WalStats stats = wal->stats();
    EXPECT_EQ(stats.sync_requests,
              static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_GE(stats.sync_requests, stats.syncs)
        << "group commit: fsyncs must never exceed sync requests";
    EXPECT_GE(stats.syncs, 1u);
  }
  auto reopened = Wal::Open(dir.File("wal"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  size_t n = 0;
  ASSERT_TRUE(reopened.value()
                  ->Replay([&](const WalRecord&) {
                    ++n;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(n, static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(StorageRecoveryTest, WalValidatePrefixDecodesLongestCleanPrefix) {
  // ValidatePrefix is the single frame scanner shared by Open()'s
  // torn-tail truncation, Replay(), and replication followers verifying
  // shipped batches — pin its prefix semantics directly.
  WalRecord r1{.lsn = 1,
               .type = WalRecordType::kPut,
               .txn_id = 9,
               .key = "alpha",
               .value = "one"};
  WalRecord r2{.lsn = 2,
               .type = WalRecordType::kDelete,
               .txn_id = 9,
               .key = "beta",
               .value = ""};
  WalRecord r3{
      .lsn = 3, .type = WalRecordType::kCommit, .txn_id = 9, .key = "",
      .value = ""};
  const std::string f1 = Wal::EncodeRecordFrame(r1);
  const std::string f2 = Wal::EncodeRecordFrame(r2);
  const std::string f3 = Wal::EncodeRecordFrame(r3);
  const std::string frames = f1 + f2 + f3;

  size_t valid = 0;
  std::vector<WalRecord> records;
  ASSERT_TRUE(Wal::ValidatePrefix(frames, &valid, &records).ok());
  EXPECT_EQ(valid, frames.size());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].key, "alpha");
  EXPECT_EQ(records[0].value, "one");
  EXPECT_EQ(records[1].type, WalRecordType::kDelete);
  EXPECT_EQ(records[2].type, WalRecordType::kCommit);

  // A flipped byte inside frame 2 stops the scan exactly at frame 1's
  // end: one record decoded, and the call reports the corruption.
  std::string corrupt = frames;
  corrupt[f1.size() + f2.size() / 2] ^= 0x40;
  valid = 0;
  records.clear();
  EXPECT_FALSE(Wal::ValidatePrefix(corrupt, &valid, &records).ok());
  EXPECT_EQ(valid, f1.size());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 1u);

  // A torn trailing header (crash mid-append) is also not clean, but the
  // two whole frames before it decode.
  valid = 0;
  records.clear();
  EXPECT_FALSE(
      Wal::ValidatePrefix(std::string_view(frames).substr(
                              0, f1.size() + f2.size() + 5),
                          &valid, &records)
          .ok());
  EXPECT_EQ(valid, f1.size() + f2.size());
  EXPECT_EQ(records.size(), 2u);

  // An empty buffer is trivially clean; null out-params are accepted.
  valid = 99;
  EXPECT_TRUE(Wal::ValidatePrefix(std::string_view(), &valid, nullptr).ok());
  EXPECT_EQ(valid, 0u);
}

TEST_F(StorageRecoveryTest, WalOpenTruncatesFromCorruptMidStreamFrame) {
  // Corruption in the MIDDLE of the log (bit rot, not a torn tail): Open
  // must truncate from the first bad frame onward — intact frames after
  // the corruption are unreachable and must not resurface.
  TempDir dir;
  {
    auto opened = Wal::Open(dir.File("wal"));
    ASSERT_TRUE(opened.ok());
    auto wal = std::move(opened).value();
    ASSERT_TRUE(wal->Append(WalRecordType::kPut, 1, "first", "1").ok());
    ASSERT_TRUE(wal->Append(WalRecordType::kCommit, 1, "", "").ok());
    ASSERT_TRUE(wal->Append(WalRecordType::kPut, 2, "second", "2").ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  // Recompute the frame layout via EncodeRecordFrame (byte-identical to
  // what Append wrote) to aim the corruption inside frame 2.
  const std::string f1 = Wal::EncodeRecordFrame(WalRecord{
      .lsn = 1, .type = WalRecordType::kPut, .txn_id = 1, .key = "first",
      .value = "1"});
  const std::string f2 = Wal::EncodeRecordFrame(WalRecord{
      .lsn = 2, .type = WalRecordType::kCommit, .txn_id = 1, .key = "",
      .value = ""});
  const std::string f3 = Wal::EncodeRecordFrame(WalRecord{
      .lsn = 3, .type = WalRecordType::kPut, .txn_id = 2, .key = "second",
      .value = "2"});
  std::string bytes = ReadFileBytes(dir.File("wal"));
  const size_t header = bytes.size() - f1.size() - f2.size() - f3.size();
  bytes[header + f1.size() + f2.size() / 2] ^= 0x01;
  WriteFileBytes(dir.File("wal"), bytes);

  auto reopened = Wal::Open(dir.File("wal"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto wal = std::move(reopened).value();
  EXPECT_EQ(wal->stats().torn_tail_bytes, f2.size() + f3.size());
  EXPECT_EQ(wal->next_lsn(), 2u);
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal->Replay([&](const WalRecord& rec) {
                    records.push_back(rec);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "first");
  // The log heals: the next append reuses LSN 2, overwriting the
  // truncated region.
  auto lsn = wal->Append(WalRecordType::kPut, 3, "healed", "y");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 2u);
}

// --- Durable KV: clean restart recovery --------------------------------------

TEST_F(StorageRecoveryTest, KvRecoversWalOnlyStateAcrossReopen) {
  TempDir dir;
  {
    auto store = OpenStore(dir, 4);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          store->Put(StrFormat("w|%03d", i), StrFormat("val-%d", i))
              .ok());
    }
    ASSERT_TRUE(store->Delete("w|003").ok());
  }
  auto store = OpenStore(dir, 4);
  EXPECT_EQ(store->Size(), 19u);
  auto v = store->Get("w|007");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), "val-7");
  EXPECT_FALSE(store->Get("w|003").ok());
  const repl::ReplicaStatus replica = Replica0(*store);
  EXPECT_EQ(replica.recovered_txns, 21u);  // 20 puts + 1 delete
  EXPECT_EQ(replica.recovered_rows, 0u);   // no checkpoint image yet
  EXPECT_EQ(replica.checkpoint_lsn, 0u);
}

TEST_F(StorageRecoveryTest, KvRecoversCheckpointImagePlusWalSuffix) {
  TempDir dir;
  {
    auto store = OpenStore(dir, 4);
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          store->Put(StrFormat("c|%03d", i), StrFormat("img-%d", i))
              .ok());
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    for (int i = 12; i < 18; ++i) {
      ASSERT_TRUE(
          store->Put(StrFormat("c|%03d", i), StrFormat("wal-%d", i))
              .ok());
    }
    ASSERT_TRUE(store->Put("c|002", "overwritten").ok());
  }
  auto store = OpenStore(dir, 4);
  EXPECT_EQ(store->Size(), 18u);
  const repl::ReplicaStatus replica = Replica0(*store);
  EXPECT_EQ(replica.recovered_rows, 12u);  // checkpoint image
  EXPECT_EQ(replica.recovered_txns, 7u);   // WAL suffix after the image
  EXPECT_EQ(replica.checkpoint_lsn, 24u);  // 12 puts, two records each
  auto img = store->Get("c|005");
  auto suffix = store->Get("c|015");
  auto overwritten = store->Get("c|002");
  ASSERT_TRUE(img.ok() && suffix.ok() && overwritten.ok());
  EXPECT_EQ(img.value(), "img-5");
  EXPECT_EQ(suffix.value(), "wal-15");
  EXPECT_EQ(overwritten.value(), "overwritten");
}

TEST_F(StorageRecoveryTest, RefusedWriteStaysInvisibleAcrossTwoRestarts) {
  // A commit whose marker append fails leaves its data record in the WAL
  // without a marker. Replay groups records by transaction id, so the id
  // counter must resume past every id in the WAL: otherwise a later
  // session's transaction with the same id would commit that record.
  TempDir dir;
  {
    auto store = OpenStore(dir, 4);
    ASSERT_TRUE(store->Put("a", "1").ok());
    FaultRule rule;
    rule.fail_calls = {2};  // b's commit marker; its data record lands
    FaultInjector::Default().Program("storage.wal.append", rule);
    EXPECT_TRUE(store->Put("b", "refused").IsUnavailable());
    FaultInjector::Default().Reset();
  }
  {
    auto store = OpenStore(dir, 4);
    EXPECT_TRUE(store->Get("b").status().IsNotFound());
    ASSERT_TRUE(store->Put("c", "3").ok());
    ASSERT_TRUE(store->Put("d", "4").ok());
  }
  auto store = OpenStore(dir, 4);
  EXPECT_TRUE(store->Get("b").status().IsNotFound())
      << "the refused write came back after the second restart";
  EXPECT_EQ(store->Size(), 3u);
}

// --- Chaos: crash mid-commit at fixed seeds ----------------------------------

struct CrashRunResult {
  std::vector<std::string> acked;    // keys whose Put returned OK
  std::vector<std::string> failed;   // keys whose Put returned an error
  bool checkpoint_ok = false;
  uint64_t recovered_hash = 0;       // content hash after reopen+recovery
  uint64_t recovered_size = 0;
};

// One crash scenario: 25 single-key puts with a Checkpoint() wedged in at
// op 12, a fault programmed at `point` to fire at absolute call
// `fail_call`, then a "reboot" (drop every object, clear the injector,
// reopen, recover). Deterministic end to end for fixed inputs.
CrashRunResult RunCrashScenario(const char* point, uint64_t fail_call,
                                uint64_t seed) {
  TempDir dir;
  CrashRunResult out;
  FaultInjector::Default().Reset();
  FaultInjector::Default().set_seed(seed);
  FaultRule rule;
  rule.fail_calls = {fail_call};
  FaultInjector::Default().Program(point, rule);
  {
    auto store = OpenStore(dir, 4);
    for (int i = 0; i < 25; ++i) {
      if (i == 12) {
        out.checkpoint_ok = store->Checkpoint().ok();
      }
      const std::string key = StrFormat("x|%03d", i);
      const Status put = store->Put(key, StrFormat("v-%d", i));
      (put.ok() ? out.acked : out.failed).push_back(key);
    }
    EXPECT_GE(FaultInjector::Default().triggered(point), 1u)
        << point << ": the programmed fault never fired";
  }
  // Reboot: the injector is cleared (the "machine" came back healthy).
  FaultInjector::Default().Reset();
  auto store = OpenStore(dir, 4);
  out.recovered_hash = StoreContentHash(*store);
  out.recovered_size = store->Size();

  // Durability law, both directions: every acknowledged write is present
  // with its exact value; no unacknowledged write is visible.
  for (const std::string& key : out.acked) {
    auto v = store->Get(key);
    EXPECT_TRUE(v.ok()) << point << ": acked key " << key
                        << " lost after recovery";
    if (v.ok()) {
      // "x|%03d" -> "v-%d": the exact acknowledged value, not a stale one.
      EXPECT_EQ(v.value(), StrFormat("v-%d", std::stoi(key.substr(2))))
          << point << ": acked key " << key << " has the wrong value";
    }
  }
  for (const std::string& key : out.failed) {
    EXPECT_FALSE(store->Get(key).ok())
        << point << ": unacknowledged key " << key
        << " became visible after recovery";
  }
  EXPECT_EQ(out.recovered_size, out.acked.size());
  return out;
}

void ExpectIdenticalRuns(const char* point, uint64_t fail_call,
                         uint64_t seed, bool expect_put_failures) {
  const CrashRunResult r1 = RunCrashScenario(point, fail_call, seed);
  const CrashRunResult r2 = RunCrashScenario(point, fail_call, seed);
  EXPECT_EQ(r1.acked, r2.acked) << point;
  EXPECT_EQ(r1.failed, r2.failed) << point;
  EXPECT_EQ(r1.checkpoint_ok, r2.checkpoint_ok) << point;
  // The recovered state is byte-identical across runs at the same seed.
  EXPECT_EQ(r1.recovered_hash, r2.recovered_hash) << point;
  EXPECT_EQ(r1.recovered_size, r2.recovered_size) << point;
  EXPECT_GT(r1.acked.size(), 0u) << point << ": nothing was acknowledged";
  if (expect_put_failures) {
    EXPECT_GT(r1.failed.size(), 0u)
        << point << ": the crash never surfaced to a commit";
  }
}

TEST_F(StorageRecoveryTest, CrashDuringWalAppendIsAtomic) {
  // Each auto-commit put appends two records (kPut + kCommit); call 19 is
  // op 9's kPut, so ops 0..8 are acked and the WAL is poisoned mid-commit
  // of op 9 with a torn frame on disk.
  ExpectIdenticalRuns("storage.wal.append", 19, 7, true);
}

TEST_F(StorageRecoveryTest, CrashDuringWalFsyncIsAtomic) {
  // One group fsync per auto-commit put: call 8 crashes op 7 after its
  // records hit the OS buffer but before they are durable — the injector
  // truncates back to the synced prefix, modeling page-cache loss.
  ExpectIdenticalRuns("storage.wal.fsync", 8, 7, true);
}

TEST_F(StorageRecoveryTest, CrashDuringCheckpointPageWriteKeepsWal) {
  // The first page write of the Checkpoint() at op 12 — the checkpoint
  // image's chain page — fails: the meta flip never happens, the WAL is
  // untouched, and recovery replays every acknowledged commit. No put
  // fails — the crash is absorbed by the checkpoint, which reports the
  // error instead.
  const CrashRunResult r1 = RunCrashScenario("storage.page.write", 1, 7);
  const CrashRunResult r2 = RunCrashScenario("storage.page.write", 1, 7);
  EXPECT_FALSE(r1.checkpoint_ok);
  EXPECT_EQ(r1.acked.size(), 25u);
  EXPECT_EQ(r1.failed.size(), 0u);
  EXPECT_EQ(r1.recovered_hash, r2.recovered_hash);
  EXPECT_EQ(r1.recovered_size, 25u);
}

TEST_F(StorageRecoveryTest, CrashSweepAcrossCommitOffsets) {
  // Sweep the fsync fault across several commit offsets: wherever the
  // crash lands, recovery yields exactly the acked prefix, and reruns at
  // the same offset agree bit for bit.
  for (uint64_t fail_call : {2ull, 5ull, 11ull, 20ull}) {
    const CrashRunResult r1 =
        RunCrashScenario("storage.wal.fsync", fail_call, 13);
    const CrashRunResult r2 =
        RunCrashScenario("storage.wal.fsync", fail_call, 13);
    EXPECT_EQ(r1.recovered_hash, r2.recovered_hash)
        << "fail_call=" << fail_call;
    EXPECT_EQ(r1.acked, r2.acked) << "fail_call=" << fail_call;
    EXPECT_EQ(r1.recovered_size, r1.acked.size())
        << "fail_call=" << fail_call;
  }
}

TEST_F(StorageRecoveryTest, FreeListCrashWindowNeverDoubleAllocatesLivePages) {
  // The checkpoint ordering contract is: write new chain -> Sync ->
  // WriteMeta (the atomic flip) -> FreePage the old chain. The FreePage
  // bookkeeping lives only in memory until the NEXT superblock sync, so a
  // crash in that window recovers a superblock whose free list predates
  // the frees — the old chain's pages are leaked, never re-offered. This
  // test takes a crash image in exactly that window and then proves the
  // recovered free list is disjoint from the live checkpoint chain: drain
  // it completely, scribble sentinel bytes over every page it hands out,
  // and the store must still recover every row bit-for-bit.
  TempDir dir;
  TempDir crash;
  // Values are padded past a page's worth per dozen rows so the full
  // chain spans many pages and the shrunken one only a few — the leaked
  // free list must be non-empty for the scenario to bite.
  const std::string pad_a(512, 'a');
  const std::string pad_b(512, 'b');
  {
    auto store = OpenStore(dir, 4);
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(store
                      ->Put(StrFormat("fl|%03d", i),
                            StrFormat("v1-%d-", i) + pad_a)
                      .ok());
    }
    ASSERT_TRUE(store->Checkpoint().ok());  // chain A
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(store
                      ->Put(StrFormat("fl|%03d", i),
                            StrFormat("v2-%d-", i) + pad_b)
                      .ok());
    }
    ASSERT_TRUE(store->Checkpoint().ok());  // chain B; frees A
    // Shrink the dataset so the next chain needs fewer pages than the
    // frees release — the durable free list ends up genuinely non-empty.
    for (int i = 10; i < 60; ++i) {
      ASSERT_TRUE(store->Delete(StrFormat("fl|%03d", i)).ok());
    }
    ASSERT_TRUE(store->Checkpoint().ok());  // chain C; frees B
    // Crash image, taken while the stack is still live: the files hold
    // exactly what chain C's WriteMeta flip made durable — chain B's
    // FreePage calls have not reached the superblock yet.
    ASSERT_TRUE(std::filesystem::copy_file(dir.File(kPagesFile),
                                           crash.File(kPagesFile)));
    ASSERT_TRUE(std::filesystem::copy_file(dir.File(kWalFile),
                                           crash.File(kWalFile)));
  }
  // Adversarial allocator on the crash image: take every page the
  // recovered free list will give and destroy its contents.
  uint32_t drained = 0;
  {
    auto opened = DiskStorageManager::Open(crash.File(kPagesFile));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto disk = std::move(opened).value();
    ASSERT_GT(disk->free_pages(), 0u)
        << "crash image has an empty free list: the scenario lost its teeth";
    std::vector<char> buf(storage::kPageSize, 0);
    std::memset(buf.data() + storage::kPageHeaderSize, 0x5a, 64);
    while (disk->free_pages() > 0) {
      auto page = disk->AllocatePage();
      ASSERT_TRUE(page.ok());
      ASSERT_TRUE(disk->WritePage(page.value(), buf.data(), 999).ok());
      ++drained;
    }
    ASSERT_TRUE(disk->Sync().ok());
  }
  EXPECT_GT(drained, 0u);
  // If any freed-but-still-referenced page had been handed out above,
  // recovery would now read sentinel garbage and fail its CRC check.
  auto store = OpenStore(crash, 4);
  EXPECT_EQ(store->Size(), 10u);
  for (int i = 0; i < 10; ++i) {
    auto v = store->Get(StrFormat("fl|%03d", i));
    ASSERT_TRUE(v.ok()) << "row fl|" << i << " lost to a double allocation";
    EXPECT_EQ(v.value(), StrFormat("v2-%d-", i) + pad_b);
  }
}

// Forwards to a DiskStorageManager and fails the test when a page id is
// handed out twice, or at or past the page count in force once it is
// handed out.
class AllocationAudit : public storage::IStorageManager {
 public:
  explicit AllocationAudit(DiskStorageManager* disk) : disk_(disk) {}

  common::Result<PageId> AllocatePage() override {
    auto id = disk_->AllocatePage();
    if (id.ok()) {
      EXPECT_LT(*id, disk_->page_count()) << "page " << *id << " is past EOF";
      EXPECT_TRUE(live_.insert(*id).second)
          << "page " << *id << " handed out twice";
    }
    return id;
  }
  Status FreePage(PageId id) override {
    live_.erase(id);
    return disk_->FreePage(id);
  }
  Status ReadPage(PageId id, char* buf) override {
    return disk_->ReadPage(id, buf);
  }
  Status WritePage(PageId id, char* buf, uint64_t lsn) override {
    return disk_->WritePage(id, buf, lsn);
  }
  Status Sync() override { return disk_->Sync(); }
  common::Result<std::string> ReadMeta() override { return disk_->ReadMeta(); }
  Status WriteMeta(const std::string& meta) override {
    return disk_->WriteMeta(meta);
  }
  uint32_t page_count() const override { return disk_->page_count(); }
  uint32_t free_pages() const override { return disk_->free_pages(); }
  const char* name() const override { return "audit"; }

 private:
  DiskStorageManager* disk_;
  std::set<PageId> live_;
};

// An image of exactly `pages` chain pages, every byte `fill`.
std::string ImageBytes(size_t pages, char fill) {
  return std::string(pages * storage::kChainDataPerPage, fill);
}

// A checkpoint as the replicas take one: write the chain, flush, sync,
// flip the meta slot to it, then free the previous image's chain.
PageId CheckpointImage(BufferPool* pool, storage::IStorageManager* disk,
                       const std::string& image, PageId old_head) {
  storage::PageChainWriter writer(pool, 1);
  EXPECT_TRUE(writer.Write(image.data(), image.size()).ok());
  auto head = writer.Finish();
  EXPECT_TRUE(head.ok());
  EXPECT_TRUE(pool->FlushAll().ok());
  EXPECT_TRUE(disk->Sync().ok());
  EXPECT_TRUE(disk->WriteMeta(StrFormat("img %u", *head)).ok());
  if (old_head != storage::kInvalidPageId) {
    EXPECT_TRUE(storage::FreeChain(pool, old_head).ok());
  }
  return *head;
}

std::string ReadImage(BufferPool* pool, storage::IStorageManager* disk,
                      size_t bytes) {
  auto meta = disk->ReadMeta();
  EXPECT_TRUE(meta.ok());
  unsigned int head = 0;
  EXPECT_EQ(std::sscanf(meta->c_str(), "img %u", &head), 1) << *meta;
  storage::PageChainReader reader(pool, head);
  std::string out(bytes, '\0');
  EXPECT_TRUE(reader.Read(out.data(), bytes).ok());
  EXPECT_TRUE(reader.AtEnd());
  return out;
}

TEST_F(StorageRecoveryTest, FreeListSurvivesCrashBetweenFlushAndSync) {
  // A checkpoint's FlushAll may overwrite pages that the last synced
  // superblock still lists as free; a crash before its Sync then reopens
  // a free list whose links are the dead chain's own links. The reopened
  // allocator must end that list rather than follow the chain past the
  // file, and it must never hand out a page of the live image.
  TempDir dir;
  TempDir crash;
  const std::string live = ImageBytes(2, 'c');
  {
    auto opened = DiskStorageManager::Open(dir.File("img.pages"));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto disk = std::move(opened).value();
    BufferPool pool(disk.get(), 64);
    PageId head = CheckpointImage(&pool, disk.get(), ImageBytes(8, 'a'),
                                  storage::kInvalidPageId);
    head = CheckpointImage(&pool, disk.get(), ImageBytes(2, 'b'), head);
    CheckpointImage(&pool, disk.get(), live, head);
    ASSERT_GT(disk->free_pages(), 0u);
    // The crash: a 12-page image reaches the file, its Sync never runs.
    storage::PageChainWriter writer(&pool, 1);
    const std::string doomed = ImageBytes(12, 'd');
    ASSERT_TRUE(writer.Write(doomed.data(), doomed.size()).ok());
    ASSERT_TRUE(writer.Finish().ok());
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE(std::filesystem::copy_file(dir.File("img.pages"),
                                           crash.File("img.pages")));
  }
  const std::string next = ImageBytes(12, 'e');
  {
    auto opened = DiskStorageManager::Open(crash.File("img.pages"));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto disk = std::move(opened).value();
    AllocationAudit audit(disk.get());
    BufferPool pool(&audit, 64);
    EXPECT_EQ(ReadImage(&pool, &audit, live.size()), live);
    storage::PageChainWriter writer(&pool, 2);
    ASSERT_TRUE(writer.Write(next.data(), next.size()).ok());
    auto head = writer.Finish();
    ASSERT_TRUE(head.ok());
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE(audit.Sync().ok());
    ASSERT_TRUE(audit.WriteMeta(StrFormat("img %u", *head)).ok());
  }
  auto opened = DiskStorageManager::Open(crash.File("img.pages"));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto disk = std::move(opened).value();
  BufferPool pool(disk.get(), 64);
  EXPECT_EQ(ReadImage(&pool, disk.get(), next.size()), next);
}

// --- Randomized torture: model-checked Put/Delete/Checkpoint/reopen ----------

TEST_F(StorageRecoveryTest, TortureTenThousandOpsAgainstModel) {
  TempDir dir;
  constexpr size_t kTargetOps = 10000;
  constexpr int kPartitions = 4;
  constexpr uint64_t kKeySpace = 400;

  Rng rng(20240807);
  std::map<std::string, std::string> model;
  auto store = OpenStore(dir, kPartitions);

  auto check_against_model = [&]() {
    const auto rows = store->ScanPrefix("t|");
    ASSERT_EQ(rows.size(), model.size());
    auto it = model.begin();
    for (size_t i = 0; i < rows.size(); ++i, ++it) {
      ASSERT_EQ(rows[i].first, it->first);
      ASSERT_EQ(rows[i].second, it->second);
    }
  };

  size_t ops = 0;
  size_t txns = 0;
  size_t checkpoints = 0;
  size_t reopens = 0;
  size_t next_checkpoint = 1500;
  size_t next_reopen = 2500;
  while (ops < kTargetOps) {
    // One transaction of 1-4 ops, mirrored into the model on commit.
    auto txn = store->Begin();
    std::map<std::string, std::optional<std::string>> staged;
    const uint64_t nops = 1 + rng.Uniform(4);
    for (uint64_t j = 0; j < nops; ++j) {
      const std::string key = StrFormat("t|%04llu",
                                        (unsigned long long)rng.Uniform(kKeySpace));
      if (rng.Uniform(100) < 70) {
        const std::string value =
            StrFormat("v%llu", (unsigned long long)rng.Next());
        ASSERT_TRUE(txn->Put(key, value).ok());
        staged[key] = value;
      } else {
        ASSERT_TRUE(txn->Delete(key).ok());
        staged[key] = std::nullopt;
      }
      ++ops;
    }
    ASSERT_TRUE(txn->Commit().ok());
    ++txns;
    for (const auto& [key, value] : staged) {
      if (value.has_value()) {
        model[key] = *value;
      } else {
        model.erase(key);
      }
    }

    if (ops >= next_checkpoint) {
      next_checkpoint += 1500;
      ++checkpoints;
      const Status ck = store->Checkpoint();
      ASSERT_TRUE(ck.ok()) << ck.ToString();
    }
    if (ops >= next_reopen) {
      next_reopen += 2500;
      ++reopens;
      store.reset();
      store = OpenStore(dir, kPartitions);
      check_against_model();
    }
  }
  // Final restart + full model equivalence.
  store.reset();
  store = OpenStore(dir, kPartitions);
  check_against_model();
  EXPECT_GE(ops, kTargetOps);
  EXPECT_GE(checkpoints, 5u);
  EXPECT_GE(reopens, 3u);
  // The last reopen loaded a checkpoint image: the paged path ran.
  EXPECT_GT(Replica0(*store).recovered_rows, 0u);
}

// --- Golden on-disk format ----------------------------------------------------

// The fixed script behind the committed fixtures. Any byte-level change
// to the page layout, superblock, page-chain encoding or WAL framing
// shows up as a diff against tests/data/e18_golden_{pages,wal}.bin.
void RunGoldenScript(const TempDir& dir) {
  auto store = OpenStore(dir, 4);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(store
                    ->Put(StrFormat("g|%03d", i), StrFormat("golden-%d", i))
                    .ok());
  }
  ASSERT_TRUE(store->Checkpoint().ok());
  for (int i = 16; i < 24; ++i) {
    ASSERT_TRUE(store
                    ->Put(StrFormat("g|%03d", i), StrFormat("tail-%d", i))
                    .ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store->Delete(StrFormat("g|%03d", i)).ok());
  }
}

size_t FirstDiff(const std::string& a, const std::string& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return n;
}

TEST_F(StorageRecoveryTest, GoldenOnDiskFormatIsBitExact) {
  TempDir dir;
  RunGoldenScript(dir);
  const std::string pages = ReadFileBytes(dir.File(kPagesFile));
  const std::string wal = ReadFileBytes(dir.File(kWalFile));

  const std::string fixture_dir = EEA_TEST_DATA_DIR;
  const std::string pages_fixture = fixture_dir + "/e18_golden_pages.bin";
  const std::string wal_fixture = fixture_dir + "/e18_golden_wal.bin";
  if (std::getenv("EEA_REGENERATE_GOLDEN") != nullptr) {
    WriteFileBytes(pages_fixture, pages);
    WriteFileBytes(wal_fixture, wal);
    GTEST_SKIP() << "regenerated " << pages_fixture << " ("
                 << pages.size() << " B) and " << wal_fixture << " ("
                 << wal.size() << " B)";
  }

  const std::string want_pages = ReadFileBytes(pages_fixture);
  const std::string want_wal = ReadFileBytes(wal_fixture);
  EXPECT_TRUE(pages == want_pages)
      << "pages file diverges from " << pages_fixture << " at byte "
      << FirstDiff(pages, want_pages) << " (got " << pages.size()
      << " B, fixture " << want_pages.size()
      << " B). The on-disk page format changed: if intentional, bump "
         "kStorageFormatVersion and rerun with EEA_REGENERATE_GOLDEN=1.";
  EXPECT_TRUE(wal == want_wal)
      << "WAL file diverges from " << wal_fixture << " at byte "
      << FirstDiff(wal, want_wal) << " (got " << wal.size()
      << " B, fixture " << want_wal.size()
      << " B). The WAL framing changed: if intentional, bump "
         "kWalFormatVersion and rerun with EEA_REGENERATE_GOLDEN=1.";
}

TEST_F(StorageRecoveryTest, GoldenFixtureCarriesSuperblockVersion) {
  const std::string fixture = std::string(EEA_TEST_DATA_DIR) +
                              "/e18_golden_pages.bin";
  const std::string bytes = ReadFileBytes(fixture);
  ASSERT_GE(bytes.size(), storage::kPageSize) << fixture;
  // Superblock layout: page header, u64 magic, u32 format version.
  EXPECT_TRUE(storage::VerifyPage(bytes.data(), 0));
  EXPECT_EQ(storage::LoadU64(bytes.data() + storage::kPageHeaderSize),
            0x31524F5453414545ull);  // "EEASTOR1"
  EXPECT_EQ(storage::LoadU32(bytes.data() + storage::kPageHeaderSize + 8),
            storage::kStorageFormatVersion);
}

TEST_F(StorageRecoveryTest, GoldenStateRecoversIdentically) {
  // Two independent golden runs recover to the same contents — the
  // deterministic-format claim, checked at the semantic level too.
  uint64_t hashes[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    TempDir dir;
    RunGoldenScript(dir);
    auto store = OpenStore(dir, 4);
    EXPECT_EQ(store->Size(), 20u);  // 24 puts - 4 deletes
    hashes[run] = StoreContentHash(*store);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
}

// --- Frozen R-tree: disk/memory equivalence -----------------------------------

TEST_F(StorageRecoveryTest, FrozenRTreeMatchesMemoryUnderSmallPool) {
  strabon::GeoWorkloadOptions wopts;
  wopts.num_features = 20000;
  wopts.seed = 5;
  wopts.with_thematic = false;
  strabon::GeoStore store = strabon::MakeGeoWorkload(wopts);

  // Expected results from the in-memory packed tree.
  Rng rng(17);
  std::vector<geo::Box> boxes;
  std::vector<strabon::BatchSelectQuery> batch;
  for (int i = 0; i < 24; ++i) {
    boxes.push_back(strabon::RandomSelectionBox(wopts.world_size, 0.002, &rng));
    batch.push_back({boxes.back(), strabon::SpatialRelation::kIntersects});
  }
  std::vector<std::vector<uint64_t>> expected;
  for (const geo::Box& box : boxes) {
    auto r = store.SpatialSelect(box, strabon::SpatialRelation::kIntersects,
                                 /*use_index=*/true);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(r).value());
  }
  auto expected_batch = store.SpatialSelectBatch(batch);
  ASSERT_TRUE(expected_batch.ok());

  // Freeze the index through a disk-backed pool and drop the cache.
  TempDir dir;
  auto opened = DiskStorageManager::Open(dir.File("pages"));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto disk = std::move(opened).value();
  PageId head = storage::kInvalidPageId;
  {
    BufferPool freeze_pool(disk.get(), 64);
    ASSERT_TRUE(store.FreezeIndexTo(&freeze_pool, &head).ok());
    ASSERT_TRUE(freeze_pool.FlushAll().ok());
    ASSERT_TRUE(disk->Sync().ok());
  }
  ASSERT_NE(head, storage::kInvalidPageId);

  // The pool is much smaller than the index: every load misses and
  // evicts, so equivalence holds even when the index does not fit.
  constexpr size_t kSmallPool = 8;
  ASSERT_GT(disk->page_count(), kSmallPool + 1)
      << "workload too small to exceed the page cache";
  BufferPool pool(disk.get(), kSmallPool);

  const geo::simd::KernelVariant original = geo::simd::ActiveVariant();
  std::vector<geo::simd::KernelVariant> variants = {
      geo::simd::KernelVariant::kScalar};
  if (geo::simd::VariantAvailable(geo::simd::KernelVariant::kAvx2)) {
    variants.push_back(geo::simd::KernelVariant::kAvx2);
  }
  for (const auto variant : variants) {
    ASSERT_TRUE(geo::simd::SetVariant(variant));
    const Status loaded = store.LoadFrozenIndex(&pool, head);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    for (size_t i = 0; i < boxes.size(); ++i) {
      auto r = store.SpatialSelect(boxes[i],
                                   strabon::SpatialRelation::kIntersects,
                                   /*use_index=*/true);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value(), expected[i])
          << "query " << i << " under " << geo::simd::ActiveVariantName();
    }
    auto rb = store.SpatialSelectBatch(batch);
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    EXPECT_EQ(rb.value(), expected_batch.value())
        << "batch under " << geo::simd::ActiveVariantName();
  }
  geo::simd::SetVariant(original);
  EXPECT_GT(pool.stats().evictions, 0u)
      << "the small pool should have thrashed while paging the index";
  ASSERT_TRUE(pool.CheckInvariants().ok());
}

// --- HopsFS on the durable store ----------------------------------------------

TEST_F(StorageRecoveryTest, HopsFsNamespaceSurvivesRestart) {
  TempDir dir;
  const dfs::HopsFsCluster::Options opts;
  {
    auto store = OpenStore(dir, 4);
    dfs::HopsFsCluster cluster(opts, store.get(), 1);
    dfs::HopsFsNameNode nn(&cluster);
    ASSERT_TRUE(nn.Mkdir("/data").ok());
    ASSERT_TRUE(nn.Create("/data/a.txt", 5, "hello").ok());
    ASSERT_TRUE(nn.Create("/data/b.txt", 3, "abc").ok());
    ASSERT_TRUE(nn.Mkdir("/data/sub").ok());
  }
  auto store = OpenStore(dir, 4);
  dfs::HopsFsCluster cluster(opts, store.get(), 1);
  dfs::HopsFsNameNode nn(&cluster);
  auto listed = nn.List("/data");
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  std::vector<std::string> names = listed.value();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a.txt", "b.txt", "sub"}));
  auto body = nn.ReadFile("/data/a.txt");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value(), "hello");
  // The inode-id allocator resumed past the recovered ids: new files can
  // be created without colliding with recovered inodes.
  ASSERT_TRUE(nn.Create("/data/c.txt", 2, "ok").ok());
  auto relisted = nn.List("/data");
  ASSERT_TRUE(relisted.ok());
  EXPECT_EQ(relisted.value().size(), 4u);
}

// --- Concurrency: group commit + checkpoint under threads ---------------------

TEST_F(StorageRecoveryTest, ConcurrentDurableCommitsAllSurviveRestart) {
  TempDir dir;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  {
    auto store = OpenStore(dir, 8);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&store, t]() {
        for (int i = 0; i < kPerThread; ++i) {
          const Status put = store->Put(
              StrFormat("mt|%d|%03d", t, i), StrFormat("v-%d-%d", t, i));
          ASSERT_TRUE(put.ok()) << put.ToString();
        }
      });
    }
    // Checkpoints race the writers: the shard mutex must cut between
    // whole transactions, never through one, and never between an acked
    // commit and its apply to the leader's store.
    for (int c = 0; c < 3; ++c) {
      const Status ck = store->Checkpoint();
      ASSERT_TRUE(ck.ok()) << ck.ToString();
    }
    for (std::thread& w : workers) w.join();
  }
  auto store = OpenStore(dir, 8);
  EXPECT_EQ(store->Size(),
            static_cast<size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      auto v = store->Get(StrFormat("mt|%d|%03d", t, i));
      ASSERT_TRUE(v.ok()) << "lost mt|" << t << "|" << i;
      EXPECT_EQ(v.value(), StrFormat("v-%d-%d", t, i));
    }
  }
}

TEST_F(StorageRecoveryTest, ConcurrentHopsFsCreatesResumeIdsAfterMidRunCrash) {
  // Four namenode threads hammer Create against a durable cluster whose
  // WAL dies mid-run (group fsync #12 drops the unsynced tail and every
  // later commit fails). After a restart the resumed inode-id allocator
  // must extend past the recovered namespace: every acknowledged path is
  // still there, new creates from four threads all succeed, and a full
  // sweep of the inode table finds no id used twice.
  TempDir dir;
  const dfs::HopsFsCluster::Options opts;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::vector<std::vector<std::string>> acked(kThreads);
  {
    auto store = OpenStore(dir, 4);
    dfs::HopsFsCluster cluster(opts, store.get(), 1);
    FaultRule rule;
    rule.fail_calls = {12};
    FaultInjector::Default().Program("storage.wal.fsync", rule);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&cluster, &acked, t]() {
        dfs::HopsFsNameNode nn(&cluster);
        for (int i = 0; i < kPerThread; ++i) {
          const std::string path = StrFormat("/t%d-f%03d", t, i);
          if (nn.Create(path, 8, "payload8").ok()) acked[t].push_back(path);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_GE(FaultInjector::Default().triggered("storage.wal.fsync"), 1u)
        << "the mid-run crash never fired";
  }
  FaultInjector::Default().Reset();

  // Restart over the same files; the "machine" came back healthy.
  auto store = OpenStore(dir, 4);
  dfs::HopsFsCluster cluster(opts, store.get(), 1);
  dfs::HopsFsNameNode nn(&cluster);
  size_t acked_total = 0;
  for (int t = 0; t < kThreads; ++t) {
    acked_total += acked[t].size();
    for (const std::string& path : acked[t]) {
      EXPECT_TRUE(nn.GetFileInfo(path).ok())
          << "acked path " << path << " lost after restart";
    }
  }
  EXPECT_GT(acked_total, 0u) << "nothing committed before the crash";
  EXPECT_LT(acked_total, static_cast<size_t>(kThreads * kPerThread))
      << "the crash never surfaced to a commit";

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cluster, t]() {
      dfs::HopsFsNameNode nn(&cluster);
      for (int i = 0; i < kPerThread; ++i) {
        const Status made =
            nn.Create(StrFormat("/r%d-f%03d", t, i), 8, "payload8");
        ASSERT_TRUE(made.ok()) << made.ToString();
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // No inode id may appear twice across recovered and post-restart
  // creates (rows encode "<id>|...").
  std::set<int64_t> ids;
  size_t rows = 0;
  for (const auto& [key, value] : cluster.store().ScanPrefix("i|")) {
    ++rows;
    const int64_t id = std::stoll(value);
    EXPECT_TRUE(ids.insert(id).second)
        << "inode id " << id << " allocated twice (row " << key << ")";
  }
  EXPECT_EQ(ids.size(), rows);
  EXPECT_GE(rows, acked_total + static_cast<size_t>(kThreads * kPerThread) +
                      1);  // + the root inode
}

}  // namespace
}  // namespace exearth
