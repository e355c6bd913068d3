// BufferPool — the page cache between consumers (KV checkpoints, the
// frozen R-tree) and an IStorageManager (ROADMAP item 1).
//
// Frames hold one page image each. Fetch pins the frame (LRU-evicting an
// unpinned frame if the pool is full, writing it back first when dirty);
// the returned PageHandle unpins on destruction. New allocates a fresh
// page and returns it pinned and dirty. Only unpinned frames are eviction
// candidates — a pinned page's bytes are stable for the handle's
// lifetime.
//
// Metrics: storage.bufferpool.hits / misses / evictions / writebacks.
//
// Invariants (enforced by CheckInvariants(), which the buffer-pool and
// frozen-R-tree tests call after their operations):
//   - every frame's pin count is >= 0;
//   - a pinned frame is never on the LRU list (so never evictable);
//   - frames_ holds at most `capacity` frames;
//   - every dirty eviction went through WritePage (writebacks counter).
//
// Thread safety: one mutex serializes the pool's tables. Page *contents*
// of a pinned frame may be mutated by its single writer without the pool
// lock; the pool never touches a pinned frame's bytes.

#ifndef EXEARTH_STORAGE_BUFFER_POOL_H_
#define EXEARTH_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/storage_manager.h"

namespace exearth::storage {

class BufferPool;

/// RAII pin on a buffer-pool frame. Movable, not copyable; unpins on
/// destruction. `data()` is the kPageSize page image (header included);
/// `payload()` skips the header. Call MarkDirty after mutating so the
/// pool writes the frame back before eviction.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }
  char* data() const { return data_; }
  char* payload() const { return data_ + kPageHeaderSize; }
  void MarkDirty();

  /// Explicit early unpin (idempotent).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, PageId id, char* data)
      : pool_(pool), id_(id), data_(data) {}

  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  char* data_ = nullptr;
};

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  size_t cached_pages = 0;
  size_t pinned_pages = 0;
};

class BufferPool {
 public:
  /// `capacity` is the max number of resident frames (>= 1). The pool
  /// does not own `storage`; it must outlive the pool.
  BufferPool(IStorageManager* storage, size_t capacity);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Allocates a new page and returns it pinned, zero-filled and dirty.
  common::Result<PageHandle> New();

  /// Pins page `id`, reading it from storage on a miss.
  common::Result<PageHandle> Fetch(PageId id);

  /// Returns `id` to the storage free list. The page must not be pinned;
  /// a cached frame is dropped without write-back.
  common::Status FreePage(PageId id);

  /// Writes back every dirty frame (does not evict, does not fsync).
  common::Status FlushAll();

  /// FlushAll + drop every unpinned frame. Errors if any frame is still
  /// pinned. Benches use this to measure a cold cache.
  common::Status DropAll();

  IStorageManager* storage() const { return storage_; }
  size_t capacity() const { return capacity_; }
  BufferPoolStats stats() const;

  /// Debug validation hook: verifies the pool invariants (header comment)
  /// and returns InternalError naming the first violation.
  common::Status CheckInvariants() const;

 private:
  friend class PageHandle;

  struct Frame {
    PageId id = kInvalidPageId;
    int pins = 0;
    bool dirty = false;
    uint64_t lsn = 0;  // stamped into the header on write-back
    std::list<PageId>::iterator lru_pos{};
    bool in_lru = false;
    std::unique_ptr<char[]> data;  // heap: stable across table rehash
  };

  void Unpin(PageId id);
  void MarkDirty(PageId id);
  // Ensures room for one more frame, evicting the LRU unpinned frame if
  // needed. Returns Unavailable when every frame is pinned.
  common::Status EvictForSpaceLocked();
  common::Status WriteBackLocked(Frame* f);

  IStorageManager* storage_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<PageId, std::unique_ptr<Frame>> frames_;
  std::list<PageId> lru_;  // front = most recent; only unpinned frames
  BufferPoolStats stats_;
};

}  // namespace exearth::storage

#endif  // EXEARTH_STORAGE_BUFFER_POOL_H_
