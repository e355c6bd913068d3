// Streaming byte reader/writer over a singly linked chain of pages.
//
// Both the KV checkpoint image and the frozen R-tree arena are byte
// streams larger than one page (HopsFS inline files alone reach 64 KiB,
// dwarfing the 4080-byte payload). A PageChain stores such a stream
// across pages allocated from a BufferPool, each page's payload laid out
// as:
//
//   [u32 next_page_id][u16 used_bytes][data ...]
//
// with next == kInvalidPageId on the tail. The head page id is what
// consumers persist (in the superblock meta slot) to find the stream
// again. FreeChain walks and releases a chain — used when a checkpoint
// replaces its predecessor.

#ifndef EXEARTH_STORAGE_PAGE_CHAIN_H_
#define EXEARTH_STORAGE_PAGE_CHAIN_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace exearth::storage {

inline constexpr size_t kChainHeaderSize = 6;  // u32 next + u16 used
inline constexpr size_t kChainDataPerPage =
    kPagePayloadSize - kChainHeaderSize;

/// Appends bytes across a growing chain of pages. Write() any number of
/// times, then Finish() to seal the tail and get the head page id. All
/// pages are written through the pool (MarkDirty) with the given LSN.
class PageChainWriter {
 public:
  PageChainWriter(BufferPool* pool, uint64_t lsn) : pool_(pool), lsn_(lsn) {}

  common::Status Write(const void* data, size_t len);
  common::Status WriteU32(uint32_t v);
  common::Status WriteU64(uint64_t v);
  common::Status WriteF64(double v);
  common::Status WriteString(const std::string& s);  // u32 len + bytes

  /// Seals the tail page and returns the head page id (kInvalidPageId
  /// for an empty chain — nothing was written).
  common::Result<PageId> Finish();

  uint64_t bytes_written() const { return bytes_written_; }

  /// The chain's first page (kInvalidPageId before the first write). The
  /// pages written so far stay linked from it if a write fails, so
  /// FreeChain can take back an unfinished chain once the writer is gone.
  PageId head() const { return head_; }

 private:
  common::Status EnsurePage();

  BufferPool* pool_;
  uint64_t lsn_;
  PageId head_ = kInvalidPageId;
  PageHandle cur_;
  size_t cur_used_ = 0;
  uint64_t bytes_written_ = 0;
  bool finished_ = false;
};

/// Sequentially reads a chain written by PageChainWriter. Each page is
/// pinned only while being consumed, so chains larger than the pool read
/// fine (with evictions).
class PageChainReader {
 public:
  PageChainReader(BufferPool* pool, PageId head)
      : pool_(pool), next_(head) {}

  common::Status Read(void* out, size_t len);
  common::Result<uint32_t> ReadU32();
  common::Result<uint64_t> ReadU64();
  common::Result<double> ReadF64();
  common::Result<std::string> ReadString();

  /// True once every byte of the chain has been consumed.
  bool AtEnd();

 private:
  common::Status EnsurePage();

  BufferPool* pool_;
  PageId next_;
  PageHandle cur_;
  size_t cur_used_ = 0;
  size_t cur_off_ = 0;
};

/// Frees every page of the chain starting at `head` (no-op for
/// kInvalidPageId).
common::Status FreeChain(BufferPool* pool, PageId head);

}  // namespace exearth::storage

#endif  // EXEARTH_STORAGE_PAGE_CHAIN_H_
