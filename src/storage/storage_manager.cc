#include "storage/storage_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace exearth::storage {

using common::Result;
using common::Status;

namespace {

// Shared metric handles for the page IO path.
struct PageMetrics {
  common::Counter* reads;
  common::Counter* writes;
  common::Counter* allocs;
  common::Counter* frees;

  static const PageMetrics& Get() {
    static PageMetrics m = [] {
      auto& reg = common::MetricsRegistry::Default();
      return PageMetrics{
          reg.GetCounter("storage.page.reads"),
          reg.GetCounter("storage.page.writes"),
          reg.GetCounter("storage.page.allocs"),
          reg.GetCounter("storage.page.frees"),
      };
    }();
    return m;
  }
};

Status Errno(const char* op, const std::string& path) {
  return Status::IOError(common::StrFormat("%s(%s): %s", op, path.c_str(),
                                           std::strerror(errno)));
}

// Superblock payload layout (little-endian, after the 16-byte page
// header). Pinned by the golden-format test; changes require bumping
// kStorageFormatVersion.
constexpr uint64_t kSuperMagic = 0x31524F5453414545ull;  // "EEASTOR1"
constexpr size_t kSuperMagicOff = kPageHeaderSize;       // u64
constexpr size_t kSuperVersionOff = kSuperMagicOff + 8;  // u32
constexpr size_t kSuperPageCountOff = kSuperVersionOff + 4;   // u32
constexpr size_t kSuperFreeHeadOff = kSuperPageCountOff + 4;  // u32
constexpr size_t kSuperFreeCountOff = kSuperFreeHeadOff + 4;  // u32
constexpr size_t kSuperMetaLenOff = kSuperFreeCountOff + 4;   // u32
constexpr size_t kSuperMetaOff = kSuperMetaLenOff + 4;        // bytes

}  // namespace

// --- MemoryStorageManager ----------------------------------------------------

Result<PageId> MemoryStorageManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mu_);
  PageMetrics::Get().allocs->Increment();
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    free_[id] = false;
    return id;
  }
  if (pages_.empty()) {
    // Index 0 is reserved (the superblock slot on disk); keep ids aligned
    // across managers so golden fixtures and tests transfer.
    pages_.push_back(nullptr);
    free_.push_back(false);
  }
  PageId id = static_cast<PageId>(pages_.size());
  pages_.push_back(std::make_unique<char[]>(kPageSize));
  free_.push_back(false);
  return id;
}

Status MemoryStorageManager::FreePage(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id >= pages_.size() || pages_[id] == nullptr || free_[id]) {
    return Status::InvalidArgument(
        common::StrFormat("FreePage: bad page id %u", id));
  }
  PageMetrics::Get().frees->Increment();
  free_[id] = true;
  free_list_.push_back(id);
  return Status::OK();
}

Status MemoryStorageManager::ReadPage(PageId id, char* buf) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id >= pages_.size() || pages_[id] == nullptr || free_[id]) {
    return Status::IOError(common::StrFormat("ReadPage: bad page id %u", id));
  }
  PageMetrics::Get().reads->Increment();
  std::memcpy(buf, pages_[id].get(), kPageSize);
  if (!VerifyPage(buf, id)) {
    return Status::IOError(
        common::StrFormat("ReadPage: checksum mismatch on page %u", id));
  }
  return Status::OK();
}

Status MemoryStorageManager::WritePage(PageId id, char* buf, uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id >= pages_.size() || pages_[id] == nullptr || free_[id]) {
    return Status::IOError(common::StrFormat("WritePage: bad page id %u", id));
  }
  EEA_RETURN_NOT_OK(common::fault::MaybeFail("storage.page.write"));
  PageMetrics::Get().writes->Increment();
  SealPage(buf, id, lsn);
  std::memcpy(pages_[id].get(), buf, kPageSize);
  return Status::OK();
}

Result<std::string> MemoryStorageManager::ReadMeta() {
  std::lock_guard<std::mutex> lock(mu_);
  return meta_;
}

Status MemoryStorageManager::WriteMeta(const std::string& meta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (meta.size() > kMaxMetaBytes) {
    return Status::InvalidArgument("WriteMeta: metadata too large");
  }
  meta_ = meta;
  return Status::OK();
}

uint32_t MemoryStorageManager::page_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(pages_.size());
}

uint32_t MemoryStorageManager::free_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(free_list_.size());
}

// --- DiskStorageManager ------------------------------------------------------

DiskStorageManager::DiskStorageManager(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {}

DiskStorageManager::~DiskStorageManager() {
  if (fd_ >= 0) {
    // Best-effort persistence of the allocator state on clean shutdown; a
    // crash (no destructor) just leaks unreferenced pages.
    {
      std::lock_guard<std::mutex> lock(mu_);
      WriteSuperblockLocked();
    }
    ::fsync(fd_);
    ::close(fd_);
  }
}

Result<std::unique_ptr<DiskStorageManager>> DiskStorageManager::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open", path);
  auto mgr = std::unique_ptr<DiskStorageManager>(
      new DiskStorageManager(path, fd));
  struct stat st;
  if (::fstat(fd, &st) != 0) return Errno("fstat", path);
  std::lock_guard<std::mutex> lock(mgr->mu_);
  if (st.st_size == 0) {
    // Fresh file: write the v1 superblock.
    EEA_RETURN_NOT_OK(mgr->WriteSuperblockLocked());
    if (::fsync(fd) != 0) return Errno("fsync", path);
  } else {
    EEA_RETURN_NOT_OK(mgr->ReadSuperblockLocked());
  }
  return mgr;
}

Status DiskStorageManager::WriteSuperblockLocked() {
  char page[kPageSize];
  std::memset(page, 0, kPageSize);
  StoreU64(page + kSuperMagicOff, kSuperMagic);
  StoreU32(page + kSuperVersionOff, kStorageFormatVersion);
  StoreU32(page + kSuperPageCountOff, page_count_);
  StoreU32(page + kSuperFreeHeadOff, free_head_);
  StoreU32(page + kSuperFreeCountOff, free_count_);
  StoreU32(page + kSuperMetaLenOff, static_cast<uint32_t>(meta_.size()));
  std::memcpy(page + kSuperMetaOff, meta_.data(), meta_.size());
  SealPage(page, 0, 0);
  PageMetrics::Get().writes->Increment();
  if (::pwrite(fd_, page, kPageSize, 0) != static_cast<ssize_t>(kPageSize)) {
    return Errno("pwrite", path_);
  }
  return Status::OK();
}

Status DiskStorageManager::ReadSuperblockLocked() {
  char page[kPageSize];
  if (::pread(fd_, page, kPageSize, 0) != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError("superblock: short read from " + path_);
  }
  if (!VerifyPage(page, 0)) {
    return Status::IOError("superblock: checksum mismatch in " + path_);
  }
  if (LoadU64(page + kSuperMagicOff) != kSuperMagic) {
    return Status::IOError(path_ + " is not an exearth storage file");
  }
  const uint32_t version = LoadU32(page + kSuperVersionOff);
  if (version != kStorageFormatVersion) {
    return Status::IOError(common::StrFormat(
        "%s: storage format version mismatch: file has v%u, this reader "
        "supports v%u — refusing to open (format changes must ship a "
        "migration, see tests/storage_recovery_test.cc golden fixture)",
        path_.c_str(), version, kStorageFormatVersion));
  }
  page_count_ = LoadU32(page + kSuperPageCountOff);
  free_head_ = LoadU32(page + kSuperFreeHeadOff);
  free_count_ = LoadU32(page + kSuperFreeCountOff);
  const uint32_t meta_len = LoadU32(page + kSuperMetaLenOff);
  if (meta_len > kMaxMetaBytes) {
    return Status::IOError("superblock: corrupt metadata length in " + path_);
  }
  meta_.assign(page + kSuperMetaOff, meta_len);
  return Status::OK();
}

Result<PageId> DiskStorageManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mu_);
  PageMetrics::Get().allocs->Increment();
  if (free_count_ > 0 && free_head_ != kInvalidPageId) {
    // Pop the free-list head; a free page's payload stores the next id.
    PageId id = free_head_;
    char page[kPageSize];
    if (::pread(fd_, page, kPageSize,
                static_cast<off_t>(id) * kPageSize) !=
        static_cast<ssize_t>(kPageSize)) {
      return Errno("pread", path_);
    }
    if (!VerifyPage(page, id)) {
      return Status::IOError(
          common::StrFormat("free list: checksum mismatch on page %u", id));
    }
    free_head_ = LoadU32(page + kPageHeaderSize);
    --free_count_;
    // A crash between a checkpoint's page writes and its Sync can leave
    // pages of the synced free list overwritten by a page chain, whose
    // payload holds the chain's own next link at the same offset. A link
    // past the count or outside the file ends the list; the pages left on
    // it leak, as any crash may leak pages.
    if (free_count_ == 0 ||
        (free_head_ != kInvalidPageId &&
         (free_head_ == 0 || free_head_ >= page_count_))) {
      free_head_ = kInvalidPageId;
      free_count_ = 0;
    }
    return id;
  }
  return static_cast<PageId>(page_count_++);
}

Status DiskStorageManager::FreePage(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id >= page_count_) {
    return Status::InvalidArgument(
        common::StrFormat("FreePage: bad page id %u", id));
  }
  PageMetrics::Get().frees->Increment();
  // Chain onto the free list: the freed page's payload holds the old head.
  char page[kPageSize];
  std::memset(page, 0, kPageSize);
  StoreU32(page + kPageHeaderSize, free_head_);
  EEA_RETURN_NOT_OK(WritePageLocked(id, page, 0));
  free_head_ = id;
  ++free_count_;
  return Status::OK();
}

Status DiskStorageManager::ReadPage(PageId id, char* buf) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id >= page_count_) {
    return Status::IOError(common::StrFormat("ReadPage: bad page id %u", id));
  }
  PageMetrics::Get().reads->Increment();
  const ssize_t n =
      ::pread(fd_, buf, kPageSize, static_cast<off_t>(id) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    // A page allocated but never written reads short at EOF: surface it as
    // the same torn-page IOError the CRC would give.
    return Status::IOError(
        common::StrFormat("ReadPage: short read on page %u", id));
  }
  if (!VerifyPage(buf, id)) {
    return Status::IOError(
        common::StrFormat("ReadPage: checksum mismatch on page %u", id));
  }
  return Status::OK();
}

Status DiskStorageManager::WritePageLocked(PageId id, char* buf,
                                           uint64_t lsn) {
  // The chaos suite kills checkpoint page writes here ("crash during
  // write-back"); a triggered fault leaves the on-disk page untouched.
  EEA_RETURN_NOT_OK(common::fault::MaybeFail("storage.page.write"));
  PageMetrics::Get().writes->Increment();
  SealPage(buf, id, lsn);
  if (::pwrite(fd_, buf, kPageSize, static_cast<off_t>(id) * kPageSize) !=
      static_cast<ssize_t>(kPageSize)) {
    return Errno("pwrite", path_);
  }
  return Status::OK();
}

Status DiskStorageManager::WritePage(PageId id, char* buf, uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id >= page_count_) {
    return Status::IOError(common::StrFormat("WritePage: bad page id %u", id));
  }
  return WritePageLocked(id, buf, lsn);
}

Status DiskStorageManager::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  EEA_RETURN_NOT_OK(WriteSuperblockLocked());
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  return Status::OK();
}

Result<std::string> DiskStorageManager::ReadMeta() {
  std::lock_guard<std::mutex> lock(mu_);
  return meta_;
}

Status DiskStorageManager::WriteMeta(const std::string& meta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (meta.size() > kMaxMetaBytes) {
    return Status::InvalidArgument("WriteMeta: metadata too large");
  }
  const std::string saved = meta_;
  meta_ = meta;
  // The meta slot is the checkpoint commit point: write-through + fsync.
  Status s = WriteSuperblockLocked();
  if (s.ok() && ::fsync(fd_) != 0) s = Errno("fsync", path_);
  if (!s.ok()) meta_ = saved;
  return s;
}

uint32_t DiskStorageManager::page_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_count_;
}

uint32_t DiskStorageManager::free_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_count_;
}

}  // namespace exearth::storage
