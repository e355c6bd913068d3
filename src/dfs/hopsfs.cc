#include "dfs/hopsfs.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <thread>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace exearth::dfs {

using common::Result;
using common::Status;

namespace {

// Inode row value: "<id>|<d-or-f>|<size>|<blocks>|<inline>[|<payload>]".
// Small-file payloads live inside the inode row itself ("Size Matters"):
// reading or writing a small file is then a single-row transaction.
struct InodeRow {
  int64_t id = 0;
  bool is_directory = false;
  uint64_t size = 0;
  int blocks = 0;
  bool inline_data = false;
  std::string inline_content;  // raw bytes; may contain any characters
};

std::string EncodeInode(const InodeRow& row) {
  std::string out = common::StrFormat(
      "%lld|%c|%llu|%d|%d", static_cast<long long>(row.id),
      row.is_directory ? 'd' : 'f',
      static_cast<unsigned long long>(row.size), row.blocks,
      row.inline_data ? 1 : 0);
  if (row.inline_data && !row.inline_content.empty()) {
    out += '|';
    out += row.inline_content;
  }
  return out;
}

Result<InodeRow> DecodeInode(const std::string& value) {
  // The first five fields are '|'-separated; everything after the fifth
  // separator is the raw inline payload (which may itself contain '|').
  std::array<std::string, 5> fields;
  size_t pos = 0;
  std::string payload;
  for (int f = 0; f < 5; ++f) {
    size_t next = value.find('|', pos);
    if (f < 4) {
      if (next == std::string::npos) {
        return Status::Internal("corrupt inode row: " + value);
      }
      fields[static_cast<size_t>(f)] = value.substr(pos, next - pos);
      pos = next + 1;
    } else if (next == std::string::npos) {
      fields[4] = value.substr(pos);
    } else {
      fields[4] = value.substr(pos, next - pos);
      payload = value.substr(next + 1);
    }
  }
  if (fields[1].size() != 1) {
    return Status::Internal("corrupt inode row: " + value);
  }
  InodeRow row;
  int64_t size = 0;
  int64_t blocks = 0;
  int64_t inline_flag = 0;
  if (!common::ParseInt64(fields[0], &row.id) ||
      !common::ParseInt64(fields[2], &size) ||
      !common::ParseInt64(fields[3], &blocks) ||
      !common::ParseInt64(fields[4], &inline_flag)) {
    return Status::Internal("corrupt inode row: " + value);
  }
  row.is_directory = fields[1][0] == 'd';
  row.size = static_cast<uint64_t>(size);
  row.blocks = static_cast<int>(blocks);
  row.inline_data = inline_flag != 0;
  row.inline_content = std::move(payload);
  return row;
}

std::string InodeKey(int64_t parent_id, const std::string& name) {
  return common::StrFormat("i|%012lld|", static_cast<long long>(parent_id)) +
         name;
}

std::string ChildPrefix(int64_t parent_id) {
  return common::StrFormat("i|%012lld|", static_cast<long long>(parent_id));
}

std::string BlockKey(int64_t inode_id, int index) {
  return common::StrFormat("b|%012lld|%06d",
                           static_cast<long long>(inode_id), index);
}

// Shared metric handles for the metadata hot path.
struct DfsMetrics {
  common::Counter* ops;
  common::Counter* txn_retries;
  common::Counter* txn_deadline_exceeded;
  common::Counter* txn_cancelled;
  common::Counter* files_created;
  common::Counter* small_files_inline;
  common::Histogram* op_latency_us;

  static const DfsMetrics& Get() {
    static DfsMetrics m = [] {
      auto& reg = common::MetricsRegistry::Default();
      return DfsMetrics{
          reg.GetCounter("dfs.metadata.ops"),
          reg.GetCounter("dfs.metadata.txn_retries"),
          reg.GetCounter("dfs.metadata.txn_deadline_exceeded"),
          reg.GetCounter("dfs.metadata.txn_cancelled"),
          reg.GetCounter("dfs.files_created"),
          reg.GetCounter("dfs.small_files_inline"),
          reg.GetHistogram("dfs.metadata.op_latency_us"),
      };
    }();
    return m;
  }
};

// Per-operation instrumentation: one relaxed increment for the op class,
// one for the total throughput counter, and a trace request that observes
// the op's latency. Each metadata op is an entry point — when no request
// is active it starts its own trace, so HopsFS ops called from inside a
// traced request (e.g. ingestion) nest under it, while standalone ops
// still get a trace_id of their own. `op_counter` is the call site's
// cached per-op counter.
class MetadataOpScope {
 public:
  MetadataOpScope(const char* span_name, common::Counter* op_counter)
      : span_(span_name, DfsMetrics::Get().op_latency_us) {
    DfsMetrics::Get().ops->Increment();
    op_counter->Increment();
  }

 private:
  common::TraceRequest span_;
};

common::Counter* OpCounter(const char* name) {
  return common::MetricsRegistry::Default().GetCounter(name);
}

// Runs `fn` in a transaction with bounded retry on conflicts. Backoff is
// capped exponential with deterministic seeded jitter, which avoids both
// retry starvation and lock-step re-collision under heavy contention.
// Only Aborted (the conflict status) is retried; any other error — from
// `fn`, the commit, or the `dfs.txn.commit` injection point — surfaces
// immediately.
template <typename Fn>
Status RunTxn(HopsFsCluster* cluster, Fn&& fn) {
  const HopsFsCluster::Options& opt = cluster->options();
  const common::RetryPolicy policy{
      .max_attempts = opt.max_txn_retries,
      .initial_backoff_us = opt.retry_initial_backoff_us,
      .backoff_multiplier = opt.retry_backoff_multiplier,
      .max_backoff_us = opt.retry_max_backoff_us,
      .jitter = opt.retry_jitter};
  const common::RequestContext rctx = common::CurrentRequestContext();
  Status last;
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    // Cooperative stop between attempts: a cancelled or out-of-deadline
    // request must not keep burning conflict retries.
    {
      Status request = rctx.Check("dfs.txn");
      if (!request.ok()) {
        if (request.IsCancelled()) {
          DfsMetrics::Get().txn_cancelled->Increment();
        } else {
          DfsMetrics::Get().txn_deadline_exceeded->Increment();
        }
        return request;
      }
    }
    auto txn = cluster->store().Begin();
    Status s = fn(txn.get());
    // The commit boundary is the injection point: a programmed fault here
    // models the metadata store rejecting the transaction (e.g. an NDB
    // node failing over mid-commit). Inject Aborted to exercise the retry
    // path, anything else to exercise hard failure.
    if (s.ok()) s = common::fault::MaybeFail("dfs.txn.commit");
    if (s.ok()) {
      s = txn->Commit();
      if (s.ok()) return s;
    } else {
      txn->Abort();
    }
    if (!s.IsAborted()) return s;
    last = s;
    if (attempt < policy.max_attempts) {
      cluster->CountRetry();
      DfsMetrics::Get().txn_retries->Increment();
      uint64_t backoff_us = common::BackoffUs(policy, attempt, opt.retry_seed);
      if (!rctx.deadline.is_infinite()) {
        const int64_t remaining = rctx.deadline.remaining_us();
        if (remaining <= 0) {
          DfsMetrics::Get().txn_deadline_exceeded->Increment();
          return Status::DeadlineExceeded(
              "dfs.txn: request deadline exceeded during conflict retries");
        }
        // Never sleep past the request deadline.
        backoff_us = std::min(backoff_us, static_cast<uint64_t>(remaining));
      }
      if (backoff_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      }
    }
  }
  return last.ok() ? Status::Aborted("transaction retries exhausted") : last;
}

}  // namespace

Result<std::vector<std::string>> SplitPath(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("path must be absolute: " + path);
  }
  std::vector<std::string> components;
  for (const std::string& part : common::Split(path.substr(1), '/')) {
    if (part.empty()) {
      if (path == "/") break;  // root
      return Status::InvalidArgument("empty path component in " + path);
    }
    components.push_back(part);
  }
  return components;
}

HopsFsCluster::HopsFsCluster(const Options& options)
    : options_(options),
      owned_store_(std::make_unique<kv::KvStore>(options.kv_partitions)),
      owned_adapter_(std::make_unique<kv::KvMetaStore>(owned_store_.get())) {
  meta_ = owned_adapter_.get();
  // Root inode (id 1) under the virtual parent 0.
  EEA_CHECK_OK(meta_->Put(InodeKey(0, ""), EncodeInode(InodeRow{
                                               .id = 1,
                                               .is_directory = true,
                                           })));
  InitIdAllocator(1);
}

HopsFsCluster::HopsFsCluster(const Options& options, kv::MetaStore* store,
                             int id_shards)
    : options_(options), meta_(store) {
  EEA_CHECK(id_shards >= 1) << "id_shards must be >= 1";
  // The store may arrive freshly created or recovered from its replicas'
  // checkpoint images and WALs: create the root only on a fresh namespace
  // (rewriting it would log a redundant commit).
  if (!meta_->Get(InodeKey(0, "")).ok()) {
    EEA_CHECK_OK(meta_->Put(InodeKey(0, ""), EncodeInode(InodeRow{
                                                 .id = 1,
                                                 .is_directory = true,
                                             })));
  }
  InitIdAllocator(id_shards);
}

void HopsFsCluster::InitIdAllocator(int id_shards) {
  shard_next_id_.clear();
  shard_next_id_.reserve(static_cast<size_t>(id_shards));
  for (int s = 0; s < id_shards; ++s) {
    shard_next_id_.push_back(
        std::make_unique<std::atomic<int64_t>>(IdShardBase(s)));
  }
  // Resume each shard's counter past the highest id already allocated in
  // its range, so restarted (or recovered) clusters never re-issue an id.
  for (const auto& [key, value] : meta_->ScanPrefix("i|")) {
    Result<InodeRow> row = DecodeInode(value);
    if (!row.ok() || row.value().id < 2) continue;
    const int64_t id = row.value().id;
    const int64_t shard = (id - 2) / kIdShardRange;
    if (shard < 0 || shard >= id_shards) continue;
    auto& next = *shard_next_id_[static_cast<size_t>(shard)];
    if (id >= next.load(std::memory_order_relaxed)) {
      next.store(id + 1, std::memory_order_relaxed);
    }
  }
}

Result<int64_t> HopsFsNameNode::ResolveParent(kv::MetaTransaction* txn,
                                              const std::string& path,
                                              std::string* leaf) {
  EEA_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return Status::InvalidArgument("operation on root: " + path);
  }
  *leaf = parts.back();
  int64_t current = 1;  // root
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    // Ancestor directories are resolved read-committed (no row locks):
    // operations only lock the rows they mutate, HopsFS-style. A directory
    // removed concurrently is caught by the leaf's own existence check.
    EEA_ASSIGN_OR_RETURN(std::string value,
                         txn->GetCommitted(InodeKey(current, parts[i])));
    EEA_ASSIGN_OR_RETURN(InodeRow row, DecodeInode(value));
    if (!row.is_directory) {
      return Status::FailedPrecondition(parts[i] + " is not a directory");
    }
    current = row.id;
  }
  return current;
}

Status HopsFsNameNode::Mkdir(const std::string& path) {
  static common::Counter* ops = OpCounter("dfs.ops.mkdir");
  MetadataOpScope scope("dfs.Mkdir", ops);
  return RunTxn(cluster_, [&](kv::MetaTransaction* txn) -> Status {
    std::string leaf;
    EEA_ASSIGN_OR_RETURN(int64_t parent, ResolveParent(txn, path, &leaf));
    const std::string key = InodeKey(parent, leaf);
    EEA_ASSIGN_OR_RETURN(bool exists, txn->Exists(key));
    if (exists) return Status::AlreadyExists(path);
    InodeRow row;
    row.id = cluster_->AllocateInodeId();
    row.is_directory = true;
    return txn->Put(key, EncodeInode(row));
  });
}

Status HopsFsNameNode::Create(const std::string& path, uint64_t size_bytes,
                              const std::string& data) {
  if (!data.empty() && data.size() != size_bytes) {
    return Status::InvalidArgument("data size mismatch");
  }
  const auto& opt = cluster_->options();
  static common::Counter* ops = OpCounter("dfs.ops.create");
  MetadataOpScope scope("dfs.Create", ops);
  return RunTxn(cluster_, [&](kv::MetaTransaction* txn) -> Status {
    std::string leaf;
    EEA_ASSIGN_OR_RETURN(int64_t parent, ResolveParent(txn, path, &leaf));
    const std::string key = InodeKey(parent, leaf);
    EEA_ASSIGN_OR_RETURN(bool exists, txn->Exists(key));
    if (exists) return Status::AlreadyExists(path);
    InodeRow row;
    row.id = cluster_->AllocateInodeId();
    row.size = size_bytes;
    row.inline_data = size_bytes <= opt.inline_threshold_bytes;
    DfsMetrics::Get().files_created->Increment();
    if (row.inline_data) {
      DfsMetrics::Get().small_files_inline->Increment();
      row.blocks = 0;
      row.inline_content = data;
    } else {
      row.blocks = static_cast<int>(
          (size_bytes + opt.block_size_bytes - 1) / opt.block_size_bytes);
      for (int i = 0; i < row.blocks; ++i) {
        std::string chunk;
        if (!data.empty()) {
          const size_t begin = static_cast<size_t>(i) * opt.block_size_bytes;
          const size_t len = std::min<size_t>(opt.block_size_bytes,
                                              data.size() - begin);
          chunk = data.substr(begin, len);
        }
        EEA_RETURN_NOT_OK(txn->Put(BlockKey(row.id, i), chunk));
      }
    }
    return txn->Put(key, EncodeInode(row));
  });
}

Result<FileInfo> HopsFsNameNode::GetFileInfo(const std::string& path) {
  static common::Counter* ops = OpCounter("dfs.ops.stat");
  MetadataOpScope scope("dfs.GetFileInfo", ops);
  FileInfo info;
  Status s = RunTxn(cluster_, [&](kv::MetaTransaction* txn) -> Status {
    EEA_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
    if (parts.empty()) {
      info = FileInfo{.inode_id = 1, .is_directory = true};
      return Status::OK();
    }
    std::string leaf;
    EEA_ASSIGN_OR_RETURN(int64_t parent, ResolveParent(txn, path, &leaf));
    EEA_ASSIGN_OR_RETURN(std::string value,
                         txn->GetCommitted(InodeKey(parent, leaf)));
    EEA_ASSIGN_OR_RETURN(InodeRow row, DecodeInode(value));
    info = FileInfo{.inode_id = row.id,
                    .is_directory = row.is_directory,
                    .size_bytes = row.size,
                    .num_blocks = row.blocks,
                    .inline_data = row.inline_data};
    return Status::OK();
  });
  if (!s.ok()) return s;
  return info;
}

Result<std::vector<std::string>> HopsFsNameNode::List(const std::string& path) {
  static common::Counter* ops = OpCounter("dfs.ops.list");
  MetadataOpScope scope("dfs.List", ops);
  EEA_ASSIGN_OR_RETURN(FileInfo info, GetFileInfo(path));
  if (!info.is_directory) {
    return Status::FailedPrecondition(path + " is not a directory");
  }
  const std::string prefix = ChildPrefix(info.inode_id);
  std::vector<std::string> names;
  for (auto& [key, value] : cluster_->store().ScanPrefix(prefix)) {
    names.push_back(key.substr(prefix.size()));
  }
  return names;
}

Status HopsFsNameNode::Remove(const std::string& path) {
  static common::Counter* ops = OpCounter("dfs.ops.remove");
  MetadataOpScope scope("dfs.Remove", ops);
  return RunTxn(cluster_, [&](kv::MetaTransaction* txn) -> Status {
    std::string leaf;
    EEA_ASSIGN_OR_RETURN(int64_t parent, ResolveParent(txn, path, &leaf));
    const std::string key = InodeKey(parent, leaf);
    EEA_ASSIGN_OR_RETURN(std::string value, txn->Get(key));
    EEA_ASSIGN_OR_RETURN(InodeRow row, DecodeInode(value));
    if (row.is_directory) {
      // Only empty directories are removable (matches HDFS non-recursive).
      auto children = cluster_->store().ScanPrefix(ChildPrefix(row.id), 1);
      if (!children.empty()) {
        return Status::FailedPrecondition(path + " is not empty");
      }
    } else if (!row.inline_data) {
      for (int i = 0; i < row.blocks; ++i) {
        EEA_RETURN_NOT_OK(txn->Delete(BlockKey(row.id, i)));
      }
    }
    return txn->Delete(key);
  });
}

Result<std::string> HopsFsNameNode::ReadFile(const std::string& path) {
  static common::Counter* ops = OpCounter("dfs.ops.read");
  MetadataOpScope scope("dfs.ReadFile", ops);
  std::string out;
  Status s = RunTxn(cluster_, [&](kv::MetaTransaction* txn) -> Status {
    std::string leaf;
    EEA_ASSIGN_OR_RETURN(int64_t parent, ResolveParent(txn, path, &leaf));
    EEA_ASSIGN_OR_RETURN(std::string value,
                         txn->GetCommitted(InodeKey(parent, leaf)));
    EEA_ASSIGN_OR_RETURN(InodeRow row, DecodeInode(value));
    if (row.is_directory) {
      return Status::FailedPrecondition(path + " is a directory");
    }
    out.clear();
    if (row.inline_data) {
      out = row.inline_content;
      return Status::OK();
    }
    // Block path: one lookup per block (each a simulated datanode fetch).
    for (int i = 0; i < row.blocks; ++i) {
      EEA_ASSIGN_OR_RETURN(std::string chunk,
                           txn->GetCommitted(BlockKey(row.id, i)));
      out += chunk;
    }
    return Status::OK();
  });
  if (!s.ok()) return s;
  return out;
}


Status HopsFsNameNode::Rename(const std::string& from, const std::string& to) {
  static common::Counter* ops = OpCounter("dfs.ops.rename");
  MetadataOpScope scope("dfs.Rename", ops);
  return RunTxn(cluster_, [&](kv::MetaTransaction* txn) -> Status {
    std::string from_leaf;
    EEA_ASSIGN_OR_RETURN(int64_t from_parent,
                         ResolveParent(txn, from, &from_leaf));
    std::string to_leaf;
    EEA_ASSIGN_OR_RETURN(int64_t to_parent, ResolveParent(txn, to, &to_leaf));
    const std::string from_key = InodeKey(from_parent, from_leaf);
    const std::string to_key = InodeKey(to_parent, to_leaf);
    EEA_ASSIGN_OR_RETURN(std::string value, txn->Get(from_key));
    EEA_ASSIGN_OR_RETURN(bool exists, txn->Exists(to_key));
    if (exists) return Status::AlreadyExists(to);
    // Disallow moving a directory under itself: walk `to`'s ancestors.
    EEA_ASSIGN_OR_RETURN(InodeRow row, DecodeInode(value));
    if (row.is_directory && common::StartsWith(to, from + "/")) {
      return Status::InvalidArgument("cannot move a directory into itself");
    }
    EEA_RETURN_NOT_OK(txn->Delete(from_key));
    // Children stay keyed by row.id: the subtree moves for free.
    return txn->Put(to_key, value);
  });
}

namespace {

// Collects every inode row under directory `dir_id` (depth-first) into
// `keys`, and the file rows' block keys into `block_keys`. Uses committed
// reads; the caller deletes under row locks afterwards.
void CollectSubtree(kv::MetaStore* store, int64_t dir_id,
                    std::vector<std::string>* keys,
                    std::vector<std::string>* block_keys,
                    uint64_t* total_bytes) {
  for (auto& [key, value] : store->ScanPrefix(ChildPrefix(dir_id))) {
    auto row = DecodeInode(value);
    if (!row.ok()) continue;
    keys->push_back(key);
    if (row->is_directory) {
      CollectSubtree(store, row->id, keys, block_keys, total_bytes);
    } else {
      *total_bytes += row->size;
      for (int i = 0; i < row->blocks; ++i) {
        block_keys->push_back(BlockKey(row->id, i));
      }
    }
  }
}

}  // namespace

Status HopsFsNameNode::RemoveRecursive(const std::string& path) {
  static common::Counter* ops = OpCounter("dfs.ops.remove_recursive");
  MetadataOpScope scope("dfs.RemoveRecursive", ops);
  // Resolve the root of the subtree first (one transaction), then delete
  // the collected rows (a second transaction). Between the two, concurrent
  // creates under the subtree can be lost-and-recreated, matching the
  // relaxed semantics of HDFS recursive deletes.
  FileInfo info;
  {
    auto r = GetFileInfo(path);
    if (!r.ok()) return r.status();
    info = *r;
  }
  if (!info.is_directory) return Remove(path);
  std::vector<std::string> keys;
  std::vector<std::string> block_keys;
  uint64_t bytes = 0;
  CollectSubtree(&cluster_->store(), info.inode_id, &keys, &block_keys,
                 &bytes);
  return RunTxn(cluster_, [&](kv::MetaTransaction* txn) -> Status {
    for (const std::string& key : block_keys) {
      EEA_RETURN_NOT_OK(txn->Delete(key));
    }
    for (const std::string& key : keys) {
      EEA_RETURN_NOT_OK(txn->Delete(key));
    }
    // Finally unlink the subtree root itself.
    std::string leaf;
    EEA_ASSIGN_OR_RETURN(int64_t parent, ResolveParent(txn, path, &leaf));
    return txn->Delete(InodeKey(parent, leaf));
  });
}

common::Result<uint64_t> HopsFsNameNode::DiskUsage(const std::string& path) {
  static common::Counter* ops = OpCounter("dfs.ops.disk_usage");
  MetadataOpScope scope("dfs.DiskUsage", ops);
  EEA_ASSIGN_OR_RETURN(FileInfo info, GetFileInfo(path));
  if (!info.is_directory) return info.size_bytes;
  std::vector<std::string> keys;
  std::vector<std::string> block_keys;
  uint64_t bytes = 0;
  CollectSubtree(&cluster_->store(), info.inode_id, &keys, &block_keys,
                 &bytes);
  return bytes;
}

}  // namespace exearth::dfs
