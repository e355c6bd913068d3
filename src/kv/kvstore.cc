#include "kv/kvstore.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace exearth::kv {

using common::Result;
using common::Status;

// --- Transaction -----------------------------------------------------------

Transaction::~Transaction() {
  if (!finished_) Abort();
}

int Transaction::PartitionsTouched() const {
  std::unordered_set<int> parts;
  for (const std::string& key : locked_) {
    parts.insert(store_->PartitionOf(key));
  }
  return static_cast<int>(parts.size());
}

Status Transaction::LockRow(const std::string& key) {
  if (locked_.count(key)) return Status::OK();
  KvStore::Partition& part = store_->PartitionFor(key);
  std::lock_guard<std::mutex> guard(part.mu);
  auto [it, inserted] = part.locks.try_emplace(key, id_);
  if (!inserted && it->second != id_) {
    return Status::Aborted(
        common::StrFormat("row lock conflict on '%s'", key.c_str()));
  }
  locked_.insert(key);
  return Status::OK();
}

Result<std::string> Transaction::Get(const std::string& key) {
  EEA_CHECK(!finished_) << "Get on finished transaction";
  store_->gets_.fetch_add(1, std::memory_order_relaxed);
  Status lock = LockRow(key);
  if (!lock.ok()) {
    store_->aborts_.fetch_add(1, std::memory_order_relaxed);
    return lock;
  }
  auto w = writes_.find(key);
  if (w != writes_.end()) {
    if (!w->second.has_value()) return Status::NotFound(key);
    return *w->second;
  }
  KvStore::Partition& part = store_->PartitionFor(key);
  std::lock_guard<std::mutex> guard(part.mu);
  auto it = part.rows.find(key);
  if (it == part.rows.end()) return Status::NotFound(key);
  return it->second;
}

Result<std::string> Transaction::GetCommitted(const std::string& key) {
  EEA_CHECK(!finished_) << "GetCommitted on finished transaction";
  store_->gets_.fetch_add(1, std::memory_order_relaxed);
  auto w = writes_.find(key);
  if (w != writes_.end()) {
    if (!w->second.has_value()) return Status::NotFound(key);
    return *w->second;
  }
  KvStore::Partition& part = store_->PartitionFor(key);
  std::lock_guard<std::mutex> guard(part.mu);
  auto it = part.rows.find(key);
  if (it == part.rows.end()) return Status::NotFound(key);
  return it->second;
}

Result<bool> Transaction::Exists(const std::string& key) {
  Result<std::string> r = Get(key);
  if (r.ok()) return true;
  if (r.status().IsNotFound()) return false;
  return r.status();
}

Status Transaction::Put(const std::string& key, std::string value) {
  EEA_CHECK(!finished_) << "Put on finished transaction";
  store_->puts_.fetch_add(1, std::memory_order_relaxed);
  Status lock = LockRow(key);
  if (!lock.ok()) {
    store_->aborts_.fetch_add(1, std::memory_order_relaxed);
    return lock;
  }
  writes_[key] = std::move(value);
  return Status::OK();
}

Status Transaction::Delete(const std::string& key) {
  EEA_CHECK(!finished_) << "Delete on finished transaction";
  Status lock = LockRow(key);
  if (!lock.ok()) {
    store_->aborts_.fetch_add(1, std::memory_order_relaxed);
    return lock;
  }
  writes_[key] = std::nullopt;
  return Status::OK();
}

Status Transaction::Commit() {
  EEA_CHECK(!finished_) << "Commit on finished transaction";
  const int partitions = PartitionsTouched();
  // Apply writes partition by partition. Because every written row is
  // exclusively locked by this transaction, applying without a global lock
  // is atomic with respect to other transactions (they cannot observe or
  // touch these rows until the locks are released below).
  for (const auto& [key, value] : writes_) store_->ApplyCommitted(key, value);
  // Release locks.
  for (const std::string& key : locked_) {
    KvStore::Partition& part = store_->PartitionFor(key);
    std::lock_guard<std::mutex> guard(part.mu);
    auto it = part.locks.find(key);
    if (it != part.locks.end() && it->second == id_) part.locks.erase(it);
  }
  finished_ = true;
  store_->commits_.fetch_add(1, std::memory_order_relaxed);
  if (partitions <= 1) {
    store_->single_partition_commits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    store_->multi_partition_commits_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void Transaction::Abort() {
  if (finished_) return;
  for (const std::string& key : locked_) {
    KvStore::Partition& part = store_->PartitionFor(key);
    std::lock_guard<std::mutex> guard(part.mu);
    auto it = part.locks.find(key);
    if (it != part.locks.end() && it->second == id_) part.locks.erase(it);
  }
  writes_.clear();
  locked_.clear();
  finished_ = true;
}

// --- KvStore -----------------------------------------------------------------

KvStore::KvStore(int num_partitions) {
  EEA_CHECK(num_partitions >= 1);
  partitions_.reserve(static_cast<size_t>(num_partitions));
  for (int i = 0; i < num_partitions; ++i) {
    partitions_.push_back(std::make_unique<Partition>());
  }
}

int KvStore::PartitionOf(const std::string& key) const {
  return static_cast<int>(common::Fnv1a(key) % partitions_.size());
}

std::unique_ptr<Transaction> KvStore::Begin() {
  uint64_t id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Transaction>(new Transaction(this, id));
}

Status KvStore::Put(const std::string& key, std::string value) {
  auto txn = Begin();
  EEA_RETURN_NOT_OK(txn->Put(key, std::move(value)));
  return txn->Commit();
}

Result<std::string> KvStore::Get(const std::string& key) {
  auto txn = Begin();
  Result<std::string> r = txn->Get(key);
  if (r.ok()) {
    Status s = txn->Commit();
    if (!s.ok()) return s;
  }
  return r;
}

Status KvStore::Delete(const std::string& key) {
  auto txn = Begin();
  EEA_RETURN_NOT_OK(txn->Delete(key));
  return txn->Commit();
}

std::vector<std::pair<std::string, std::string>> KvStore::ScanPrefix(
    const std::string& prefix, size_t limit) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& part : partitions_) {
    std::lock_guard<std::mutex> guard(part->mu);
    auto it = part->rows.lower_bound(prefix);
    for (; it != part->rows.end(); ++it) {
      if (!common::StartsWith(it->first, prefix)) break;
      out.push_back(*it);
    }
  }
  std::sort(out.begin(), out.end());
  if (limit > 0 && out.size() > limit) out.resize(limit);
  return out;
}

void KvStore::ApplyCommitted(const std::string& key,
                             std::optional<std::string> value) {
  Partition& part = PartitionFor(key);
  std::lock_guard<std::mutex> guard(part.mu);
  if (value.has_value()) {
    part.rows[key] = std::move(*value);
  } else {
    part.rows.erase(key);
  }
}

size_t KvStore::Size() const {
  size_t n = 0;
  for (const auto& part : partitions_) {
    std::lock_guard<std::mutex> guard(part->mu);
    n += part->rows.size();
  }
  return n;
}

StoreStats KvStore::stats() const {
  StoreStats s;
  s.commits = commits_.load(std::memory_order_relaxed);
  s.aborts = aborts_.load(std::memory_order_relaxed);
  s.single_partition_commits =
      single_partition_commits_.load(std::memory_order_relaxed);
  s.multi_partition_commits =
      multi_partition_commits_.load(std::memory_order_relaxed);
  s.gets = gets_.load(std::memory_order_relaxed);
  s.puts = puts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace exearth::kv
