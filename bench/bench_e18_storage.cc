// E18 — durable paged storage (ROADMAP item 1): the cost of surviving a
// restart. Three rows:
//
//   * cold-vs-warm indexed selection: the frozen R-tree is opened from a
//     DiskStorageManager-backed buffer pool (--page_cache_mb sizes it)
//     and queried; cold drops the pool first (every page is a storage
//     read), warm reuses it (pool hits). The gap is the page cache's
//     contribution.
//   * recovery time: the durable KV store (a zero-follower
//     repl::ReplicatedKvStore) is populated, a crash is injected
//     mid-commit at the storage.wal.fsync fault point, and the row
//     measures reopening the store — superblock + checkpoint load + WAL
//     replay — until the namespace is queryable again.
//   * result hash: deterministic fingerprint across the whole layer
//     (in-memory vs on-disk index results must match, recovered KV rows
//     hashed in), exported as gauge bench.e18.result_hash for the CI
//     determinism gate (two runs at the same seed must produce the same
//     gauge).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "repl/replicated_store.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"
#include "strabon/geostore.h"
#include "strabon/workload.h"

namespace {

using exearth::common::Rng;
using exearth::common::StrFormat;
using exearth::storage::BufferPool;
using exearth::storage::DiskStorageManager;
using exearth::storage::PageId;
using exearth::strabon::GeoStore;
using exearth::strabon::GeoWorkloadOptions;
using exearth::strabon::RandomSelectionBox;
using exearth::strabon::SpatialRelation;

// Scratch directory for one benchmark row's files, recursively removed
// on destruction.
struct TempStorageDir {
  explicit TempStorageDir(const char* tag) {
    char tmpl[] = "/tmp/eea_e18_XXXXXX";
    char* dir = ::mkdtemp(tmpl);
    EEA_CHECK(dir != nullptr) << "mkdtemp failed for " << tag;
    path = dir;
  }
  ~TempStorageDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string Pages() const { return path + "/pages"; }
  std::string path;
};

// The durable KV store over `dir`: one shard, zero followers.
std::unique_ptr<exearth::repl::ReplicatedKvStore> OpenKv(
    const TempStorageDir& dir) {
  exearth::repl::ReplOptions opt;
  opt.followers_per_shard = 0;
  opt.write_quorum = 0;
  opt.kv_partitions = 8;
  opt.data_dir = dir.path;
  auto store = exearth::repl::ReplicatedKvStore::Open(opt);
  EEA_CHECK_OK(store.status());
  return std::move(store).value();
}

// --page_cache_mb (default 4 MiB) as a frame count.
size_t PoolCapacityPages() {
  const uint64_t mb = exearth::bench::PageCacheMbFlag();
  return static_cast<size_t>((mb == 0 ? 4 : mb) * 1024 * 1024 /
                             exearth::storage::kPageSize);
}

GeoStore& CachedPointStore(int64_t num_features) {
  static std::map<int64_t, std::unique_ptr<GeoStore>>* cache =
      new std::map<int64_t, std::unique_ptr<GeoStore>>();
  auto it = cache->find(num_features);
  if (it == cache->end()) {
    GeoWorkloadOptions opt;
    opt.num_features = num_features;
    opt.kind = GeoWorkloadOptions::GeometryKind::kPoint;
    opt.with_thematic = false;
    opt.seed = 11;
    it = cache
             ->emplace(num_features, std::make_unique<GeoStore>(
                                         exearth::strabon::MakeGeoWorkload(opt)))
             .first;
  }
  return *it->second;
}

// Cold vs warm open-and-query of the on-disk frozen index. The measured
// unit is LoadFrozenIndex (page-chain read through the buffer pool) plus
// a fixed batch of 8 seeded selections; `cold` drops the pool between
// iterations so every page fault goes to storage.
void BM_E18IndexedSelect(benchmark::State& state) {
  const int64_t num_features = state.range(0);
  const bool cold = state.range(1) != 0;
  GeoStore& store = CachedPointStore(num_features);
  TempStorageDir dir("select");
  auto storage_r = DiskStorageManager::Open(dir.Pages());
  EEA_CHECK_OK(storage_r.status());
  std::unique_ptr<DiskStorageManager> storage = std::move(storage_r).value();
  BufferPool pool(storage.get(), PoolCapacityPages());
  PageId head = exearth::storage::kInvalidPageId;
  EEA_CHECK_OK(store.FreezeIndexTo(&pool, &head));
  EEA_CHECK_OK(pool.FlushAll());
  EEA_CHECK_OK(storage->Sync());
  EEA_CHECK_OK(pool.DropAll());
  // Pre-warm the pool for the warm row so even a single iteration
  // measures cache hits, not the first-touch faults.
  if (!cold) EEA_CHECK_OK(store.LoadFrozenIndex(&pool, head));

  uint64_t results = 0;
  uint64_t queries = 0;
  for (auto _ : state) {
    if (cold) EEA_CHECK_OK(pool.DropAll());
    EEA_CHECK_OK(store.LoadFrozenIndex(&pool, head));
    Rng rng(99);
    for (int q = 0; q < 8; ++q) {
      auto box = RandomSelectionBox(100000.0, 0.001, &rng);
      auto hits = *store.SpatialSelect(box, SpatialRelation::kIntersects,
                                       /*use_index=*/true);
      benchmark::DoNotOptimize(hits);
      results += hits.size();
      ++queries;
    }
  }
  const auto stats = pool.stats();
  state.counters["features"] = static_cast<double>(num_features);
  state.counters["index_pages"] = static_cast<double>(storage->page_count());
  state.counters["pool_pages"] = static_cast<double>(pool.capacity());
  state.counters["pool_hits"] = static_cast<double>(stats.hits);
  state.counters["pool_misses"] = static_cast<double>(stats.misses);
  state.counters["pool_evictions"] = static_cast<double>(stats.evictions);
  state.counters["mean_results"] =
      static_cast<double>(results) / static_cast<double>(queries);
}

// Writes `txns` single-row transactions into a durable store, then
// injects a crash (storage.wal.fsync) into one extra commit.
void PopulateAndCrash(const TempStorageDir& dir, int txns) {
  auto store = OpenKv(dir);
  for (int i = 0; i < txns; ++i) {
    EEA_CHECK_OK(store->Put(StrFormat("row%06d", i),
                            StrFormat("value-%d-%d", i, i * 7)));
    // Checkpoint halfway so recovery exercises both the checkpoint-image
    // load and the WAL replay of the second half.
    if (i == txns / 2) EEA_CHECK_OK(store->Checkpoint());
  }
  auto& injector = exearth::common::FaultInjector::Default();
  injector.Reset();
  exearth::common::FaultRule rule;
  rule.fail_calls = {1};
  rule.code = exearth::common::StatusCode::kUnavailable;
  injector.Program("storage.wal.fsync", rule);
  // This commit's fsync is killed: unacknowledged, must not survive.
  EEA_CHECK(!store->Put("crashed-row", "must-not-survive").ok());
  injector.Reset();
}

void BM_E18Recovery(benchmark::State& state) {
  const int txns = static_cast<int>(state.range(0));
  TempStorageDir dir("recovery");
  PopulateAndCrash(dir, txns);
  uint64_t recovered_txns = 0;
  uint64_t recovered_rows = 0;
  size_t keys = 0;
  for (auto _ : state) {
    // Measured: full reopen — superblock validation, checkpoint-image
    // load, WAL torn-tail scan and replay to the last committed txn.
    auto store = OpenKv(dir);
    benchmark::DoNotOptimize(store->Size());
    const auto replica = store->StatusSnapshot()[0].replicas[0];
    recovered_txns = replica.recovered_txns;
    recovered_rows = replica.recovered_rows;
    keys = store->Size();
    EEA_CHECK(keys == static_cast<size_t>(txns))
        << "expected " << txns << " recovered rows, got " << keys;
  }
  state.counters["txns"] = static_cast<double>(txns);
  state.counters["recovered_txns"] = static_cast<double>(recovered_txns);
  state.counters["recovered_rows"] = static_cast<double>(recovered_rows);
  state.counters["recovered_keys"] = static_cast<double>(keys);
}

// Deterministic fingerprint across the storage layer, one fixed
// iteration: (a) 16 seeded selections on the in-memory index, (b) the
// same selections after a FreezeTo/OpenFrozen round trip through a pool
// smaller than the index (forced eviction) — must match (a) exactly —
// and (c) the full recovered KV contents after a crash-interrupted
// commit. Exported as gauge bench.e18.result_hash; CI runs the binary
// twice and asserts the gauges agree.
void BM_E18ResultHash(benchmark::State& state) {
  uint64_t hash = 0;
  for (auto _ : state) {
    hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](uint64_t v) {
      hash ^= v;
      hash *= 0x100000001b3ULL;
    };

    GeoStore& store = CachedPointStore(20000);
    std::vector<std::vector<uint64_t>> memory_results;
    {
      Rng rng(1234);
      for (int q = 0; q < 16; ++q) {
        auto box = RandomSelectionBox(100000.0, 0.005, &rng);
        memory_results.push_back(*store.SpatialSelect(
            box, SpatialRelation::kIntersects, /*use_index=*/true));
      }
    }
    TempStorageDir dir("hash");
    auto storage = std::move(DiskStorageManager::Open(dir.Pages()).value());
    // 64 pages — far smaller than the index, so the round trip evicts.
    BufferPool pool(storage.get(), 64);
    PageId head = exearth::storage::kInvalidPageId;
    EEA_CHECK_OK(store.FreezeIndexTo(&pool, &head));
    EEA_CHECK_OK(pool.DropAll());
    EEA_CHECK_OK(store.LoadFrozenIndex(&pool, head));
    {
      Rng rng(1234);
      for (int q = 0; q < 16; ++q) {
        auto box = RandomSelectionBox(100000.0, 0.005, &rng);
        auto hits = *store.SpatialSelect(box, SpatialRelation::kIntersects,
                                         /*use_index=*/true);
        EEA_CHECK(hits == memory_results[static_cast<size_t>(q)])
            << "disk-backed index diverged from memory at query " << q;
        for (uint64_t id : hits) mix(id);
      }
    }

    TempStorageDir kv_dir("hash_kv");
    PopulateAndCrash(kv_dir, 200);
    for (const auto& [key, value] : OpenKv(kv_dir)->ScanPrefix("")) {
      mix(exearth::common::Fnv1a(key));
      mix(exearth::common::Fnv1a(value));
    }
    benchmark::DoNotOptimize(hash);
  }
  // Mask to 32 bits: gauges are doubles (52-bit exact mantissa).
  exearth::common::MetricsRegistry::Default()
      .GetGauge("bench.e18.result_hash")
      ->Set(static_cast<double>(hash & 0xffffffffULL));
}

}  // namespace

BENCHMARK(BM_E18ResultHash)->Iterations(1);

BENCHMARK(BM_E18IndexedSelect)
    ->ArgNames({"features", "cold"})
    ->Args({50000, 1})
    ->Args({50000, 0})
    ->Args({200000, 1})
    ->Args({200000, 0})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_E18Recovery)
    ->ArgNames({"txns"})
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// main() comes from bench_main.cc (adds --smoke, --page_cache_mb and the
// metrics-snapshot JSON dump).
