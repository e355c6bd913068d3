// E19 — sharded, replicated metadata (ROADMAP item 3): what replication
// buys and what it costs. Three rows:
//
//   * shard scaling: HopsFS Create throughput against a durable
//     repl::ReplicatedKvStore at 1/2/4/8 shards, eight namenode threads —
//     the paper's ops/s-vs-namenodes curve, with per-shard commit
//     serialization standing in for the NDB datanode groups. items/s is
//     acknowledged creates per second (each durable on a write quorum).
//   * single-store baseline: the same workload on the single durable
//     store, a shard with zero followers (one WAL, no shipping, no
//     quorum) — the single-namenode bar the scaling rows are read
//     against.
//   * failover drill: a seeded repl.leader.crash kills a leader
//     mid-commit; the row measures the blackout window (the refused
//     commit + election until the next acked commit lands) and then
//     verifies the no-lost-acked-writes laws across a restart. The
//     recovered contents, the acked/refused partition, the election
//     terms, and every repl.* counter fold into gauge
//     bench.e19.result_hash; CI runs the drill twice at --seed=42 and
//     diffs the gauges byte-for-byte. bench.e19.blackout_us is exported
//     separately (wall-clock, deliberately outside the hash).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_flags.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "dfs/hopsfs.h"
#include "repl/replicated_store.h"

namespace {

using exearth::common::FaultInjector;
using exearth::common::FaultRule;
using exearth::common::Fnv1a;
using exearth::common::StrFormat;
using exearth::repl::ReplicatedKvStore;
using exearth::repl::ReplOptions;

// Scratch directory for one row's per-replica files, recursively removed
// on destruction.
struct TempReplDir {
  TempReplDir() {
    char tmpl[] = "/tmp/eea_e19_XXXXXX";
    char* dir = ::mkdtemp(tmpl);
    EEA_CHECK(dir != nullptr) << "mkdtemp failed";
    path = dir;
  }
  ~TempReplDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

constexpr int kWriterThreads = 8;
constexpr int kCreatesPerThread = 32;

// One timed iteration: `kWriterThreads` namenodes each create
// `kCreatesPerThread` files under root. `batch` keeps names unique
// across iterations so every create is a fresh commit, never an
// AlreadyExists no-op.
void RunCreateBatch(exearth::dfs::HopsFsCluster* cluster, uint64_t batch) {
  std::vector<std::thread> workers;
  workers.reserve(kWriterThreads);
  for (int t = 0; t < kWriterThreads; ++t) {
    workers.emplace_back([cluster, batch, t]() {
      exearth::dfs::HopsFsNameNode nn(cluster);
      for (int i = 0; i < kCreatesPerThread; ++i) {
        const exearth::common::Status made = nn.Create(
            StrFormat("/b%llu-t%d-f%04d",
                      static_cast<unsigned long long>(batch), t, i),
            8, "payload8");
        EEA_CHECK_OK(made);
      }
    });
  }
  for (std::thread& w : workers) w.join();
}

void BM_E19ShardScaling(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  TempReplDir dir;
  ReplOptions opt;
  opt.num_shards = shards;
  opt.followers_per_shard = 2;
  opt.write_quorum = 1;
  opt.data_dir = dir.path;
  opt.election_seed = exearth::bench::SeedFlag();
  auto opened = ReplicatedKvStore::Open(opt);
  EEA_CHECK_OK(opened.status());
  std::unique_ptr<ReplicatedKvStore> store = std::move(opened).value();
  exearth::dfs::HopsFsCluster cluster(exearth::dfs::HopsFsCluster::Options{},
                                      store.get(), shards);
  uint64_t batch = 0;
  for (auto _ : state) {
    RunCreateBatch(&cluster, batch++);
  }
  state.SetItemsProcessed(static_cast<int64_t>(batch) * kWriterThreads *
                          kCreatesPerThread);
  const auto stats = store->repl_stats();
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["replicas"] =
      static_cast<double>(shards * store->replicas_per_shard());
  state.counters["commits_acked"] = static_cast<double>(stats.commits_acked);
  state.counters["frames_shipped"] = static_cast<double>(stats.frames_shipped);
  state.counters["txn_retries"] = static_cast<double>(cluster.txn_retries());
}

// The single-namenode bar: the same create workload against the single
// durable store (one shard, zero followers: one WAL, no shipping, no
// quorum). Its commits serialize on the shard mutex.
void BM_E19SingleStoreBaseline(benchmark::State& state) {
  TempReplDir dir;
  ReplOptions opt;
  opt.followers_per_shard = 0;
  opt.write_quorum = 0;
  opt.kv_partitions = exearth::dfs::HopsFsCluster::Options{}.kv_partitions;
  opt.data_dir = dir.path;
  auto opened = ReplicatedKvStore::Open(opt);
  EEA_CHECK_OK(opened.status());
  std::unique_ptr<ReplicatedKvStore> store = std::move(opened).value();
  exearth::dfs::HopsFsCluster cluster(exearth::dfs::HopsFsCluster::Options{},
                                      store.get(), 1);
  uint64_t batch = 0;
  for (auto _ : state) {
    RunCreateBatch(&cluster, batch++);
  }
  state.SetItemsProcessed(static_cast<int64_t>(batch) * kWriterThreads *
                          kCreatesPerThread);
  state.counters["shards"] = 1.0;
  state.counters["txn_retries"] = static_cast<double>(cluster.txn_retries());
}

// One failover drill at a fixed seed: 40 single-key puts against a
// 2-shard store whose leader is killed at commit #17. Returns the laws'
// evidence folded into a hash, plus the measured blackout window.
struct DrillResult {
  uint64_t hash = 0;
  double blackout_us = 0.0;
};

DrillResult RunFailoverDrill(int followers, uint64_t seed) {
  TempReplDir dir;
  auto& injector = FaultInjector::Default();
  injector.Reset();
  injector.set_seed(seed);
  FaultRule rule;
  rule.fail_calls = {17};
  injector.Program("repl.leader.crash", rule);

  ReplOptions opt;
  opt.num_shards = 2;
  opt.followers_per_shard = followers;
  opt.write_quorum = 1;
  opt.data_dir = dir.path;
  opt.election_seed = seed;

  DrillResult out;
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 0x100000001b3ULL;
  };

  std::vector<std::string> acked;
  std::vector<std::string> refused;
  {
    auto opened = ReplicatedKvStore::Open(opt);
    EEA_CHECK_OK(opened.status());
    std::unique_ptr<ReplicatedKvStore> store = std::move(opened).value();
    // Blackout window: from the start of the commit that trips the kill
    // (the election runs inside it) until the next acked commit lands.
    bool crashed = false;
    std::chrono::steady_clock::time_point t0;
    for (int i = 0; i < 40; ++i) {
      const std::string key = StrFormat("drill%03d", i);
      if (!crashed) t0 = std::chrono::steady_clock::now();
      const exearth::common::Status put =
          store->Put(key, StrFormat("val-%d", i));
      if (put.ok()) {
        acked.push_back(key);
        if (crashed && out.blackout_us == 0.0) {
          out.blackout_us =
              static_cast<double>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count()) /
              1000.0;
        }
      } else {
        EEA_CHECK(put.code() == exearth::common::StatusCode::kUnavailable)
            << "drill commit failed oddly: " << put.ToString();
        refused.push_back(key);
        crashed = true;
      }
    }
    EEA_CHECK(refused.size() == 1)
        << "expected exactly one refused commit, got " << refused.size();
    const auto stats = store->repl_stats();
    EEA_CHECK(stats.leader_crashes == 1 && stats.elections >= 1);
    for (const auto& shard : store->StatusSnapshot()) {
      mix(shard.election_term);
      // A crashed replica is a permanent node loss: drop its WAL before
      // the restart, or recovery would resurrect the unacked tail.
      for (const auto& replica : shard.replicas) {
        if (replica.down) {
          std::filesystem::remove(
              dir.path + StrFormat("/shard%03d_replica%02d.wal", shard.shard,
                                   replica.replica));
        }
      }
    }
    mix(stats.commits_acked);
    mix(stats.quorum_failures);
    mix(stats.elections);
    mix(stats.leader_crashes);
    mix(stats.channel_drops);
    mix(stats.follower_rejects);
    mix(stats.catchup_records);
    mix(stats.frames_shipped);
  }
  injector.Reset();

  // Restart and hold the laws: every acked write present with its exact
  // value, the refused write invisible, contents fold into the hash.
  auto reopened = ReplicatedKvStore::Open(opt);
  EEA_CHECK_OK(reopened.status());
  std::unique_ptr<ReplicatedKvStore> store = std::move(reopened).value();
  for (const std::string& key : acked) {
    auto v = store->Get(key);
    EEA_CHECK(v.ok()) << "acked write " << key << " lost across failover";
    EEA_CHECK(v.value() == StrFormat("val-%d", std::stoi(key.substr(5))));
  }
  for (const std::string& key : refused) {
    EEA_CHECK(!store->Get(key).ok())
        << "unacked write " << key << " became visible";
  }
  for (const auto& [key, value] : store->ScanPrefix("")) {
    mix(Fnv1a(key));
    mix(Fnv1a(value));
  }
  out.hash = hash;
  return out;
}

void BM_E19FailoverDrill(benchmark::State& state) {
  const int followers = static_cast<int>(state.range(0));
  const uint64_t seed = exearth::bench::SeedFlag();
  DrillResult last;
  for (auto _ : state) {
    last = RunFailoverDrill(followers, seed);
    benchmark::DoNotOptimize(last.hash);
  }
  state.counters["followers"] = static_cast<double>(followers);
  state.counters["blackout_us"] = last.blackout_us;
  // Mask to 32 bits: gauges are doubles (52-bit exact mantissa). Every
  // follower count contributes at the same fixed seed, so the gauge pins
  // the whole sweep, not just the last row.
  auto* gauge = exearth::common::MetricsRegistry::Default().GetGauge(
      "bench.e19.result_hash");
  const uint64_t prior = static_cast<uint64_t>(gauge->value());
  gauge->Set(static_cast<double>((prior ^ last.hash) & 0xffffffffULL));
  exearth::common::MetricsRegistry::Default()
      .GetGauge("bench.e19.blackout_us")
      ->Set(last.blackout_us);
}

}  // namespace

// Follower counts start at 2: write quorum is checked against the
// configured follower count, so a 1-follower shard that loses its leader
// is left permanently below quorum (correctly refusing every later
// commit) — no blackout window exists to measure there.
BENCHMARK(BM_E19FailoverDrill)
    ->ArgNames({"followers"})
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_E19ShardScaling)
    ->ArgNames({"shards"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_E19SingleStoreBaseline)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// main() comes from bench_main.cc (adds --smoke, --seed and the
// metrics-snapshot JSON dump).
