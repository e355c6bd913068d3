// E17 — multi-tenant serving under load (paper §6 "thousands of
// concurrent users"): the serve::QueryBroker front door driven by the
// closed/open-loop load generator at 10k–1M simulated users with Zipfian
// tenant skew. Reports throughput and p50/p95/p99 tail latency, plus the
// deterministic request/shed/cache/batch counters the serving-load CI
// gate diffs across two seeded runs.
//
// Expected shape: the result cache absorbs the Zipf head (hit ratio grows
// with skew), cross-request batching collapses concurrent selects into
// far fewer R-tree traversals than requests served, and per-tenant quotas
// shed the hot tenant first while the tail stays within its share.
//
// Every row runs FIXED iterations over a workload derived from --seed, so
// every serve.* / strabon.geostore.* counter and the bench.e17.* hash
// gauges in the metrics JSON are byte-identical across runs with the same
// seed (CI runs the binary twice and diffs to prove it). Wall-clock
// latency percentiles live in benchmark counters only — they are for
// humans, not for the gate.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_flags.h"
#include "common/metrics.h"
#include "serve/broker.h"
#include "serve/loadgen.h"
#include "strabon/workload.h"

namespace {

namespace eea = exearth;
using eea::serve::ArrivalMode;
using eea::serve::BrokerOptions;
using eea::serve::LoadGenOptions;
using eea::serve::LoadGenReport;
using eea::serve::QueryBroker;
using eea::serve::Request;
using eea::serve::TenantId;
using eea::serve::TenantOptions;

constexpr double kWorldSize = 1000.0;

eea::strabon::GeoStore& ServingStore() {
  static eea::strabon::GeoStore* store = [] {
    eea::strabon::GeoWorkloadOptions opt;
    opt.num_features = 20000;
    opt.kind = eea::strabon::GeoWorkloadOptions::GeometryKind::kPoint;
    opt.with_thematic = false;
    opt.world_size = kWorldSize;
    opt.seed = 17;
    return new eea::strabon::GeoStore(eea::strabon::MakeGeoWorkload(opt));
  }();
  return *store;
}

// A tenant population with skewed contracts: tenant 0 is the heavy
// interactive tenant (big share, big quota), the rest alternate batch /
// best-effort with small shares, so quota shed and priority shed both
// have someone to bite.
std::vector<TenantId> RegisterTenants(QueryBroker* broker, int n) {
  std::vector<TenantId> ids;
  ids.reserve(n);
  for (int i = 0; i < n; ++i) {
    TenantOptions t;
    if (i == 0) {
      t.weight = 4;
      t.quota_rps = 20000.0;
      t.quota_burst = 200.0;
      t.priority = eea::common::Priority::kInteractive;
    } else {
      t.weight = (i % 3 == 1) ? 2 : 1;
      t.quota_rps = 4000.0;
      t.quota_burst = 50.0;
      t.priority = (i % 2 == 0) ? eea::common::Priority::kBestEffort
                                : eea::common::Priority::kBatch;
    }
    ids.push_back(broker->RegisterTenant("tenant" + std::to_string(i), t));
  }
  return ids;
}

void ReportRun(benchmark::State& state, const LoadGenReport& r) {
  state.counters["offered"] = static_cast<double>(r.offered);
  state.counters["ok"] = static_cast<double>(r.ok);
  state.counters["errors"] = static_cast<double>(r.errors);
  state.counters["quota_shed"] = static_cast<double>(r.quota_shed);
  state.counters["admission_shed"] = static_cast<double>(r.admission_shed);
  state.counters["cache_hits"] = static_cast<double>(r.cache_hits);
  state.counters["batched"] = static_cast<double>(r.batched_requests);
  state.counters["throughput_rps"] = r.throughput_rps;
  state.counters["p50_us"] = r.p50_us;
  state.counters["p95_us"] = r.p95_us;
  state.counters["p99_us"] = r.p99_us;
}

// Closed loop: `concurrency` simulated in-flight users per wave, waves on
// a virtual millisecond clock (so token buckets refill deterministically).
void BM_ServingClosedLoop(benchmark::State& state) {
  const uint64_t users = static_cast<uint64_t>(state.range(0));
  const int tenants = static_cast<int>(state.range(1));
  const size_t concurrency = static_cast<size_t>(state.range(2));
  const int threads =
      eea::bench::EffectiveThreads(static_cast<int>(state.range(3)));

  uint64_t result_hash = 0;
  LoadGenReport report;
  for (auto _ : state) {
    BrokerOptions opt;
    opt.admission.max_depth = 48;  // < concurrency: admission shed is real
    opt.num_threads = static_cast<size_t>(threads);
    QueryBroker broker(opt);
    broker.set_store(&ServingStore());
    std::vector<TenantId> ids = RegisterTenants(&broker, tenants);

    LoadGenOptions load;
    load.seed = eea::bench::SeedFlag();
    load.mode = ArrivalMode::kClosed;
    load.concurrency = concurrency;
    load.waves = 20;
    load.wave_virtual_us = 1000;
    load.num_users = users;
    load.world = {0.0, 0.0, kWorldSize, kWorldSize};
    load.box_extent = 25.0;
    report = eea::serve::RunLoadGen(&broker, ids, load);
    result_hash += report.result_hash;
    benchmark::DoNotOptimize(report.ok);
  }
  ReportRun(state, report);
  // Mask to 32 bits: metrics gauges are doubles, and 52 mantissa bits
  // would silently round a full 64-bit hash.
  eea::common::MetricsRegistry::Default()
      .GetGauge("bench.e17.result_hash")
      ->Set(static_cast<double>(result_hash & 0xffffffffULL));
}

// Open loop: Poisson arrivals on the virtual clock; arrivals sharing a
// tick are concurrently in flight.
void BM_ServingOpenLoop(benchmark::State& state) {
  const uint64_t users = static_cast<uint64_t>(state.range(0));
  const int tenants = static_cast<int>(state.range(1));

  uint64_t result_hash = 0;
  LoadGenReport report;
  for (auto _ : state) {
    BrokerOptions opt;
    opt.admission.max_depth = 48;
    QueryBroker broker(opt);
    broker.set_store(&ServingStore());
    std::vector<TenantId> ids = RegisterTenants(&broker, tenants);

    LoadGenOptions load;
    load.seed = eea::bench::SeedFlag();
    load.mode = ArrivalMode::kOpen;
    load.arrival_rps = 100000.0;
    load.total_requests = 4000;
    load.tick_us = 500;
    load.num_users = users;
    load.world = {0.0, 0.0, kWorldSize, kWorldSize};
    load.box_extent = 25.0;
    report = eea::serve::RunLoadGen(&broker, ids, load);
    result_hash += report.result_hash;
    benchmark::DoNotOptimize(report.ok);
  }
  ReportRun(state, report);
  eea::common::MetricsRegistry::Default()
      .GetGauge("bench.e17.open.result_hash")
      ->Set(static_cast<double>(result_hash & 0xffffffffULL));
}

// The batching ablation the acceptance gate checks: >= 64 concurrent
// SpatialSelects against the same frozen R-tree, batched vs unbatched
// (caching off so every request actually executes). Batched mode must
// traverse measurably fewer times than it serves requests, with
// byte-identical per-request results.
void BM_ServingBatchEffect(benchmark::State& state) {
  const size_t kRequests = 64;
  auto* traversals = eea::common::MetricsRegistry::Default().GetCounter(
      "strabon.geostore.select_traversals");

  uint64_t batched_traversals = 0;
  uint64_t unbatched_traversals = 0;
  bool identical = true;
  for (auto _ : state) {
    // Same offered wave both modes: 64 selects over 8 distinct boxes.
    std::vector<eea::serve::Offered> wave;
    {
      eea::common::Rng rng(eea::bench::SeedFlag());
      std::vector<eea::geo::Box> boxes;
      for (int i = 0; i < 8; ++i) {
        double x = rng.UniformDouble(0.0, kWorldSize - 50.0);
        double y = rng.UniformDouble(0.0, kWorldSize - 50.0);
        boxes.push_back(eea::geo::Box{x, y, x + 50.0, y + 50.0});
      }
      for (size_t i = 0; i < kRequests; ++i) {
        wave.push_back(
            {0, Request::SpatialSelect(boxes[i % boxes.size()])});
      }
    }
    auto run_mode = [&](bool batching, uint64_t* traversal_delta) {
      BrokerOptions opt;
      if (!batching) opt.max_batch = 1;  // one traversal per request
      opt.cache_capacity = 0;  // every request must execute
      QueryBroker broker(opt);
      broker.set_store(&ServingStore());
      TenantOptions t;
      t.quota_rps = 1e9;  // no shed: this row isolates the batching effect
      t.quota_burst = 1e6;
      broker.RegisterTenant("ablation", t);
      uint64_t before = traversals->value();
      auto responses = broker.ExecuteWave(wave, 1000);
      *traversal_delta += traversals->value() - before;
      return responses;
    };
    uint64_t bt = 0, ut = 0;
    auto batched = run_mode(true, &bt);
    auto unbatched = run_mode(false, &ut);
    batched_traversals += bt;
    unbatched_traversals += ut;
    for (size_t i = 0; i < kRequests; ++i) {
      if (batched[i].ids != unbatched[i].ids) identical = false;
    }
    benchmark::DoNotOptimize(batched.data());
  }
  state.counters["requests"] = static_cast<double>(kRequests);
  state.counters["traversals_batched"] =
      static_cast<double>(batched_traversals);
  state.counters["traversals_unbatched"] =
      static_cast<double>(unbatched_traversals);
  state.counters["identical"] = identical ? 1.0 : 0.0;
  // The CI gate asserts on these gauges: batched mode must traverse fewer
  // times than it serves requests, and results must match unbatched.
  auto& reg = eea::common::MetricsRegistry::Default();
  reg.GetGauge("bench.e17.batch.requests")
      ->Set(static_cast<double>(kRequests));
  reg.GetGauge("bench.e17.batch.traversals")
      ->Set(static_cast<double>(batched_traversals));
  reg.GetGauge("bench.e17.batch.traversals_unbatched")
      ->Set(static_cast<double>(unbatched_traversals));
  reg.GetGauge("bench.e17.batch.identical")->Set(identical ? 1.0 : 0.0);
}

}  // namespace

BENCHMARK(BM_ServingClosedLoop)
    ->ArgNames({"users", "tenants", "concurrency", "threads"})
    ->Args({10000, 4, 64, 1})
    ->Args({100000, 16, 64, 1})
    ->Args({1000000, 16, 256, 1})
    ->Args({1000000, 16, 256, 4})
    ->Iterations(1)  // fixed: keeps serve.* counters reproducible
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ServingOpenLoop)
    ->ArgNames({"users", "tenants"})
    ->Args({100000, 8})
    ->Iterations(1)  // fixed: keeps serve.* counters reproducible
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ServingBatchEffect)
    ->Iterations(1)  // fixed: keeps traversal counters reproducible
    ->Unit(benchmark::kMillisecond);

// main() comes from bench_main.cc (adds --smoke, --seed and the
// metrics-snapshot JSON dump).
