// Acceptance properties of the multi-tenant serving layer (serve::):
//
//   * cross-request batching is invisible: a batched SpatialSelect wave
//     returns byte-identical per-request results to unbatched mode
//     (max_batch = 1), while executing measurably fewer R-tree traversals
//     than requests served;
//   * weighted fairness: a tenant flooding 10x another tenant's offered
//     load cannot push the victim's service position past the
//     deterministic WRR bound (W_total / w_victim) * k + W_total;
//   * quotas and admission shed with ResourceExhausted, tagged with which
//     stage shed (quota vs admission);
//   * the result cache never serves stale reads: a GeoStore ingest
//     invalidates affected entries at next lookup, and an entry answers
//     only its own box and relation;
//   * a tenant's deadline binds its selects whether they run batched or
//     alone;
//   * waves executed across the broker's worker pool agree with serial
//     execution (the suite's tsan target).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "geo/geometry.h"
#include "serve/broker.h"
#include "serve/loadgen.h"
#include "strabon/geostore.h"
#include "strabon/workload.h"

namespace {

namespace eea = exearth;
using eea::geo::Box;
using eea::geo::Geometry;
using eea::geo::Point;
using eea::serve::ArrivalMode;
using eea::serve::BrokerOptions;
using eea::serve::Offered;
using eea::serve::QueryBroker;
using eea::serve::Request;
using eea::serve::Response;
using eea::serve::ShedStage;
using eea::serve::TenantId;
using eea::serve::TenantOptions;
using eea::strabon::SpatialRelation;

// A 10x10 grid of points on integer coordinates in [0, 10)^2.
std::unique_ptr<eea::strabon::GeoStore> GridStore() {
  auto store = std::make_unique<eea::strabon::GeoStore>();
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      store->AddFeature(
          "http://x/p" + std::to_string(x) + "_" + std::to_string(y),
          Geometry(Point{static_cast<double>(x), static_cast<double>(y)}));
    }
  }
  EXPECT_TRUE(store->Build().ok());
  return store;
}

TenantOptions Unlimited() {
  TenantOptions t;
  t.quota_rps = 1e9;
  t.quota_burst = 1e6;
  return t;
}

uint64_t Traversals() {
  return eea::common::MetricsRegistry::Default()
      .GetCounter("strabon.geostore.select_traversals")
      ->value();
}

// --- batching ---------------------------------------------------------------

TEST(ServeBatching, BatchedWaveIdenticalToUnbatchedAndFewerTraversals) {
  auto store = GridStore();
  std::vector<Offered> wave;
  // 64 selects over 7 distinct boxes (some identical, some overlapping).
  for (int i = 0; i < 64; ++i) {
    double lo = static_cast<double>(i % 7);
    wave.push_back(
        {0, Request::SpatialSelect(Box{lo, 0.0, lo + 3.0, 9.0})});
  }
  auto run = [&](bool batching, uint64_t* traversals) {
    BrokerOptions opt;
    if (!batching) opt.max_batch = 1;
    opt.cache_capacity = 0;  // isolate batching: every request executes
    QueryBroker broker(opt);
    broker.set_store(store.get());
    broker.RegisterTenant("a", Unlimited());
    uint64_t before = Traversals();
    auto responses = broker.ExecuteWave(wave, 1000);
    *traversals = Traversals() - before;
    return responses;
  };
  uint64_t batched_traversals = 0, unbatched_traversals = 0;
  auto batched = run(true, &batched_traversals);
  auto unbatched = run(false, &unbatched_traversals);
  ASSERT_EQ(batched.size(), wave.size());
  for (size_t i = 0; i < wave.size(); ++i) {
    ASSERT_TRUE(batched[i].status.ok()) << batched[i].status.ToString();
    ASSERT_TRUE(unbatched[i].status.ok());
    EXPECT_EQ(batched[i].ids, unbatched[i].ids) << "request " << i;
    EXPECT_EQ(batched[i].result_hash, unbatched[i].result_hash);
    EXPECT_GT(batched[i].batch_size, 1u);
  }
  // One shared traversal vs one per request.
  EXPECT_EQ(batched_traversals, 1u);
  EXPECT_EQ(unbatched_traversals, wave.size());
}

TEST(ServeBatching, GeoStoreBatchMatchesPerQuerySelect) {
  auto store = GridStore();
  std::vector<eea::strabon::BatchSelectQuery> queries;
  queries.push_back({Box{0, 0, 2, 2}, eea::strabon::SpatialRelation::kIntersects});
  queries.push_back({Box{5, 5, 9, 9}, eea::strabon::SpatialRelation::kIntersects});
  queries.push_back({Box{0, 0, 2, 2}, eea::strabon::SpatialRelation::kIntersects});
  queries.push_back({Box{-5, -5, -1, -1}, eea::strabon::SpatialRelation::kIntersects});
  auto batch = store->SpatialSelectBatch(queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto single = store->SpatialSelect(queries[i].box, queries[i].relation,
                                       /*use_index=*/true);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batch)[i], *single) << "query " << i;
  }
  EXPECT_TRUE((*batch)[3].empty());  // off-world box matches nothing
}

// --- fairness ---------------------------------------------------------------

TEST(ServeFairness, FloodingTenantCannotStarveVictim) {
  auto store = GridStore();
  QueryBroker broker;
  broker.set_store(store.get());
  TenantOptions opts = Unlimited();
  TenantId hog = broker.RegisterTenant("hog", opts);
  TenantId victim = broker.RegisterTenant("victim", opts);
  const uint32_t w_total = 2;  // both weight 1
  // The hog offers 10x the victim's load, all ahead of the victim in
  // arrival order.
  std::vector<Offered> wave;
  for (int i = 0; i < 100; ++i) {
    double lo = static_cast<double>(i % 5);
    wave.push_back({hog, Request::SpatialSelect(Box{lo, 0, lo + 1, 9})});
  }
  for (int i = 0; i < 10; ++i) {
    double lo = static_cast<double>(i % 5);
    wave.push_back({victim, Request::SpatialSelect(Box{lo, 0, lo + 2, 9})});
  }
  auto responses = broker.ExecuteWave(wave, 1000);
  // WRR bound: the victim's k-th request (1-based) is serviced within
  // (W_total / w_victim) * k + W_total slots, no matter what the hog does.
  for (int k = 1; k <= 10; ++k) {
    const Response& r = responses[100 + (k - 1)];
    ASSERT_TRUE(r.status.ok());
    EXPECT_LE(r.service_slot, static_cast<uint64_t>(w_total * k + w_total))
        << "victim request " << k << " starved";
  }
}

TEST(ServeFairness, WeightGrantsProportionalSlots) {
  auto store = GridStore();
  QueryBroker broker;
  broker.set_store(store.get());
  TenantOptions heavy = Unlimited();
  heavy.weight = 3;
  TenantId a = broker.RegisterTenant("heavy", heavy);
  TenantId b = broker.RegisterTenant("light", Unlimited());
  std::vector<Offered> wave;
  for (int i = 0; i < 6; ++i) {
    wave.push_back({a, Request::SpatialSelect(Box{0, 0, 1, 1})});
  }
  for (int i = 0; i < 2; ++i) {
    wave.push_back({b, Request::SpatialSelect(Box{1, 1, 2, 2})});
  }
  auto responses = broker.ExecuteWave(wave, 1000);
  // Cycle 1: heavy x3 (slots 0-2), light x1 (slot 3); cycle 2: heavy x3,
  // light x1.
  EXPECT_EQ(responses[6].service_slot, 3u);  // light's 1st
  EXPECT_EQ(responses[7].service_slot, 7u);  // light's 2nd
}

// --- quota and admission shedding -------------------------------------------

TEST(ServeQuota, OverQuotaTenantShedsOthersUnaffected) {
  auto store = GridStore();
  QueryBroker broker;
  broker.set_store(store.get());
  TenantOptions small;
  small.quota_rps = 1000.0;
  small.quota_burst = 5.0;  // 5 tokens at t=0
  TenantId constrained = broker.RegisterTenant("constrained", small);
  TenantId roomy = broker.RegisterTenant("roomy", Unlimited());
  std::vector<Offered> wave;
  for (int i = 0; i < 12; ++i) {
    wave.push_back({constrained, Request::SpatialSelect(Box{0, 0, 3, 3})});
    wave.push_back({roomy, Request::SpatialSelect(Box{4, 4, 8, 8})});
  }
  auto responses = broker.ExecuteWave(wave, 0);
  int constrained_ok = 0, constrained_shed = 0;
  for (int i = 0; i < 24; ++i) {
    const Response& r = responses[i];
    if (wave[i].tenant == roomy) {
      EXPECT_TRUE(r.status.ok());
      EXPECT_EQ(r.shed, ShedStage::kNone);
      continue;
    }
    if (r.status.ok()) {
      ++constrained_ok;
    } else {
      EXPECT_TRUE(r.status.IsResourceExhausted());
      EXPECT_EQ(r.shed, ShedStage::kQuota);
      ++constrained_shed;
    }
  }
  EXPECT_EQ(constrained_ok, 5);  // exactly the burst allowance
  EXPECT_EQ(constrained_shed, 7);
  // Virtual time moves 10ms: 1000 rps refills 10 tokens.
  auto later = broker.ExecuteWave(
      {{constrained, Request::SpatialSelect(Box{0, 0, 3, 3})}}, 10000);
  EXPECT_TRUE(later[0].status.ok());
}

TEST(ServeAdmission, QueueDepthBoundsAdmittedRequests) {
  auto store = GridStore();
  BrokerOptions opt;
  opt.admission.max_depth = 16;
  opt.cache_capacity = 0;  // admitted requests hold their slot to the end
  QueryBroker broker(opt);
  broker.set_store(store.get());
  TenantId t = broker.RegisterTenant("t", Unlimited());
  std::vector<Offered> wave;
  for (int i = 0; i < 40; ++i) {
    double lo = static_cast<double>(i % 40) * 0.2;
    wave.push_back({t, Request::SpatialSelect(Box{lo, 0, lo + 0.1, 9})});
  }
  auto responses = broker.ExecuteWave(wave, 1000);
  int ok = 0, shed = 0;
  for (const Response& r : responses) {
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(r.status.IsResourceExhausted());
      EXPECT_EQ(r.shed, ShedStage::kAdmission);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 16);
  EXPECT_EQ(shed, 24);
}

// --- result cache -----------------------------------------------------------

TEST(ServeCache, HitsSkipExecutionAndIngestInvalidates) {
  auto store = GridStore();
  QueryBroker broker;
  broker.set_store(store.get());
  TenantId t = broker.RegisterTenant("t", Unlimited());
  const Request query = Request::SpatialSelect(Box{0.5, 0.5, 3.5, 3.5});

  auto first = broker.ExecuteWave({{t, query}}, 1000);
  ASSERT_TRUE(first[0].status.ok());
  EXPECT_FALSE(first[0].cache_hit);
  const size_t baseline = first[0].ids.size();
  ASSERT_GT(baseline, 0u);

  uint64_t before = Traversals();
  auto second = broker.ExecuteWave({{t, query}}, 2000);
  ASSERT_TRUE(second[0].status.ok());
  EXPECT_TRUE(second[0].cache_hit);
  EXPECT_EQ(second[0].ids, first[0].ids);
  EXPECT_EQ(Traversals(), before);  // served from cache, no traversal

  // Ingest a feature inside the cached box; the stale entry must not
  // survive the next lookup.
  store->AddFeature("http://x/new", Geometry(Point{1.25, 1.25}));
  ASSERT_TRUE(store->Build().ok());
  auto third = broker.ExecuteWave({{t, query}}, 3000);
  ASSERT_TRUE(third[0].status.ok());
  EXPECT_FALSE(third[0].cache_hit) << "stale read after ingest";
  EXPECT_EQ(third[0].ids.size(), baseline + 1);
}

TEST(ServeCache, TenantsNeverShareEntries) {
  auto store = GridStore();
  QueryBroker broker;
  broker.set_store(store.get());
  TenantId a = broker.RegisterTenant("a", Unlimited());
  TenantId b = broker.RegisterTenant("b", Unlimited());
  const Request query = Request::SpatialSelect(Box{0, 0, 4, 4});
  auto wave = broker.ExecuteWave({{a, query}, {b, query}}, 1000);
  ASSERT_TRUE(wave[0].status.ok());
  ASSERT_TRUE(wave[1].status.ok());
  EXPECT_FALSE(wave[1].cache_hit);  // b cannot hit a's fill
  auto again = broker.ExecuteWave({{a, query}, {b, query}}, 2000);
  EXPECT_TRUE(again[0].cache_hit);
  EXPECT_TRUE(again[1].cache_hit);
}

TEST(ServeCache, KeyCoversBoxAndRelation) {
  // One box under two relations is two queries: the grid points inside
  // the box intersect it, but only the region around it contains it.
  auto store = GridStore();
  eea::geo::Polygon region;
  region.outer.points = {
      {0.2, 0.2}, {4.8, 0.2}, {4.8, 4.8}, {0.2, 4.8}, {0.2, 0.2}};
  store->AddFeature("http://x/region", Geometry(region));
  ASSERT_TRUE(store->Build().ok());
  QueryBroker broker;
  broker.set_store(store.get());
  TenantId t = broker.RegisterTenant("t", Unlimited());
  const Box box{0.5, 0.5, 3.5, 3.5};
  const Request intersects =
      Request::SpatialSelect(box, SpatialRelation::kIntersects);
  const Request contains =
      Request::SpatialSelect(box, SpatialRelation::kContains);

  auto first = broker.ExecuteWave({{t, intersects}, {t, contains}}, 1000);
  ASSERT_TRUE(first[0].status.ok());
  ASSERT_TRUE(first[1].status.ok());
  EXPECT_FALSE(first[0].cache_hit);
  EXPECT_FALSE(first[1].cache_hit);
  EXPECT_EQ(first[0].ids.size(), 10u);  // 3x3 points + the region
  EXPECT_EQ(first[1].ids.size(), 1u);   // the region alone
  EXPECT_EQ(broker.cache_size(), 2u);

  auto again_intersects = broker.ExecuteWave({{t, intersects}}, 2000);
  ASSERT_TRUE(again_intersects[0].status.ok());
  EXPECT_TRUE(again_intersects[0].cache_hit);
  EXPECT_EQ(again_intersects[0].ids, first[0].ids);
  auto again_contains = broker.ExecuteWave({{t, contains}}, 3000);
  ASSERT_TRUE(again_contains[0].status.ok());
  EXPECT_TRUE(again_contains[0].cache_hit);
  EXPECT_EQ(again_contains[0].ids, first[1].ids);
}

// --- determinism ------------------------------------------------------------

TEST(ServeDeterminism, IdenticalWavesOnFreshBrokersAgree) {
  auto store = GridStore();
  auto build_wave = [] {
    std::vector<Offered> wave;
    for (int i = 0; i < 30; ++i) {
      double lo = static_cast<double>(i % 6);
      wave.push_back({static_cast<TenantId>(i % 3),
                      Request::SpatialSelect(Box{lo, 0, lo + 2, 9})});
    }
    return wave;
  };
  auto run = [&] {
    QueryBroker broker;
    broker.set_store(store.get());
    TenantOptions heavy = Unlimited();
    heavy.weight = 2;
    broker.RegisterTenant("t0", heavy);
    broker.RegisterTenant("t1", Unlimited());
    broker.RegisterTenant("t2", Unlimited());
    std::vector<Response> all;
    for (int w = 0; w < 3; ++w) {
      auto r = broker.ExecuteWave(build_wave(), 1000 * (w + 1));
      all.insert(all.end(), r.begin(), r.end());
    }
    return all;
  };
  auto a = run();
  auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status.code(), b[i].status.code());
    EXPECT_EQ(a[i].ids, b[i].ids);
    EXPECT_EQ(a[i].result_hash, b[i].result_hash);
    EXPECT_EQ(a[i].service_slot, b[i].service_slot);
    EXPECT_EQ(a[i].cache_hit, b[i].cache_hit);
    EXPECT_EQ(a[i].batch_size, b[i].batch_size);
  }
}

TEST(ServeLoadGen, SameSeedSameCountersDifferentSeedDiverges) {
  auto store = GridStore();
  auto run = [&](uint64_t seed) {
    QueryBroker broker;
    broker.set_store(store.get());
    std::vector<TenantId> ids;
    for (int i = 0; i < 4; ++i) {
      TenantOptions t;
      t.quota_rps = 5000.0;
      t.quota_burst = 20.0;
      ids.push_back(broker.RegisterTenant("t" + std::to_string(i), t));
    }
    eea::serve::LoadGenOptions load;
    load.seed = seed;
    load.mode = ArrivalMode::kClosed;
    load.concurrency = 32;
    load.waves = 10;
    load.world = Box{0, 0, 10, 10};
    load.box_extent = 3.0;
    load.query_pool = 16;
    return eea::serve::RunLoadGen(&broker, ids, load);
  };
  auto a = run(7);
  auto b = run(7);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.quota_shed, b.quota_shed);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.batched_requests, b.batched_requests);
  EXPECT_EQ(a.result_hash, b.result_hash);
  auto c = run(8);
  EXPECT_NE(a.result_hash, c.result_hash);
}

// --- tenant deadlines -------------------------------------------------------

TEST(ServeDeadline, TenantDeadlineBindsBatchedAndUnbatchedSelects) {
  // 40k points: refinement reads the clock only every 64 candidates, so
  // the store must be large enough that a 1 us deadline surely fires.
  eea::strabon::GeoWorkloadOptions wopt;
  wopt.num_features = 40000;
  wopt.world_size = 1000.0;
  wopt.with_thematic = false;
  const eea::strabon::GeoStore store = eea::strabon::MakeGeoWorkload(wopt);
  const Box everything{-1.0, -1.0, 1001.0, 1001.0};
  const auto scan = store.SpatialSelect(
      everything, eea::strabon::SpatialRelation::kIntersects,
      /*use_index=*/false);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 40000u);
  for (size_t max_batch : {size_t{64}, size_t{1}}) {
    BrokerOptions opt;
    opt.max_batch = max_batch;
    opt.cache_capacity = 0;
    QueryBroker broker(opt);
    broker.set_store(&store);
    TenantOptions hurried = Unlimited();
    hurried.deadline_us = 1;
    const TenantId h = broker.RegisterTenant("hurried", hurried);
    const TenantId p = broker.RegisterTenant("patient", Unlimited());
    const Request select = Request::SpatialSelect(everything);
    auto cut = broker.ExecuteWave({{h, select}}, 1000);
    EXPECT_TRUE(cut[0].status.IsDeadlineExceeded())
        << "max_batch=" << max_batch << ": " << cut[0].status.ToString();
    auto full = broker.ExecuteWave({{p, select}}, 2000);
    ASSERT_TRUE(full[0].status.ok()) << full[0].status.ToString();
    EXPECT_EQ(full[0].ids, *scan) << "max_batch=" << max_batch;
  }
}

// --- parallel wave execution (the tsan target) ------------------------------

TEST(ServeThreaded, ParallelWaveUnitsMatchSerial) {
  auto store = GridStore();
  std::vector<Offered> wave;
  for (int i = 0; i < 48; ++i) {
    double lo = static_cast<double>(i % 12) * 0.75;
    wave.push_back({0, Request::SpatialSelect(Box{lo, 0, lo + 1.5, 9})});
  }
  auto run = [&](size_t threads) {
    BrokerOptions opt;
    opt.num_threads = threads;
    opt.max_batch = 8;  // force several independent units
    opt.cache_capacity = 0;
    QueryBroker broker(opt);
    broker.set_store(store.get());
    broker.RegisterTenant("t", Unlimited());
    return broker.ExecuteWave(wave, 1000);
  };
  auto serial = run(1);
  auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].status.ok());
    ASSERT_TRUE(parallel[i].status.ok());
    EXPECT_EQ(serial[i].ids, parallel[i].ids);
    EXPECT_EQ(serial[i].service_slot, parallel[i].service_slot);
  }
}

}  // namespace
