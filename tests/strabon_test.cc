#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/query_profile.h"
#include "common/rng.h"
#include "common/trace.h"
#include "geo/wkt.h"
#include "strabon/geostore.h"
#include "strabon/workload.h"

namespace exearth::strabon {
namespace {

TEST(GeoStoreTest, AddFeatureEmitsWktTriple) {
  GeoStore store;
  store.AddFeature("http://x/f1", geo::Geometry(geo::Point{1, 2}));
  auto built = store.Build();
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(*built, 1u);
  EXPECT_EQ(store.triples().size(), 1u);
  EXPECT_EQ(store.num_geometries(), 1u);
}

TEST(GeoStoreTest, BuildFailsOnMalformedWkt) {
  GeoStore store;
  store.triples().Add(
      rdf::Term::Iri("f"), rdf::Term::Iri(rdf::vocab::kAsWkt),
      rdf::Term::Literal("NOT A GEOMETRY", rdf::vocab::kWktLiteral));
  EXPECT_FALSE(store.Build().ok());
}

TEST(GeoStoreTest, SpatialSelectPointsIndexedEqualsScan) {
  GeoWorkloadOptions opt;
  opt.num_features = 3000;
  opt.kind = GeoWorkloadOptions::GeometryKind::kPoint;
  opt.world_size = 1000.0;
  opt.seed = 3;
  GeoStore store = MakeGeoWorkload(opt);
  common::Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    geo::Box box = RandomSelectionBox(1000.0, 0.01, &rng);
    auto indexed =
        *store.SpatialSelect(box, SpatialRelation::kIntersects, true);
    auto scanned =
        *store.SpatialSelect(box, SpatialRelation::kIntersects, false);
    EXPECT_EQ(indexed, scanned);
  }
}

TEST(GeoStoreTest, SpatialSelectMultiPolygonsIndexedEqualsScan) {
  GeoWorkloadOptions opt;
  opt.num_features = 500;
  opt.kind = GeoWorkloadOptions::GeometryKind::kMultiPolygon;
  opt.vertices_per_ring = 12;
  opt.world_size = 1000.0;
  opt.feature_size = 30.0;
  opt.seed = 5;
  GeoStore store = MakeGeoWorkload(opt);
  common::Rng rng(11);
  for (int i = 0; i < 10; ++i) {
    geo::Box box = RandomSelectionBox(1000.0, 0.02, &rng);
    auto indexed =
        *store.SpatialSelect(box, SpatialRelation::kIntersects, true);
    auto scanned =
        *store.SpatialSelect(box, SpatialRelation::kIntersects, false);
    EXPECT_EQ(indexed, scanned);
  }
}

TEST(GeoStoreTest, IndexedSelectTestsFarFewerCandidates) {
  GeoWorkloadOptions opt;
  opt.num_features = 20000;
  opt.world_size = 100000.0;
  GeoStore store = MakeGeoWorkload(opt);
  common::Rng rng(1);
  geo::Box box = RandomSelectionBox(opt.world_size, 0.001, &rng);
  SpatialQueryStats indexed_stats, scan_stats;
  ASSERT_TRUE(store
                  .SpatialSelect(box, SpatialRelation::kIntersects, true,
                                 &indexed_stats)
                  .ok());
  uint64_t indexed_tests = indexed_stats.geometry_tests;
  ASSERT_TRUE(store
                  .SpatialSelect(box, SpatialRelation::kIntersects, false,
                                 &scan_stats)
                  .ok());
  uint64_t scan_tests = scan_stats.geometry_tests;
  EXPECT_EQ(scan_tests, 20000u);
  EXPECT_LT(indexed_tests, scan_tests / 50);
}

TEST(GeoStoreTest, WithinAndContainsRelations) {
  GeoStore store;
  // A small square fully inside the query box; a big square containing it.
  auto small = geo::ParseWkt("POLYGON ((10 10, 12 10, 12 12, 10 12, 10 10))");
  auto big = geo::ParseWkt("POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))");
  ASSERT_TRUE(small.ok() && big.ok());
  store.AddFeature("http://x/small", *small);
  store.AddFeature("http://x/big", *big);
  ASSERT_TRUE(store.Build().ok());
  geo::Box query = geo::Box::Of(5, 5, 20, 20);
  auto within = *store.SpatialSelect(query, SpatialRelation::kWithin, true);
  ASSERT_EQ(within.size(), 1u);
  EXPECT_EQ(store.triples().dict().Decode(within[0]).value, "http://x/small");
  auto contains =
      *store.SpatialSelect(query, SpatialRelation::kContains, true);
  ASSERT_EQ(contains.size(), 1u);
  EXPECT_EQ(store.triples().dict().Decode(contains[0]).value, "http://x/big");
}

TEST(GeoStoreTest, SelectAndOneMemberBatchAgreeOnIdsAndWork) {
  GeoWorkloadOptions opt;
  opt.num_features = 2000;
  opt.kind = GeoWorkloadOptions::GeometryKind::kMultiPolygon;
  opt.vertices_per_ring = 12;
  opt.world_size = 1000.0;
  opt.feature_size = 60.0;
  opt.with_thematic = false;
  opt.seed = 23;
  GeoStore store = MakeGeoWorkload(opt);
  common::Rng rng(31);
  std::vector<geo::Box> boxes;
  for (double selectivity : {0.0001, 0.001, 0.01, 0.1}) {
    for (int i = 0; i < 3; ++i) {
      boxes.push_back(RandomSelectionBox(opt.world_size, selectivity, &rng));
    }
  }
  for (SpatialRelation rel : {SpatialRelation::kIntersects,
                              SpatialRelation::kContains,
                              SpatialRelation::kWithin}) {
    size_t matched = 0;
    for (const geo::Box& box : boxes) {
      SpatialQueryStats single, batch;
      auto indexed = store.SpatialSelect(box, rel, true, &single);
      auto batched = store.SpatialSelectBatch({{box, rel}}, &batch);
      auto scanned = store.SpatialSelect(box, rel, false);
      ASSERT_TRUE(indexed.ok() && batched.ok() && scanned.ok());
      EXPECT_EQ(*indexed, (*batched)[0]);
      EXPECT_EQ(*indexed, *scanned);
      EXPECT_EQ(single.nodes_visited, batch.nodes_visited);
      EXPECT_EQ(single.candidates, batch.candidates);
      EXPECT_EQ(single.geometry_tests, batch.geometry_tests);
      EXPECT_EQ(single.envelope_hits, batch.envelope_hits);
      EXPECT_EQ(single.results, batch.results);
      matched += indexed->size();
    }
    EXPECT_GT(matched, 0u) << "relation " << static_cast<int>(rel);
  }
}

TEST(GeoStoreTest, QueryWithSpatialFilterBothPathsAgree) {
  GeoWorkloadOptions opt;
  opt.num_features = 2000;
  opt.world_size = 1000.0;
  opt.with_thematic = true;
  GeoStore store = MakeGeoWorkload(opt);
  rdf::Query q;
  q.where.push_back(rdf::TriplePattern{
      rdf::PatternSlot::Var("s"), rdf::PatternSlot::Iri(rdf::vocab::kRdfType),
      rdf::PatternSlot::Iri("http://extremeearth.eu/ontology#Feature")});
  geo::Box box = geo::Box::Of(100, 100, 300, 300);
  auto pushed = store.QueryWithSpatialFilter(q, "s", box, true);
  auto baseline = store.QueryWithSpatialFilter(q, "s", box, false);
  ASSERT_TRUE(pushed.ok() && baseline.ok());
  ASSERT_FALSE(pushed->empty());
  auto key = [](const rdf::Binding& b) { return b.at("s"); };
  std::set<uint64_t> a, b;
  for (auto& row : *pushed) a.insert(key(row));
  for (auto& row : *baseline) b.insert(key(row));
  EXPECT_EQ(a, b);
}

TEST(GeoStoreTest, EnvelopeFastPathCountedAndEquivalent) {
  GeoWorkloadOptions opt;
  opt.num_features = 5000;
  opt.kind = GeoWorkloadOptions::GeometryKind::kPoint;
  opt.world_size = 1000.0;
  opt.seed = 21;
  GeoStore store = MakeGeoWorkload(opt);
  common::Rng rng(23);
  geo::Box box = RandomSelectionBox(1000.0, 0.05, &rng);
  SpatialQueryStats stats;
  auto indexed = *store.SpatialSelect(box, SpatialRelation::kIntersects, true,
                                      &stats);
  // Point envelopes inside the query box resolve without an exact test.
  EXPECT_GT(stats.envelope_hits, 0u);
  EXPECT_EQ(stats.results, indexed.size());
  EXPECT_GT(stats.nodes_visited, 0u);
  auto scanned =
      *store.SpatialSelect(box, SpatialRelation::kIntersects, false);
  EXPECT_EQ(indexed, scanned);
}

TEST(GeoStoreTest, ParallelSelectMatchesSingleThreadRandomized) {
  GeoWorkloadOptions opt;
  opt.num_features = 4000;
  opt.kind = GeoWorkloadOptions::GeometryKind::kMultiPolygon;
  opt.vertices_per_ring = 10;
  opt.world_size = 1000.0;
  opt.feature_size = 25.0;
  opt.seed = 17;
  GeoStore store = MakeGeoWorkload(opt);
  common::Rng rng(19);
  for (int i = 0; i < 15; ++i) {
    geo::Box box = RandomSelectionBox(1000.0, 0.05, &rng);
    store.set_num_threads(1);
    auto single_idx =
        *store.SpatialSelect(box, SpatialRelation::kIntersects, true);
    auto single_scan =
        *store.SpatialSelect(box, SpatialRelation::kIntersects, false);
    store.set_num_threads(4);
    SpatialQueryStats stats;
    auto parallel_idx = *store.SpatialSelect(box, SpatialRelation::kIntersects,
                                             true, &stats);
    auto parallel_scan = *store.SpatialSelect(box, SpatialRelation::kIntersects,
                                              false);
    EXPECT_EQ(parallel_idx, single_idx) << "query " << i;
    EXPECT_EQ(parallel_scan, single_scan) << "query " << i;
    EXPECT_EQ(stats.results, parallel_idx.size());
  }
  // The scan path has enough candidates to actually fan out.
  store.set_num_threads(4);
  SpatialQueryStats scan_stats;
  ASSERT_TRUE(store
                  .SpatialSelect(geo::Box::Of(0, 0, 1000, 1000),
                                 SpatialRelation::kIntersects, false,
                                 &scan_stats)
                  .ok());
  EXPECT_GT(scan_stats.threads_used, 1u);
}

TEST(GeoStoreTest, ParallelJoinMatchesSingleThread) {
  GeoWorkloadOptions opt;
  opt.num_features = 600;
  opt.kind = GeoWorkloadOptions::GeometryKind::kMultiPolygon;
  opt.vertices_per_ring = 8;
  opt.world_size = 500.0;
  opt.feature_size = 40.0;
  opt.with_thematic = true;
  opt.seed = 29;
  GeoStore store = MakeGeoWorkload(opt);
  const std::string cls = "http://extremeearth.eu/ontology#Feature";
  store.set_num_threads(1);
  auto single_idx =
      *store.SpatialJoin(cls, cls, SpatialRelation::kIntersects, true);
  auto single_nested =
      *store.SpatialJoin(cls, cls, SpatialRelation::kIntersects, false);
  ASSERT_EQ(single_idx, single_nested);
  ASSERT_FALSE(single_idx.empty());
  store.set_num_threads(4);
  SpatialQueryStats stats;
  auto parallel_idx =
      *store.SpatialJoin(cls, cls, SpatialRelation::kIntersects, true, &stats);
  auto parallel_nested =
      *store.SpatialJoin(cls, cls, SpatialRelation::kIntersects, false);
  EXPECT_EQ(parallel_idx, single_idx);
  EXPECT_EQ(parallel_nested, single_nested);
  EXPECT_GT(stats.threads_used, 1u);
  EXPECT_EQ(stats.results, parallel_idx.size());
}

// Exercised under TSan in CI: concurrent queries against one shared store,
// with the store's own pool refining in parallel underneath.
TEST(GeoStoreTest, ConcurrentQueriesAreRaceFree) {
  GeoWorkloadOptions opt;
  opt.num_features = 3000;
  opt.kind = GeoWorkloadOptions::GeometryKind::kPoint;
  opt.world_size = 1000.0;
  opt.seed = 31;
  GeoStore store = MakeGeoWorkload(opt);
  store.set_num_threads(2);
  // Expected answers computed up front, single-threaded.
  std::vector<geo::Box> boxes;
  std::vector<std::vector<uint64_t>> expected;
  common::Rng rng(37);
  for (int i = 0; i < 8; ++i) {
    boxes.push_back(RandomSelectionBox(1000.0, 0.02, &rng));
    expected.push_back(*store.SpatialSelect(boxes.back(),
                                            SpatialRelation::kIntersects,
                                            false));
  }
  std::vector<std::thread> workers;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        for (size_t q = 0; q < boxes.size(); ++q) {
          SpatialQueryStats stats;
          auto got = store.SpatialSelect(boxes[q],
                                         SpatialRelation::kIntersects,
                                         (t + round) % 2 == 0, &stats);
          if (!got.ok() || *got != expected[q]) ++failures[t];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

TEST(GeoStoreTest, GeometryOf) {
  GeoStore store;
  store.AddFeature("http://x/f", geo::Geometry(geo::Point{5, 6}));
  ASSERT_TRUE(store.Build().ok());
  auto id = store.triples().dict().Lookup(rdf::Term::Iri("http://x/f"));
  ASSERT_TRUE(id.has_value());
  const geo::Geometry* g = store.GeometryOf(*id);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->AsPoint().x, 5);
  EXPECT_EQ(store.GeometryOf(999999), nullptr);
}

TEST(GeoStoreTest, QueryWithSpatialFilterShortCircuitsOnEmptySelection) {
  GeoWorkloadOptions opt;
  opt.num_features = 500;
  opt.world_size = 1000.0;
  opt.with_thematic = true;
  GeoStore store = MakeGeoWorkload(opt);
  rdf::Query q;
  q.where.push_back(rdf::TriplePattern{
      rdf::PatternSlot::Var("s"), rdf::PatternSlot::Iri(rdf::vocab::kRdfType),
      rdf::PatternSlot::Iri("http://extremeearth.eu/ontology#Feature")});
  // A box far outside the world: the pushdown finds no subjects and must
  // skip the BGP entirely, still agreeing with the baseline.
  geo::Box empty_region = geo::Box::Of(5000, 5000, 6000, 6000);
  SpatialQueryStats stats;
  auto pushed = store.QueryWithSpatialFilter(q, "s", empty_region, true,
                                             &stats);
  auto baseline = store.QueryWithSpatialFilter(q, "s", empty_region, false);
  ASSERT_TRUE(pushed.ok() && baseline.ok());
  EXPECT_TRUE(pushed->empty());
  EXPECT_TRUE(baseline->empty());
  EXPECT_EQ(stats.results, 0u);
}

TEST(WorkloadTest, PointWorkloadShape) {
  GeoWorkloadOptions opt;
  opt.num_features = 100;
  opt.with_thematic = true;
  GeoStore store = MakeGeoWorkload(opt);
  // 1 wkt + 1 type + 1 label per feature.
  EXPECT_EQ(store.triples().size(), 300u);
  EXPECT_EQ(store.num_geometries(), 100u);
}

TEST(WorkloadTest, MultiPolygonVertexBudget) {
  GeoWorkloadOptions opt;
  opt.num_features = 10;
  opt.kind = GeoWorkloadOptions::GeometryKind::kMultiPolygon;
  opt.vertices_per_ring = 20;
  opt.polygons_per_multi = 3;
  opt.with_thematic = false;
  GeoStore store = MakeGeoWorkload(opt);
  // Check one geometry's vertex count through the public API.
  auto subjects = *store.SpatialSelect(
      geo::Box::Of(-1e9, -1e9, 1e9, 1e9), SpatialRelation::kIntersects, false);
  ASSERT_EQ(subjects.size(), 10u);
  const geo::Geometry* g = store.GeometryOf(subjects[0]);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->NumVertices(), 60u);
}

TEST(WorkloadTest, SelectionBoxMatchesSelectivity) {
  common::Rng rng(2);
  geo::Box box = RandomSelectionBox(1000.0, 0.04, &rng);
  EXPECT_NEAR(box.Area() / (1000.0 * 1000.0), 0.04, 1e-9);
  EXPECT_GE(box.min_x, 0);
  EXPECT_LE(box.max_x, 1000.0);
}

TEST(WorkloadTest, RandomPolygonIsSimpleStar) {
  common::Rng rng(3);
  geo::Polygon p = RandomPolygon(50, 50, 20, 16, &rng);
  EXPECT_EQ(p.outer.points.size(), 16u);
  EXPECT_GT(p.Area(), 0.0);
  // Center is inside a star-shaped polygon around it.
  EXPECT_TRUE(p.Contains(geo::Point{50, 50}));
}

// --- Query profiles / slow-query log -----------------------------------

TEST(GeoStoreProfileTest, SpatialSelectProfileMatchesStats) {
  GeoWorkloadOptions opt;
  opt.num_features = 3000;
  opt.world_size = 1000.0;
  opt.seed = 11;
  GeoStore store = MakeGeoWorkload(opt);
  geo::Box box = geo::Box::Of(100, 100, 400, 400);
  SpatialQueryStats stats;
  common::QueryProfile profile;
  auto results =
      *store.SpatialSelect(box, SpatialRelation::kIntersects, true, &stats,
                           &profile);
  EXPECT_EQ(profile.query, "strabon.SpatialSelect");
  EXPECT_GT(profile.total_us, 0.0);
  ASSERT_EQ(profile.operators.size(), 2u);
  EXPECT_EQ(profile.operators[0].name, "index_probe");
  EXPECT_EQ(profile.operators[0].rows_out, stats.candidates);
  EXPECT_EQ(profile.operators[1].name, "refine");
  EXPECT_EQ(profile.operators[1].rows_in, stats.candidates);
  EXPECT_EQ(profile.operators[1].rows_out, results.size());
  EXPECT_EQ(profile.operators[1].envelope_hits, stats.envelope_hits);
  // Operator time is contained in the total.
  double op_total = 0.0;
  for (const auto& op : profile.operators) op_total += op.wall_us;
  EXPECT_LE(op_total, profile.total_us * 1.5);
}

TEST(GeoStoreProfileTest, BaselineScanProfileNamesFullScan) {
  GeoWorkloadOptions opt;
  opt.num_features = 1000;
  opt.world_size = 1000.0;
  GeoStore store = MakeGeoWorkload(opt);
  geo::Box box = geo::Box::Of(0, 0, 500, 500);
  common::QueryProfile profile;
  store.SpatialSelect(box, SpatialRelation::kIntersects, false, nullptr,
                      &profile);
  ASSERT_FALSE(profile.operators.empty());
  EXPECT_EQ(profile.operators[0].name, "full_scan");
  EXPECT_EQ(profile.operators[0].rows_in, store.num_geometries());
}

TEST(GeoStoreProfileTest, ParallelRefineReportsChunksAndThreads) {
  GeoWorkloadOptions opt;
  opt.num_features = 5000;
  opt.world_size = 1000.0;
  GeoStore store = MakeGeoWorkload(opt);
  store.set_num_threads(4);
  geo::Box box = geo::Box::Of(0, 0, 900, 900);  // wide: plenty to refine
  common::QueryProfile profile;
  store.SpatialSelect(box, SpatialRelation::kIntersects, true, nullptr,
                      &profile);
  ASSERT_EQ(profile.operators.size(), 2u);
  EXPECT_GT(profile.operators[1].chunks, 1u);
  EXPECT_EQ(profile.operators[1].threads, 4u);
}

TEST(GeoStoreProfileTest, QueryWithSpatialFilterProfileHasPlanOperators) {
  GeoWorkloadOptions opt;
  opt.num_features = 2000;
  opt.world_size = 1000.0;
  opt.with_thematic = true;
  GeoStore store = MakeGeoWorkload(opt);
  rdf::Query q;
  q.where.push_back(rdf::TriplePattern{
      rdf::PatternSlot::Var("s"), rdf::PatternSlot::Iri(rdf::vocab::kRdfType),
      rdf::PatternSlot::Iri("http://extremeearth.eu/ontology#Feature")});
  geo::Box box = geo::Box::Of(100, 100, 300, 300);
  common::QueryProfile pushed, baseline;
  ASSERT_TRUE(store.QueryWithSpatialFilter(q, "s", box, true, nullptr,
                                           &pushed)
                  .ok());
  ASSERT_TRUE(store.QueryWithSpatialFilter(q, "s", box, false, nullptr,
                                           &baseline)
                  .ok());
  auto names = [](const common::QueryProfile& p) {
    std::vector<std::string> out;
    for (const auto& op : p.operators) out.push_back(op.name);
    return out;
  };
  EXPECT_EQ(names(pushed),
            (std::vector<std::string>{"spatial_select", "bgp",
                                      "subject_filter"}));
  EXPECT_EQ(names(baseline),
            (std::vector<std::string>{"bgp", "geometry_filter"}));
  EXPECT_EQ(pushed.query, "strabon.QueryWithSpatialFilter");
}

TEST(GeoStoreProfileTest, SpatialJoinProfileCountsPairs) {
  GeoWorkloadOptions opt;
  opt.num_features = 400;
  opt.world_size = 200.0;  // dense enough for join hits
  opt.with_thematic = true;
  GeoStore store = MakeGeoWorkload(opt);
  common::QueryProfile profile;
  auto pairs = *store.SpatialJoin(
      "http://extremeearth.eu/ontology#Feature",
      "http://extremeearth.eu/ontology#Feature",
      SpatialRelation::kIntersects, true, nullptr, &profile);
  ASSERT_EQ(profile.operators.size(), 2u);
  EXPECT_EQ(profile.operators[0].name, "members_scan");
  EXPECT_EQ(profile.operators[1].name, "index_probe_join");
  EXPECT_EQ(profile.operators[1].rows_out, pairs.size());
}

TEST(GeoStoreProfileTest, SlowQueryLogCapturesRootQueriesOnly) {
  common::SlowQueryLog& log = common::SlowQueryLog::Default();
  log.Configure(2, 0.0);
  log.Clear();
  GeoWorkloadOptions opt;
  opt.num_features = 2000;
  opt.world_size = 1000.0;
  opt.with_thematic = true;
  GeoStore store = MakeGeoWorkload(opt);
  rdf::Query q;
  q.where.push_back(rdf::TriplePattern{
      rdf::PatternSlot::Var("s"), rdf::PatternSlot::Iri(rdf::vocab::kRdfType),
      rdf::PatternSlot::Iri("http://extremeearth.eu/ontology#Feature")});
  geo::Box box = geo::Box::Of(100, 100, 300, 300);
  ASSERT_TRUE(store.QueryWithSpatialFilter(q, "s", box, true).ok());
  const auto entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  // Only the outermost entry point logs; the nested SpatialSelect stays
  // an operator of the outer profile.
  EXPECT_EQ(entries[0].query, "strabon.QueryWithSpatialFilter");
  log.Disable();
  log.Clear();
}

TEST(GeoStoreProfileTest, SlowQueryLogKeepsWorstQueries) {
  common::SlowQueryLog& log = common::SlowQueryLog::Default();
  log.Configure(2, 0.0);
  log.Clear();
  GeoWorkloadOptions opt;
  opt.num_features = 3000;
  opt.world_size = 1000.0;
  GeoStore store = MakeGeoWorkload(opt);
  for (int i = 0; i < 3; ++i) {
    store.SpatialSelect(geo::Box::Of(0, 0, 800, 800),
                        SpatialRelation::kIntersects, true);
  }
  const auto entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 2u);  // 3 queries, capacity 2: worst survive
  EXPECT_GE(entries[0].total_us, entries[1].total_us);
  EXPECT_EQ(entries[0].query, "strabon.SpatialSelect");
  log.Disable();
  log.Clear();
}

TEST(GeoStoreProfileTest, ProfileTotalAgreesWithLatencyHistogram) {
  GeoWorkloadOptions opt;
  opt.num_features = 3000;
  opt.world_size = 1000.0;
  GeoStore store = MakeGeoWorkload(opt);
  common::Histogram* latency_us =
      common::MetricsRegistry::Default().GetHistogram(
          "strabon.geostore.query_latency_us");
  latency_us->Reset();
  common::QueryProfile profile;
  store.SpatialSelect(geo::Box::Of(0, 0, 600, 600),
                      SpatialRelation::kIntersects, true, nullptr, &profile);
  // The request's span timed the same single query into the latency
  // histogram; its one sample must agree with the profile's total.
  ASSERT_EQ(latency_us->count(), 1u);
  const double span_us = latency_us->sum();
  // The span opens before the profile's clock starts and closes after it
  // stops, so it reads a little longer: generous tolerance.
  EXPECT_NEAR(span_us, profile.total_us,
              0.5 * std::max(span_us, profile.total_us) + 50.0);
}

TEST(WorkloadTest, Deterministic) {
  GeoWorkloadOptions opt;
  opt.num_features = 50;
  GeoStore a = MakeGeoWorkload(opt);
  GeoStore b = MakeGeoWorkload(opt);
  geo::Box box = geo::Box::Of(0, 0, 50000, 50000);
  EXPECT_EQ(*a.SpatialSelect(box, SpatialRelation::kIntersects, true),
            *b.SpatialSelect(box, SpatialRelation::kIntersects, true));
}

}  // namespace
}  // namespace exearth::strabon
