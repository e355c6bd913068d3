// Property-based test sweeps (parameterized gtest): cross-cutting
// invariants checked over randomized inputs at multiple scales/seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <tuple>

#include "common/fault.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "dfs/hopsfs.h"
#include "fed/federation.h"
#include "geo/geometry.h"
#include "geo/rtree.h"
#include "geo/wkt.h"
#include "kv/kvstore.h"
#include "link/entity_resolution.h"
#include "raster/dataset.h"
#include "rdf/triple_store.h"
#include "strabon/workload.h"

namespace exearth {
namespace {

// --- Geometry predicate invariants -----------------------------------------

// Generates a random geometry of any type.
geo::Geometry RandomGeometry(common::Rng* rng) {
  const double world = 100.0;
  switch (rng->Uniform(4)) {
    case 0:
      return geo::Geometry(geo::Point{rng->UniformDouble(0, world),
                                      rng->UniformDouble(0, world)});
    case 1: {
      geo::LineString ls;
      int n = static_cast<int>(rng->UniformInt(2, 6));
      for (int i = 0; i < n; ++i) {
        ls.points.push_back(geo::Point{rng->UniformDouble(0, world),
                                       rng->UniformDouble(0, world)});
      }
      return geo::Geometry(std::move(ls));
    }
    case 2: {
      return geo::Geometry(strabon::RandomPolygon(
          rng->UniformDouble(0, world), rng->UniformDouble(0, world),
          rng->UniformDouble(5, 30), static_cast<int>(rng->UniformInt(3, 10)),
          rng));
    }
    default: {
      geo::MultiPolygon mp;
      int parts = static_cast<int>(rng->UniformInt(1, 3));
      for (int i = 0; i < parts; ++i) {
        mp.polygons.push_back(strabon::RandomPolygon(
            rng->UniformDouble(0, world), rng->UniformDouble(0, world),
            rng->UniformDouble(5, 20),
            static_cast<int>(rng->UniformInt(3, 8)), rng));
      }
      return geo::Geometry(std::move(mp));
    }
  }
}

class GeometryPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(GeometryPropertyTest, PredicateConsistency) {
  common::Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    geo::Geometry a = RandomGeometry(&rng);
    geo::Geometry b = RandomGeometry(&rng);
    const bool inter = geo::Intersects(a, b);
    // Symmetry.
    EXPECT_EQ(inter, geo::Intersects(b, a));
    // Disjoint is the complement.
    EXPECT_EQ(geo::Disjoint(a, b), !inter);
    // Distance symmetry and compatibility with intersection.
    const double dab = geo::Distance(a, b);
    EXPECT_NEAR(dab, geo::Distance(b, a), 1e-9);
    if (inter) {
      EXPECT_NEAR(dab, 0.0, 1e-9);
    } else {
      EXPECT_GT(dab, 0.0);
    }
    // WithinDistance is monotone in the bound.
    if (geo::WithinDistance(a, b, 1.0)) {
      EXPECT_TRUE(geo::WithinDistance(a, b, 2.0));
    }
    // Contains implies Intersects and Within flips the arguments.
    if (geo::Contains(a, b)) {
      EXPECT_TRUE(inter);
      EXPECT_TRUE(geo::Within(b, a));
    }
    // Envelope containment is necessary for containment.
    if (geo::Contains(a, b)) {
      EXPECT_TRUE(a.Envelope().Contains(b.Envelope()));
    }
    // Everything is contained in (and intersects) itself.
    EXPECT_TRUE(geo::Intersects(a, a));
    // Distance to envelope is a lower bound on geometry distance.
    EXPECT_LE(a.Envelope().Distance(b.Envelope()), dab + 1e-9);
  }
}

TEST_P(GeometryPropertyTest, WktRoundTripPreservesShape) {
  common::Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 40; ++trial) {
    geo::Geometry g = RandomGeometry(&rng);
    auto parsed = geo::ParseWkt(geo::ToWkt(g));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->type(), g.type());
    EXPECT_EQ(parsed->NumVertices(), g.NumVertices());
    // 6-decimal serialization keeps area within a small tolerance.
    EXPECT_NEAR(parsed->Area(), g.Area(), 1e-3 * std::max(1.0, g.Area()));
    geo::Box e1 = g.Envelope();
    geo::Box e2 = parsed->Envelope();
    EXPECT_NEAR(e1.min_x, e2.min_x, 1e-5);
    EXPECT_NEAR(e1.max_y, e2.max_y, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeometryPropertyTest,
                         testing::Values(1, 2, 3, 4, 5));

// --- R-tree: bulk load agrees with brute force ------------------------------

class RTreePropertyTest
    : public testing::TestWithParam<std::tuple<int, uint64_t>> {};

// The entries inserted into BulkLoad are exactly the ones a query finds:
// every answer equals a scan over the input.
TEST_P(RTreePropertyTest, InsertAndBulkLoadAgree) {
  auto [n, seed] = GetParam();
  common::Rng rng(seed);
  std::vector<geo::RTree::Entry> entries;
  for (int i = 0; i < n; ++i) {
    double x = rng.UniformDouble(0, 1000);
    double y = rng.UniformDouble(0, 1000);
    double w = rng.UniformDouble(0, 10);
    entries.push_back({geo::Box::Of(x, y, x + w, y + w), i});
  }
  geo::RTree bulk = geo::RTree::BulkLoad(entries);
  EXPECT_EQ(bulk.size(), static_cast<size_t>(n));
  for (int q = 0; q < 25; ++q) {
    double x = rng.UniformDouble(0, 900);
    double y = rng.UniformDouble(0, 900);
    geo::Box query = geo::Box::Of(x, y, x + 80, y + 80);
    auto got = bulk.Query(query);
    std::sort(got.begin(), got.end());
    std::vector<int64_t> expected;
    for (const auto& e : entries) {
      if (e.box.Intersects(query)) expected.push_back(e.id);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RTreePropertyTest,
    testing::Combine(testing::Values(10, 100, 1000, 5000),
                     testing::Values(uint64_t{7}, uint64_t{8})));

// --- KV store: linearizable counter under varying partitions ----------------

class KvPropertyTest : public testing::TestWithParam<int> {};

TEST_P(KvPropertyTest, ReadModifyWriteNeverLosesUpdates) {
  const int partitions = GetParam();
  kv::KvStore store(partitions);
  ASSERT_TRUE(store.Put("c", "0").ok());
  constexpr int kThreads = 3;
  constexpr int kIncrements = 120;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store] {
      for (int i = 0; i < kIncrements; ++i) {
        while (true) {
          auto txn = store.Begin();
          auto v = txn->Get("c");
          if (!v.ok()) {
            txn->Abort();
            continue;
          }
          int64_t n = 0;
          ASSERT_TRUE(common::ParseInt64(*v, &n));
          if (!txn->Put("c", std::to_string(n + 1)).ok()) {
            txn->Abort();
            continue;
          }
          if (txn->Commit().ok()) break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(*store.Get("c"), std::to_string(kThreads * kIncrements));
}

TEST_P(KvPropertyTest, ScanPrefixSeesAllCommitted) {
  const int partitions = GetParam();
  kv::KvStore store(partitions);
  std::set<std::string> expected;
  common::Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    std::string key = common::StrFormat("scan/%03d", i);
    ASSERT_TRUE(store.Put(key, "v").ok());
    expected.insert(key);
  }
  auto rows = store.ScanPrefix("scan/");
  ASSERT_EQ(rows.size(), expected.size());
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  for (const auto& [k, v] : rows) EXPECT_TRUE(expected.count(k));
}

INSTANTIATE_TEST_SUITE_P(Partitions, KvPropertyTest,
                         testing::Values(1, 2, 8, 32));

// --- TripleStore: Count == Match.size() over random patterns ----------------

class TripleStorePropertyTest : public testing::TestWithParam<int> {};

TEST_P(TripleStorePropertyTest, CountMatchesMaterialization) {
  const int n = GetParam();
  rdf::TripleStore store;
  common::Rng rng(n);
  const int subjects = std::max(2, n / 10);
  const int predicates = 5;
  const int objects = std::max(2, n / 20);
  for (int i = 0; i < n; ++i) {
    store.Add(
        rdf::Term::Iri(common::StrFormat(
            "s%llu", (unsigned long long)rng.Uniform(subjects))),
        rdf::Term::Iri(common::StrFormat(
            "p%llu", (unsigned long long)rng.Uniform(predicates))),
        rdf::Term::Iri(common::StrFormat(
            "o%llu", (unsigned long long)rng.Uniform(objects))));
  }
  store.Build();
  // All eight bound/unbound combinations on random constants.
  for (int trial = 0; trial < 40; ++trial) {
    rdf::IdPattern q;
    if (rng.Bernoulli(0.5)) {
      auto id = store.dict().Lookup(rdf::Term::Iri(common::StrFormat(
          "s%llu", (unsigned long long)rng.Uniform(subjects))));
      if (id) q.s = *id;
    }
    if (rng.Bernoulli(0.5)) {
      auto id = store.dict().Lookup(rdf::Term::Iri(common::StrFormat(
          "p%llu", (unsigned long long)rng.Uniform(predicates))));
      if (id) q.p = *id;
    }
    if (rng.Bernoulli(0.5)) {
      auto id = store.dict().Lookup(rdf::Term::Iri(common::StrFormat(
          "o%llu", (unsigned long long)rng.Uniform(objects))));
      if (id) q.o = *id;
    }
    auto matches = store.Match(q);
    EXPECT_EQ(store.Count(q), matches.size());
    // Every match satisfies the pattern.
    for (const auto& t : matches) {
      if (q.s) EXPECT_EQ(t.s, *q.s);
      if (q.p) EXPECT_EQ(t.p, *q.p);
      if (q.o) EXPECT_EQ(t.o, *q.o);
    }
  }
  // Predicate stats sum to the store size.
  uint64_t sum = 0;
  for (auto& [p, c] : store.PredicateStats()) sum += c;
  EXPECT_EQ(sum, store.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, TripleStorePropertyTest,
                         testing::Values(50, 500, 5000));

// --- Meta-blocking: candidates are always a subset of token blocking --------

class BlockingPropertyTest
    : public testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BlockingPropertyTest, PruningOnlyRemovesCandidates) {
  auto [records, noise] = GetParam();
  link::ErWorkloadOptions opt;
  opt.num_records = records;
  opt.noise = noise;
  opt.seed = 5;
  link::ErDataset ds = link::MakeDirtyErDataset(opt);
  auto match = link::JaccardMatcher(0.45);
  link::BlockingOptions bopt;
  auto token = link::ResolveWithTokenBlocking(ds.entities, match, bopt);
  auto meta = link::ResolveWithMetaBlocking(ds.entities, match, bopt);
  EXPECT_LE(meta.candidate_pairs, token.candidate_pairs);
  // Meta-blocking's matches are a subset of token blocking's.
  std::set<std::pair<int64_t, int64_t>> token_set(token.matches.begin(),
                                                  token.matches.end());
  for (const auto& pair : meta.matches) {
    EXPECT_TRUE(token_set.count(pair));
  }
  // Both stay well below the quadratic comparison count.
  const uint64_t n = ds.entities.size();
  EXPECT_LT(token.comparisons, n * (n - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, BlockingPropertyTest,
    testing::Combine(testing::Values(200, 600),
                     testing::Values(0.1, 0.25)));

// --- Dataset invariants -------------------------------------------------

class DatasetPropertyTest : public testing::TestWithParam<int> {};

TEST_P(DatasetPropertyTest, SplitPreservesSamples) {
  raster::EurosatOptions opt;
  opt.num_samples = GetParam();
  opt.patch_size = 2;
  raster::Dataset ds = raster::MakeEurosatLike(opt, 3);
  common::Rng rng(4);
  ds.Shuffle(&rng);
  auto [train, test] = ds.Split(0.7);
  EXPECT_EQ(train.size() + test.size(), ds.size());
  auto h = ds.LabelHistogram();
  auto ht = train.LabelHistogram();
  auto hv = test.LabelHistogram();
  for (size_t c = 0; c < h.size(); ++c) {
    EXPECT_EQ(h[c], ht[c] + hv[c]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DatasetPropertyTest,
                         testing::Values(10, 100, 1000));

// --- Fault-schedule invariants (ctest label: faults) ------------------------

// Guard: the process-wide injector must not leak rules between tests.
class FaultScheduleTest
    : public testing::TestWithParam<std::tuple<int, uint64_t>> {
 protected:
  void SetUp() override { common::FaultInjector::Default().Reset(); }
  void TearDown() override { common::FaultInjector::Default().Reset(); }
};

// A randomized concurrent HopsFS workload under injected commit
// conflicts: whatever mix of successes and exhausted-retry failures the
// schedule produces, no create may be lost (reported OK but absent) or
// duplicated (reported failed but present / listed twice).
TEST_P(FaultScheduleTest, HopsFsWorkloadLosesNoOperations) {
  const auto [threads, seed] = GetParam();
  auto& inj = common::FaultInjector::Default();
  inj.set_seed(seed);
  ASSERT_TRUE(inj.ProgramSpec("dfs.txn.commit:0.2=aborted").ok());

  dfs::HopsFsCluster::Options opt;
  opt.max_txn_retries = 4;
  opt.retry_initial_backoff_us = 1;
  opt.retry_max_backoff_us = 8;
  opt.retry_seed = seed;
  dfs::HopsFsCluster cluster(opt);
  dfs::HopsFsNameNode nn(&cluster);
  ASSERT_TRUE(nn.Mkdir("/d").ok());

  const int files_per_thread = 40;
  std::vector<std::vector<bool>> created(
      static_cast<size_t>(threads),
      std::vector<bool>(files_per_thread, false));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      common::Rng rng(seed * 1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < files_per_thread; ++i) {
        const std::string path = common::StrFormat("/d/t%d_f%d", t, i);
        const auto size = rng.UniformInt(1, 64);
        const common::Status s =
            nn.Create(path, static_cast<uint64_t>(size),
                      std::string(static_cast<size_t>(size), 'x'));
        if (s.ok()) {
          created[static_cast<size_t>(t)][static_cast<size_t>(i)] = true;
        } else {
          EXPECT_TRUE(s.IsAborted()) << path << ": " << s;
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const uint64_t retries_seen = cluster.txn_retries();
  inj.Reset();  // verification reads must not be fault-injected

  auto listed = nn.List("/d");
  ASSERT_TRUE(listed.ok());
  const std::set<std::string> names(listed->begin(), listed->end());
  EXPECT_EQ(names.size(), listed->size());  // no duplicates
  size_t expected = 0;
  for (int t = 0; t < threads; ++t) {
    for (int i = 0; i < files_per_thread; ++i) {
      const std::string name = common::StrFormat("t%d_f%d", t, i);
      if (created[static_cast<size_t>(t)][static_cast<size_t>(i)]) {
        ++expected;
        EXPECT_TRUE(names.count(name)) << "lost: " << name;
        EXPECT_TRUE(nn.GetFileInfo("/d/" + name).ok());
      } else {
        EXPECT_FALSE(names.count(name)) << "ghost: " << name;
      }
    }
  }
  EXPECT_EQ(names.size(), expected);
  // With a 20% conflict rate over ~hundreds of commits the schedule
  // certainly retried somewhere (deterministic per seed).
  EXPECT_GT(retries_seen, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FaultScheduleTest,
    testing::Combine(testing::Values(1, 4),
                     testing::Values(uint64_t{7}, uint64_t{23})));

// Parallel and serial federation execution see the same per-endpoint
// fault schedule (decisions are a pure function of seed, point name and
// per-point call number), so they must return identical rows and stats.
class FederationFaultEquivalenceTest
    : public testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { common::FaultInjector::Default().Reset(); }
  void TearDown() override { common::FaultInjector::Default().Reset(); }
};

TEST_P(FederationFaultEquivalenceTest, ParallelMatchesSerialUnderFaults) {
  const uint64_t seed = GetParam();
  common::Rng rng(seed);
  std::vector<std::unique_ptr<fed::Endpoint>> endpoints;
  fed::FederationEngine engine;
  // A handful of endpoints sharing one predicate so a broadcast query
  // fans out to all of them.
  const int num_endpoints = 5;
  for (int e = 0; e < num_endpoints; ++e) {
    rdf::TripleStore store;
    const int rows = static_cast<int>(rng.UniformInt(5, 40));
    for (int i = 0; i < rows; ++i) {
      store.Add(rdf::Term::Iri(common::StrFormat("http://x/e%d/%d", e, i)),
                rdf::Term::Iri(rdf::vocab::kLabel),
                rdf::Term::Literal(common::StrFormat("label %d/%d", e, i)));
    }
    endpoints.push_back(std::make_unique<fed::Endpoint>(
        common::StrFormat("ep%d", e), std::move(store)));
    engine.Register(endpoints.back().get());
  }
  rdf::Query q;
  q.where.push_back(rdf::TriplePattern{rdf::PatternSlot::Var("s"),
                                       rdf::PatternSlot::Iri(rdf::vocab::kLabel),
                                       rdf::PatternSlot::Var("label")});
  fed::FederationOptions opt;
  opt.source_selection = false;  // broadcast
  opt.partial_ok = true;
  opt.retry.max_attempts = 3;
  opt.retry.initial_backoff_us = 1;
  opt.retry.max_backoff_us = 8;
  opt.retry_seed = seed;

  auto run = [&](size_t threads) {
    auto& inj = common::FaultInjector::Default();
    inj.Reset();
    inj.set_seed(seed);
    EXPECT_TRUE(inj.ProgramSpec("fed.endpoint.call:0.35").ok());
    engine.set_num_threads(threads);
    fed::FederationStats stats;
    auto rows = engine.Execute(q, opt, {}, nullptr, &stats);
    EXPECT_TRUE(rows.ok()) << rows.status();
    // Serialize rows so result sets compare order-independently (Term
    // has no operator<).
    std::vector<std::string> sorted;
    for (const auto& row : *rows) {
      std::string line;
      for (const auto& [var, term] : row) {
        line += var + "=" + term.ToString() + ";";
      }
      sorted.push_back(std::move(line));
    }
    std::sort(sorted.begin(), sorted.end());
    return std::make_pair(std::move(sorted), stats);
  };
  const auto [serial_rows, serial_stats] = run(1);
  const auto [parallel_rows, parallel_stats] = run(4);
  EXPECT_EQ(serial_rows, parallel_rows);
  EXPECT_EQ(serial_stats.endpoint_failures, parallel_stats.endpoint_failures);
  EXPECT_EQ(serial_stats.retries, parallel_stats.retries);
  EXPECT_EQ(serial_stats.endpoints_skipped, parallel_stats.endpoints_skipped);
  EXPECT_EQ(serial_stats.degraded_sources, parallel_stats.degraded_sources);
  EXPECT_EQ(serial_stats.partial, parallel_stats.partial);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FederationFaultEquivalenceTest,
                         testing::Values(uint64_t{1}, uint64_t{13},
                                         uint64_t{99}));

}  // namespace
}  // namespace exearth
