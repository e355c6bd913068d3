// Scalar-vs-SIMD equivalence suite for the geo batch kernels (ctest
// label `simd`). The AVX2 kernels claim *bit-identical* results to the
// scalar loops — these properties drive randomized inputs, every batch
// remainder mod 16, and the adversarial coordinate classes (degenerate /
// zero-area boxes, exactly-touching edges, ±inf, NaN) through both
// tables and demand exact equality, then repeat the check end to end
// through the frozen R-tree, GeoStore queries, and link discovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geo/geometry.h"
#include "geo/rtree.h"
#include "geo/simd.h"
#include "link/spatial_links.h"
#include "strabon/geostore.h"
#include "strabon/workload.h"

namespace {

namespace simd = exearth::geo::simd;
using exearth::common::Rng;
using exearth::geo::Box;
using exearth::geo::Point;

// Restores the process-wide dispatch table on scope exit, so a test that
// pins a variant cannot leak it into later tests.
class VariantGuard {
 public:
  VariantGuard() : saved_(simd::ActiveVariant()) {}
  ~VariantGuard() { simd::SetVariant(saved_); }
  VariantGuard(const VariantGuard&) = delete;
  VariantGuard& operator=(const VariantGuard&) = delete;

 private:
  simd::KernelVariant saved_;
};

std::vector<simd::KernelVariant> AvailableVariants() {
  std::vector<simd::KernelVariant> out = {simd::KernelVariant::kScalar};
  if (simd::VariantAvailable(simd::KernelVariant::kAvx2)) {
    out.push_back(simd::KernelVariant::kAvx2);
  }
  return out;
}

// A coordinate drawn from the adversarial classes: mostly ordinary
// values, with a deliberate tail of exact integers (touching edges),
// ±infinity and NaN.
double AdversarialCoord(Rng* rng) {
  switch (rng->Uniform(12)) {
    case 0:
      return std::numeric_limits<double>::infinity();
    case 1:
      return -std::numeric_limits<double>::infinity();
    case 2:
      return std::numeric_limits<double>::quiet_NaN();
    case 3:
      return 0.0;
    case 4:
      // Small exact integers collide often -> exactly-touching edges.
      return static_cast<double>(rng->UniformInt(-4, 4));
    default:
      return rng->UniformDouble(-100.0, 100.0);
  }
}

// A box over adversarial coords: unsorted on purpose, so inverted
// ("empty", min > max) and zero-area (min == max) boxes both occur.
Box AdversarialBox(Rng* rng) {
  return Box::Of(AdversarialCoord(rng), AdversarialCoord(rng),
                 AdversarialCoord(rng), AdversarialCoord(rng));
}

uint64_t BitsOf(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// --- Envelope kernels -------------------------------------------------------

// Every mask kernel, every available variant, every batch length 0..33
// (covers each remainder mod 16 twice, incl. the empty span): bit i must
// equal the Box predicate the kernel documents.
TEST(SimdEnvelopeTest, MasksMatchBoxPredicatesAtEveryLength) {
  Rng rng(20260808);
  for (size_t len = 0; len <= 33; ++len) {
    for (int round = 0; round < 64; ++round) {
      const Box query = AdversarialBox(&rng);
      simd::EnvelopeColumns cols;
      for (size_t i = 0; i < len; ++i) cols.PushBack(AdversarialBox(&rng));
      const simd::EnvelopeSpan span = cols.Span();
      for (simd::KernelVariant v : AvailableVariants()) {
        const simd::KernelTable& kern = simd::TableFor(v);
        const uint64_t inter = kern.envelope_intersects(query, span);
        const uint64_t q_contains = kern.query_contains_envelope(query, span);
        const uint64_t e_contains = kern.envelope_contains_query(query, span);
        for (size_t i = 0; i < len; ++i) {
          const Box env = cols.At(i);
          EXPECT_EQ((inter >> i) & 1, query.Intersects(env) ? 1u : 0u)
              << kern.name << " intersects, len=" << len << " i=" << i;
          EXPECT_EQ((q_contains >> i) & 1, query.Contains(env) ? 1u : 0u)
              << kern.name << " query_contains, len=" << len << " i=" << i;
          EXPECT_EQ((e_contains >> i) & 1, env.Contains(query) ? 1u : 0u)
              << kern.name << " env_contains, len=" << len << " i=" << i;
        }
        // Bits past the span length must stay zero (callers OR masks).
        if (len < 64) {
          EXPECT_EQ(inter >> len, 0u) << kern.name;
          EXPECT_EQ(q_contains >> len, 0u) << kern.name;
          EXPECT_EQ(e_contains >> len, 0u) << kern.name;
        }
      }
    }
  }
}

// --- Point-in-ring ----------------------------------------------------------

TEST(SimdPointInRingTest, VariantsAgreeOnRandomRingsAndAdversarialPoints) {
  if (AvailableVariants().size() < 2) {
    GTEST_SKIP() << "only the scalar kernels are available here";
  }
  const simd::KernelTable& scalar =
      simd::TableFor(simd::KernelVariant::kScalar);
  const simd::KernelTable& avx2 = simd::TableFor(simd::KernelVariant::kAvx2);
  Rng rng(99173);
  // Ring sizes cover the degenerate (<3 vertices -> always false) cases
  // and every vector-loop remainder.
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 12u, 13u, 16u,
                   17u, 31u, 64u, 65u}) {
    for (int round = 0; round < 48; ++round) {
      std::vector<Point> pts;
      pts.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        pts.push_back({AdversarialCoord(&rng), AdversarialCoord(&rng)});
      }
      std::vector<Point> probes;
      probes.push_back({AdversarialCoord(&rng), AdversarialCoord(&rng)});
      if (n > 0) {
        probes.push_back(pts[rng.Uniform(n)]);  // exactly on a vertex
        const Point& a = pts[rng.Uniform(n)];
        const Point& b = pts[rng.Uniform(n)];
        probes.push_back({(a.x + b.x) / 2, (a.y + b.y) / 2});  // near an edge
      }
      for (const Point& p : probes) {
        EXPECT_EQ(scalar.point_in_ring(pts.data(), n, p),
                  avx2.point_in_ring(pts.data(), n, p))
            << "n=" << n << " p=(" << p.x << "," << p.y << ")";
      }
    }
  }
}

TEST(SimdPointInRingTest, MatchesRingContainsOnWellFormedPolygons) {
  Rng rng(5511);
  for (int round = 0; round < 64; ++round) {
    const int verts = 3 + static_cast<int>(rng.Uniform(30));
    exearth::geo::Polygon poly = exearth::strabon::RandomPolygon(
        rng.UniformDouble(0, 100), rng.UniformDouble(0, 100),
        rng.UniformDouble(1, 40), verts, &rng);
    const auto& pts = poly.outer.points;
    for (int k = 0; k < 16; ++k) {
      const Point p{rng.UniformDouble(-20, 120), rng.UniformDouble(-20, 120)};
      const bool expected = poly.outer.Contains(p);
      for (simd::KernelVariant v : AvailableVariants()) {
        EXPECT_EQ(simd::TableFor(v).point_in_ring(pts.data(), pts.size(), p),
                  expected)
            << simd::TableFor(v).name;
      }
    }
  }
}

// --- Point-to-edges distance ------------------------------------------------

TEST(SimdPointEdgesDistanceTest, VariantsAgreeBitForBit) {
  const simd::KernelTable& scalar =
      simd::TableFor(simd::KernelVariant::kScalar);
  Rng rng(260808);
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 33u}) {
    for (int round = 0; round < 64; ++round) {
      std::vector<Point> pts;
      pts.reserve(n);
      // Mostly finite coords (so distances are meaningful), with a few
      // degenerate zero-length edges via duplicated vertices.
      for (size_t i = 0; i < n; ++i) {
        if (i > 0 && rng.Uniform(8) == 0) {
          pts.push_back(pts.back());
        } else {
          pts.push_back({rng.UniformDouble(-50, 50),
                         rng.UniformDouble(-50, 50)});
        }
      }
      const Point p{rng.UniformDouble(-60, 60), rng.UniformDouble(-60, 60)};
      for (bool closed : {false, true}) {
        const double want =
            scalar.point_edges_distance(p, pts.data(), n, closed);
        for (simd::KernelVariant v : AvailableVariants()) {
          const double got =
              simd::TableFor(v).point_edges_distance(p, pts.data(), n, closed);
          EXPECT_EQ(BitsOf(got), BitsOf(want))
              << simd::TableFor(v).name << " n=" << n << " closed=" << closed
              << " got=" << got << " want=" << want;
        }
      }
    }
  }
}

// --- Frozen R-tree batched pruning ------------------------------------------

TEST(SimdRTreeTest, FrozenBatchedTraversalMatchesBruteForce) {
  VariantGuard guard;
  Rng rng(424242);
  for (int round = 0; round < 8; ++round) {
    const size_t n = 1 + rng.Uniform(400);
    std::vector<exearth::geo::RTree::Entry> entries;
    entries.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const double x = rng.UniformDouble(0, 1000);
      const double y = rng.UniformDouble(0, 1000);
      entries.push_back({Box::Of(x, y, x + rng.UniformDouble(0, 30),
                                 y + rng.UniformDouble(0, 30)),
                         static_cast<int64_t>(i)});
    }
    const exearth::geo::RTree tree = exearth::geo::RTree::BulkLoad(entries);
    for (int q = 0; q < 32; ++q) {
      const double x = rng.UniformDouble(0, 1000);
      const double y = rng.UniformDouble(0, 1000);
      const Box query = Box::Of(x, y, x + rng.UniformDouble(0, 120),
                                y + rng.UniformDouble(0, 120));
      // Unbatched baseline: one Box::Intersects per input entry.
      std::vector<int64_t> baseline;
      for (const auto& e : entries) {
        if (e.box.Intersects(query)) baseline.push_back(e.id);
      }
      for (simd::KernelVariant v : AvailableVariants()) {
        ASSERT_TRUE(simd::SetVariant(v));
        std::vector<int64_t> ids;
        tree.VisitWith(query, [&](int64_t id) {
          ids.push_back(id);
          return true;
        });
        std::sort(ids.begin(), ids.end());
        EXPECT_EQ(ids, baseline) << "variant=" << simd::ActiveVariantName();
      }
    }
  }
}

// The frozen traversal consumes the prune mask in ascending-child order,
// so visit order, early exit, and node accounting are variant-invariant.
TEST(SimdRTreeTest, VisitOrderAndStatsAreVariantInvariant) {
  if (AvailableVariants().size() < 2) {
    GTEST_SKIP() << "only the scalar kernels are available here";
  }
  VariantGuard guard;
  Rng rng(777);
  std::vector<exearth::geo::RTree::Entry> entries;
  for (size_t i = 0; i < 500; ++i) {
    const double x = rng.UniformDouble(0, 1000);
    const double y = rng.UniformDouble(0, 1000);
    entries.push_back({Box::Of(x, y, x + 20, y + 20),
                       static_cast<int64_t>(i)});
  }
  exearth::geo::RTree tree = exearth::geo::RTree::BulkLoad(std::move(entries));
  const Box query = Box::Of(200, 200, 600, 600);
  auto run = [&](simd::KernelVariant v, size_t stop_after) {
    EXPECT_TRUE(simd::SetVariant(v));
    std::vector<int64_t> order;
    exearth::geo::RTree::TraversalStats stats;
    tree.VisitWith(
        query,
        [&](int64_t id) {
          order.push_back(id);
          return order.size() < stop_after;  // exercise early exit too
        },
        &stats);
    return std::make_pair(order, stats.nodes_visited);
  };
  for (size_t stop_after : {size_t{3}, size_t{1000000}}) {
    const auto scalar = run(simd::KernelVariant::kScalar, stop_after);
    const auto avx2 = run(simd::KernelVariant::kAvx2, stop_after);
    EXPECT_EQ(scalar.first, avx2.first) << "stop_after=" << stop_after;
    EXPECT_EQ(scalar.second, avx2.second) << "stop_after=" << stop_after;
  }
}

// VisitLeavesWith is the batch-consumer face of the same traversal: set
// bits consumed ascending must reproduce VisitWith's per-entry stream and
// node accounting, the mask must agree with per-entry Box::Intersects,
// and first/count must address the matching entry_envelopes() slice.
TEST(SimdRTreeTest, LeafTraversalMatchesEntryTraversal) {
  VariantGuard guard;
  Rng rng(9191);
  for (int round = 0; round < 6; ++round) {
    const size_t n = 1 + rng.Uniform(600);
    std::vector<exearth::geo::RTree::Entry> entries;
    entries.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const double x = rng.UniformDouble(0, 1000);
      const double y = rng.UniformDouble(0, 1000);
      entries.push_back({Box::Of(x, y, x + rng.UniformDouble(0, 40),
                                 y + rng.UniformDouble(0, 40)),
                         static_cast<int64_t>(i)});
    }
    exearth::geo::RTree tree =
        exearth::geo::RTree::BulkLoad(std::move(entries));
    const simd::EnvelopeColumns& env = tree.entry_envelopes();
    for (int q = 0; q < 24; ++q) {
      const double x = rng.UniformDouble(0, 1000);
      const double y = rng.UniformDouble(0, 1000);
      const Box query = Box::Of(x, y, x + rng.UniformDouble(0, 150),
                                y + rng.UniformDouble(0, 150));
      for (simd::KernelVariant v : AvailableVariants()) {
        ASSERT_TRUE(simd::SetVariant(v));
        std::vector<int64_t> flat_ids;
        exearth::geo::RTree::TraversalStats flat_stats;
        tree.VisitWith(
            query,
            [&](int64_t id) {
              flat_ids.push_back(id);
              return true;
            },
            &flat_stats);
        std::vector<int64_t> leaf_ids;
        exearth::geo::RTree::TraversalStats leaf_stats;
        tree.VisitLeavesWith(
            query,
            [&](const int64_t* ids, uint32_t first, uint16_t count,
                uint64_t hits) {
              EXPECT_EQ(hits >> count, 0u);
              for (uint16_t i = 0; i < count; ++i) {
                const Box slot = env.At(first + i);
                EXPECT_EQ(((hits >> i) & 1) != 0, slot.Intersects(query))
                    << "variant=" << simd::ActiveVariantName();
                if (((hits >> i) & 1) != 0) leaf_ids.push_back(ids[i]);
              }
              return true;
            },
            &leaf_stats);
        EXPECT_EQ(leaf_ids, flat_ids)
            << "variant=" << simd::ActiveVariantName();
        EXPECT_EQ(leaf_stats.nodes_visited, flat_stats.nodes_visited);
      }
    }
  }
}

// --- End-to-end: GeoStore and link discovery --------------------------------

TEST(SimdGeoStoreTest, SelectResultsAndStatsAreVariantInvariant) {
  if (AvailableVariants().size() < 2) {
    GTEST_SKIP() << "only the scalar kernels are available here";
  }
  VariantGuard guard;
  exearth::strabon::GeoWorkloadOptions opt;
  opt.num_features = 3000;
  opt.kind = exearth::strabon::GeoWorkloadOptions::GeometryKind::kMultiPolygon;
  opt.vertices_per_ring = 12;
  opt.world_size = 2000.0;
  opt.feature_size = 60.0;
  opt.with_thematic = false;
  opt.seed = 61;
  exearth::strabon::GeoStore store = exearth::strabon::MakeGeoWorkload(opt);
  Rng rng(31337);
  using exearth::strabon::SpatialRelation;
  for (int q = 0; q < 24; ++q) {
    const Box box =
        exearth::strabon::RandomSelectionBox(2000.0, 0.01, &rng);
    const auto relation = static_cast<SpatialRelation>(q % 3);
    for (bool use_index : {true, false}) {
      std::vector<std::vector<uint64_t>> results;
      std::vector<exearth::strabon::SpatialQueryStats> stats;
      for (simd::KernelVariant v : AvailableVariants()) {
        ASSERT_TRUE(simd::SetVariant(v));
        exearth::strabon::SpatialQueryStats s;
        results.push_back(*store.SpatialSelect(box, relation, use_index, &s));
        stats.push_back(s);
      }
      EXPECT_EQ(results[0], results[1])
          << "relation=" << q % 3 << " use_index=" << use_index;
      EXPECT_EQ(stats[0].candidates, stats[1].candidates);
      EXPECT_EQ(stats[0].geometry_tests, stats[1].geometry_tests);
      EXPECT_EQ(stats[0].envelope_hits, stats[1].envelope_hits);
      EXPECT_EQ(stats[0].nodes_visited, stats[1].nodes_visited);
      EXPECT_EQ(stats[0].results, stats[1].results);
    }
  }
}

TEST(SimdGeoStoreTest, JoinResultsAndStatsAreVariantInvariant) {
  if (AvailableVariants().size() < 2) {
    GTEST_SKIP() << "only the scalar kernels are available here";
  }
  VariantGuard guard;
  exearth::strabon::GeoWorkloadOptions opt;
  opt.num_features = 400;
  opt.kind = exearth::strabon::GeoWorkloadOptions::GeometryKind::kMultiPolygon;
  opt.vertices_per_ring = 8;
  opt.world_size = 500.0;
  opt.feature_size = 40.0;
  opt.with_thematic = true;
  opt.seed = 73;
  exearth::strabon::GeoStore store = exearth::strabon::MakeGeoWorkload(opt);
  const std::string cls = "http://extremeearth.eu/ontology#Feature";
  using exearth::strabon::SpatialRelation;
  for (auto relation : {SpatialRelation::kIntersects,
                        SpatialRelation::kContains, SpatialRelation::kWithin}) {
    for (bool use_index : {true, false}) {
      std::vector<std::vector<std::pair<uint64_t, uint64_t>>> results;
      std::vector<exearth::strabon::SpatialQueryStats> stats;
      for (simd::KernelVariant v : AvailableVariants()) {
        ASSERT_TRUE(simd::SetVariant(v));
        exearth::strabon::SpatialQueryStats s;
        results.push_back(*store.SpatialJoin(cls, cls, relation, use_index, &s));
        stats.push_back(s);
      }
      EXPECT_EQ(results[0], results[1]) << "use_index=" << use_index;
      EXPECT_EQ(stats[0].candidates, stats[1].candidates);
      EXPECT_EQ(stats[0].geometry_tests, stats[1].geometry_tests);
      EXPECT_EQ(stats[0].envelope_hits, stats[1].envelope_hits);
      EXPECT_EQ(stats[0].results, stats[1].results);
    }
  }
}

TEST(SimdLinkTest, DiscoveryIsVariantInvariantAndMatchesNestedLoop) {
  VariantGuard guard;
  Rng rng(17);
  auto make_set = [&](uint64_t seed, int n) {
    Rng local(seed);
    std::vector<exearth::geo::Geometry> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(exearth::geo::Geometry(exearth::strabon::RandomPolygon(
          local.UniformDouble(0, 600), local.UniformDouble(0, 600), 50.0, 8,
          &local)));
    }
    return out;
  };
  const auto a = make_set(1, 120);
  const auto b = make_set(2, 120);
  using exearth::link::SpatialLinkRelation;
  for (auto relation : {SpatialLinkRelation::kIntersects,
                        SpatialLinkRelation::kContains,
                        SpatialLinkRelation::kWithinDistance}) {
    exearth::link::SpatialLinkOptions opt;
    opt.relation = relation;
    opt.distance = 40.0;
    opt.use_index = false;
    const auto nested = exearth::link::DiscoverSpatialLinks(a, b, opt);
    opt.use_index = true;
    std::vector<exearth::link::SpatialLinkResult> indexed;
    for (simd::KernelVariant v : AvailableVariants()) {
      ASSERT_TRUE(simd::SetVariant(v));
      indexed.push_back(exearth::link::DiscoverSpatialLinks(a, b, opt));
    }
    for (const auto& r : indexed) {
      EXPECT_EQ(r.links, nested.links);
      EXPECT_EQ(r.candidate_pairs, indexed[0].candidate_pairs);
      EXPECT_EQ(r.exact_tests, indexed[0].exact_tests);
      EXPECT_EQ(r.envelope_rejects, indexed[0].envelope_rejects);
    }
  }
}

}  // namespace
