#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "geo/geometry.h"
#include "geo/rtree.h"
#include "geo/wkt.h"
#include "storage/buffer_pool.h"
#include "storage/page_chain.h"
#include "storage/storage_manager.h"

namespace exearth::geo {
namespace {

Polygon MakeSquare(double x0, double y0, double size) {
  Polygon p;
  p.outer.points = {Point{x0, y0}, Point{x0 + size, y0},
                    Point{x0 + size, y0 + size}, Point{x0, y0 + size}};
  return p;
}

// --- Box -----------------------------------------------------------------

TEST(BoxTest, EmptyByDefault) {
  Box b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.Area(), 0.0);
}

TEST(BoxTest, ExpandToInclude) {
  Box b;
  b.ExpandToInclude(Point{1, 2});
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.Area(), 0.0);
  b.ExpandToInclude(Point{3, 5});
  EXPECT_DOUBLE_EQ(b.Area(), 2.0 * 3.0);
}

TEST(BoxTest, ContainsAndIntersects) {
  Box a = Box::Of(0, 0, 10, 10);
  Box b = Box::Of(2, 2, 4, 4);
  Box c = Box::Of(9, 9, 12, 12);
  Box d = Box::Of(11, 11, 12, 12);
  EXPECT_TRUE(a.Contains(b));
  EXPECT_FALSE(b.Contains(a));
  EXPECT_TRUE(a.Intersects(c));
  EXPECT_FALSE(a.Intersects(d));
  EXPECT_TRUE(a.Contains(Point{10, 10}));  // boundary inclusive
  EXPECT_FALSE(a.Contains(Point{10.001, 10}));
}

TEST(BoxTest, TouchingBoxesIntersect) {
  Box a = Box::Of(0, 0, 1, 1);
  Box b = Box::Of(1, 0, 2, 1);
  EXPECT_TRUE(a.Intersects(b));
}

TEST(BoxTest, Distance) {
  Box a = Box::Of(0, 0, 1, 1);
  EXPECT_DOUBLE_EQ(a.Distance(Point{0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(a.Distance(Point{3, 1}), 2.0);
  EXPECT_DOUBLE_EQ(a.Distance(Box::Of(4, 1, 5, 2)), 3.0);
  EXPECT_DOUBLE_EQ(a.Distance(Box::Of(4, 5, 6, 7)), 5.0);  // 3-4-5 triangle
  EXPECT_DOUBLE_EQ(a.Distance(Box::Of(0.5, 0.5, 2, 2)), 0.0);
}

TEST(BoxTest, EnlargementToInclude) {
  Box a = Box::Of(0, 0, 2, 2);
  EXPECT_DOUBLE_EQ(a.EnlargementToInclude(Box::Of(0, 0, 1, 1)), 0.0);
  EXPECT_DOUBLE_EQ(a.EnlargementToInclude(Box::Of(0, 0, 4, 2)), 4.0);
}

TEST(BoxTest, Buffered) {
  Box a = Box::Of(1, 1, 2, 2).Buffered(0.5);
  EXPECT_DOUBLE_EQ(a.min_x, 0.5);
  EXPECT_DOUBLE_EQ(a.max_y, 2.5);
}

// --- Ring / Polygon --------------------------------------------------------

TEST(RingTest, SignedArea) {
  Ring ccw;
  ccw.points = {Point{0, 0}, Point{2, 0}, Point{2, 2}, Point{0, 2}};
  EXPECT_DOUBLE_EQ(ccw.SignedArea(), 4.0);
  Ring cw;
  cw.points = {Point{0, 0}, Point{0, 2}, Point{2, 2}, Point{2, 0}};
  EXPECT_DOUBLE_EQ(cw.SignedArea(), -4.0);
  EXPECT_DOUBLE_EQ(cw.Area(), 4.0);
}

TEST(RingTest, ContainsInteriorBoundaryExterior) {
  Ring r;
  r.points = {Point{0, 0}, Point{4, 0}, Point{4, 4}, Point{0, 4}};
  EXPECT_TRUE(r.Contains(Point{2, 2}));
  EXPECT_TRUE(r.Contains(Point{0, 2}));   // on edge
  EXPECT_TRUE(r.Contains(Point{4, 4}));   // on vertex
  EXPECT_FALSE(r.Contains(Point{5, 2}));
  EXPECT_FALSE(r.Contains(Point{-0.001, 2}));
}

TEST(RingTest, ContainsConcave) {
  // L-shaped ring.
  Ring r;
  r.points = {Point{0, 0}, Point{4, 0}, Point{4, 2}, Point{2, 2},
              Point{2, 4}, Point{0, 4}};
  EXPECT_TRUE(r.Contains(Point{1, 3}));
  EXPECT_TRUE(r.Contains(Point{3, 1}));
  EXPECT_FALSE(r.Contains(Point{3, 3}));  // in the notch
}

TEST(PolygonTest, AreaWithHole) {
  Polygon p = MakeSquare(0, 0, 10);
  Ring hole;
  hole.points = {Point{2, 2}, Point{4, 2}, Point{4, 4}, Point{2, 4}};
  p.holes.push_back(hole);
  EXPECT_DOUBLE_EQ(p.Area(), 100.0 - 4.0);
  EXPECT_EQ(p.NumVertices(), 8u);
}

TEST(PolygonTest, ContainsRespectsHoles) {
  Polygon p = MakeSquare(0, 0, 10);
  Ring hole;
  hole.points = {Point{2, 2}, Point{4, 2}, Point{4, 4}, Point{2, 4}};
  p.holes.push_back(hole);
  EXPECT_TRUE(p.Contains(Point{1, 1}));
  EXPECT_FALSE(p.Contains(Point{3, 3}));  // inside hole
  EXPECT_TRUE(p.Contains(Point{2, 3}));   // on hole boundary
}

TEST(MultiPolygonTest, AreaAndContains) {
  MultiPolygon mp;
  mp.polygons.push_back(MakeSquare(0, 0, 1));
  mp.polygons.push_back(MakeSquare(10, 10, 2));
  EXPECT_DOUBLE_EQ(mp.Area(), 1.0 + 4.0);
  EXPECT_TRUE(mp.Contains(Point{11, 11}));
  EXPECT_FALSE(mp.Contains(Point{5, 5}));
  EXPECT_EQ(mp.NumVertices(), 8u);
  Box env = mp.Envelope();
  EXPECT_DOUBLE_EQ(env.min_x, 0);
  EXPECT_DOUBLE_EQ(env.max_x, 12);
}

// --- Primitives -------------------------------------------------------------

TEST(PrimitivesTest, PointDistance) {
  EXPECT_DOUBLE_EQ(Distance(Point{0, 0}, Point{3, 4}), 5.0);
}

TEST(PrimitivesTest, PointSegmentDistance) {
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{0, 1}, Point{-1, 0}, Point{1, 0}),
                   1.0);
  // Beyond the endpoint: distance to the endpoint.
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{5, 0}, Point{-1, 0}, Point{1, 0}),
                   4.0);
  // Degenerate segment.
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{3, 4}, Point{0, 0}, Point{0, 0}),
                   5.0);
}

TEST(PrimitivesTest, SegmentsIntersect) {
  EXPECT_TRUE(SegmentsIntersect(Point{0, 0}, Point{2, 2}, Point{0, 2},
                                Point{2, 0}));
  EXPECT_FALSE(SegmentsIntersect(Point{0, 0}, Point{1, 1}, Point{2, 2},
                                 Point{3, 3}));
  // Collinear overlapping.
  EXPECT_TRUE(SegmentsIntersect(Point{0, 0}, Point{2, 0}, Point{1, 0},
                                Point{3, 0}));
  // Touching at an endpoint.
  EXPECT_TRUE(SegmentsIntersect(Point{0, 0}, Point{1, 0}, Point{1, 0},
                                Point{2, 5}));
}

// --- Geometry predicates ----------------------------------------------------

TEST(GeometryPredicates, PointInPolygon) {
  Geometry poly(MakeSquare(0, 0, 4));
  Geometry inside(Point{1, 1});
  Geometry outside(Point{9, 9});
  EXPECT_TRUE(Intersects(poly, inside));
  EXPECT_TRUE(Intersects(inside, poly));  // symmetric
  EXPECT_FALSE(Intersects(poly, outside));
  EXPECT_TRUE(Contains(poly, inside));
  EXPECT_TRUE(Within(inside, poly));
  EXPECT_TRUE(Disjoint(poly, outside));
}

TEST(GeometryPredicates, PolygonPolygon) {
  Geometry a(MakeSquare(0, 0, 4));
  Geometry b(MakeSquare(2, 2, 4));   // overlaps a
  Geometry c(MakeSquare(10, 10, 2)); // disjoint
  Geometry d(MakeSquare(1, 1, 1));   // inside a
  EXPECT_TRUE(Intersects(a, b));
  EXPECT_FALSE(Intersects(a, c));
  EXPECT_TRUE(Contains(a, d));
  EXPECT_FALSE(Contains(a, b));
  EXPECT_TRUE(Within(d, a));
}

TEST(GeometryPredicates, NestedPolygonIntersects) {
  // One polygon fully inside another: no edge crossings, still intersects.
  Geometry outer(MakeSquare(0, 0, 10));
  Geometry inner(MakeSquare(4, 4, 1));
  EXPECT_TRUE(Intersects(outer, inner));
  EXPECT_TRUE(Intersects(inner, outer));
}

TEST(GeometryPredicates, HolePreventsContainment) {
  Polygon donut = MakeSquare(0, 0, 10);
  Ring hole;
  hole.points = {Point{3, 3}, Point{7, 3}, Point{7, 7}, Point{3, 7}};
  donut.holes.push_back(hole);
  Geometry a(donut);
  Geometry in_hole(MakeSquare(4, 4, 1));
  EXPECT_FALSE(Contains(a, in_hole));
  Geometry solid_part(MakeSquare(0.5, 0.5, 1));
  EXPECT_TRUE(Contains(a, solid_part));
}

TEST(GeometryPredicates, LineStringPolygon) {
  LineString crossing;
  crossing.points = {Point{-1, 2}, Point{5, 2}};
  LineString outside;
  outside.points = {Point{-5, -5}, Point{-4, -4}};
  Geometry poly(MakeSquare(0, 0, 4));
  EXPECT_TRUE(Intersects(Geometry(crossing), poly));
  EXPECT_FALSE(Intersects(Geometry(outside), poly));
  LineString inside;
  inside.points = {Point{1, 1}, Point{2, 2}};
  EXPECT_TRUE(Contains(poly, Geometry(inside)));
}

TEST(GeometryPredicates, LineStringLineString) {
  LineString a;
  a.points = {Point{0, 0}, Point{4, 4}};
  LineString b;
  b.points = {Point{0, 4}, Point{4, 0}};
  LineString c;
  c.points = {Point{10, 10}, Point{11, 11}};
  EXPECT_TRUE(Intersects(Geometry(a), Geometry(b)));
  EXPECT_FALSE(Intersects(Geometry(a), Geometry(c)));
  EXPECT_DOUBLE_EQ(Distance(Geometry(a), Geometry(b)), 0.0);
}

TEST(GeometryPredicates, MultiPolygonIntersects) {
  MultiPolygon mp;
  mp.polygons.push_back(MakeSquare(0, 0, 1));
  mp.polygons.push_back(MakeSquare(10, 0, 1));
  Geometry gmp(mp);
  EXPECT_TRUE(Intersects(gmp, Geometry(Point{10.5, 0.5})));
  EXPECT_FALSE(Intersects(gmp, Geometry(Point{5, 0.5})));
  EXPECT_TRUE(Intersects(gmp, Geometry(MakeSquare(0.5, 0.5, 10))));
}

TEST(GeometryPredicates, IntersectsBox) {
  Geometry poly(MakeSquare(0, 0, 4));
  EXPECT_TRUE(Intersects(poly, Box::Of(3, 3, 5, 5)));
  EXPECT_FALSE(Intersects(poly, Box::Of(5, 5, 6, 6)));
  // Box fully inside polygon.
  EXPECT_TRUE(Intersects(poly, Box::Of(1, 1, 2, 2)));
  // Polygon fully inside box.
  EXPECT_TRUE(Intersects(poly, Box::Of(-10, -10, 10, 10)));
  Geometry pt(Point{1, 1});
  EXPECT_TRUE(Intersects(pt, Box::Of(0, 0, 2, 2)));
  EXPECT_FALSE(Intersects(pt, Box::Of(2, 2, 3, 3)));
}

TEST(GeometryPredicates, DistancePolygonPolygon) {
  Geometry a(MakeSquare(0, 0, 1));
  Geometry b(MakeSquare(4, 0, 1));
  EXPECT_DOUBLE_EQ(Distance(a, b), 3.0);
  EXPECT_TRUE(WithinDistance(a, b, 3.0));
  EXPECT_FALSE(WithinDistance(a, b, 2.9));
  Geometry c(MakeSquare(0.5, 0.5, 1));
  EXPECT_DOUBLE_EQ(Distance(a, c), 0.0);
}

TEST(GeometryPredicates, DistancePointGeometry) {
  Geometry poly(MakeSquare(0, 0, 2));
  EXPECT_DOUBLE_EQ(Distance(Geometry(Point{5, 0}), poly), 3.0);
  EXPECT_DOUBLE_EQ(Distance(Geometry(Point{1, 1}), poly), 0.0);
  LineString ls;
  ls.points = {Point{0, 10}, Point{10, 10}};
  EXPECT_DOUBLE_EQ(Distance(Geometry(Point{5, 13}), Geometry(ls)), 3.0);
}

TEST(GeometryTest, EnvelopeAndVertices) {
  Geometry p(Point{3, 4});
  EXPECT_TRUE(p.Envelope().Contains(Point{3, 4}));
  EXPECT_EQ(p.NumVertices(), 1u);
  MultiPolygon mp;
  mp.polygons.push_back(MakeSquare(0, 0, 1));
  mp.polygons.push_back(MakeSquare(2, 2, 1));
  Geometry g(mp);
  EXPECT_EQ(g.NumVertices(), 8u);
  EXPECT_DOUBLE_EQ(g.Area(), 2.0);
}

// --- WKT ---------------------------------------------------------------------

TEST(WktTest, ParsePoint) {
  auto r = ParseWkt("POINT (3.5 -2)");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->IsPoint());
  EXPECT_DOUBLE_EQ(r->AsPoint().x, 3.5);
  EXPECT_DOUBLE_EQ(r->AsPoint().y, -2.0);
}

TEST(WktTest, ParseLineString) {
  auto r = ParseWkt("LINESTRING (0 0, 1 1, 2 0)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsLineString().points.size(), 3u);
}

TEST(WktTest, ParsePolygonWithHole) {
  auto r = ParseWkt(
      "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))");
  ASSERT_TRUE(r.ok()) << r.status();
  const Polygon& p = r->AsPolygon();
  EXPECT_EQ(p.outer.points.size(), 4u);  // closing vertex dropped
  ASSERT_EQ(p.holes.size(), 1u);
  EXPECT_DOUBLE_EQ(p.Area(), 96.0);
}

TEST(WktTest, ParseMultiPolygon) {
  auto r = ParseWkt(
      "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 "
      "5)))");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->AsMultiPolygon().polygons.size(), 2u);
  EXPECT_DOUBLE_EQ(r->Area(), 2.0);
}

TEST(WktTest, CaseInsensitiveTag) {
  EXPECT_TRUE(ParseWkt("point(1 2)").ok());
  EXPECT_TRUE(ParseWkt("Polygon((0 0,1 0,1 1,0 1,0 0))").ok());
}

TEST(WktTest, RejectsMalformed) {
  EXPECT_FALSE(ParseWkt("").ok());
  EXPECT_FALSE(ParseWkt("CIRCLE (0 0, 5)").ok());
  EXPECT_FALSE(ParseWkt("POINT (1)").ok());
  EXPECT_FALSE(ParseWkt("POINT (1 2").ok());
  EXPECT_FALSE(ParseWkt("POINT (1 2) garbage").ok());
  EXPECT_FALSE(ParseWkt("LINESTRING (0 0)").ok());
  // Unclosed ring.
  EXPECT_FALSE(ParseWkt("POLYGON ((0 0, 1 0, 1 1, 0 1))").ok());
  // Too few vertices.
  EXPECT_FALSE(ParseWkt("POLYGON ((0 0, 1 0, 0 0))").ok());
}

TEST(WktTest, RoundTripPolygon) {
  const char* wkt = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))";
  auto g = ParseWkt(wkt);
  ASSERT_TRUE(g.ok());
  auto g2 = ParseWkt(ToWkt(*g));
  ASSERT_TRUE(g2.ok());
  EXPECT_DOUBLE_EQ(g2->Area(), 100.0);
  EXPECT_EQ(g2->NumVertices(), g->NumVertices());
}

TEST(WktTest, RoundTripMultiPolygon) {
  MultiPolygon mp;
  mp.polygons.push_back(MakeSquare(0, 0, 2));
  mp.polygons.push_back(MakeSquare(5, 5, 3));
  Geometry g(mp);
  auto parsed = ParseWkt(ToWkt(g));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(parsed->Area(), g.Area());
}

TEST(WktTest, ToWktBox) {
  auto g = ParseWkt(ToWkt(Box::Of(0, 0, 2, 3)));
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->Area(), 6.0);
}

// --- RTree ---------------------------------------------------------------

// Ids of `entries` whose box intersects `query`, sorted: the reference
// every tree query is checked against.
std::vector<int64_t> BruteForce(const std::vector<RTree::Entry>& entries,
                                const Box& query) {
  std::vector<int64_t> out;
  for (const auto& e : entries) {
    if (e.box.Intersects(query)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int64_t> SortedQuery(const RTree& tree, const Box& query) {
  std::vector<int64_t> out = tree.Query(query);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RTreeTest, EmptyTreeQueries) {
  RTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Query(Box::Of(0, 0, 1, 1)).empty());
}

TEST(RTreeTest, InsertAndQuery) {
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 100; ++i) {
    double x = static_cast<double>(i % 10);
    double y = static_cast<double>(i / 10);
    entries.push_back({Box::Of(x, y, x + 0.5, y + 0.5), i});
  }
  RTree tree = RTree::BulkLoad(std::move(entries));
  EXPECT_EQ(tree.size(), 100u);
  auto hits = tree.Query(Box::Of(0, 0, 2.9, 0.9));
  std::set<int64_t> s(hits.begin(), hits.end());
  EXPECT_EQ(s, (std::set<int64_t>{0, 1, 2}));
}

TEST(RTreeTest, QueryMatchesBruteForce) {
  common::Rng rng(42);
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 2000; ++i) {
    double x = rng.UniformDouble(0, 1000);
    double y = rng.UniformDouble(0, 1000);
    double w = rng.UniformDouble(0, 5);
    double h = rng.UniformDouble(0, 5);
    entries.push_back({Box::Of(x, y, x + w, y + h), i});
  }
  RTree tree = RTree::BulkLoad(entries);
  for (int q = 0; q < 50; ++q) {
    double x = rng.UniformDouble(0, 950);
    double y = rng.UniformDouble(0, 950);
    Box query = Box::Of(x, y, x + 50, y + 50);
    EXPECT_EQ(SortedQuery(tree, query), BruteForce(entries, query))
        << "query " << q;
  }
}

TEST(RTreeTest, BulkLoadMatchesBruteForce) {
  common::Rng rng(43);
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 5000; ++i) {
    double x = rng.UniformDouble(0, 1000);
    double y = rng.UniformDouble(0, 1000);
    entries.push_back({Box::Of(x, y, x + 1, y + 1), i});
  }
  RTree tree = RTree::BulkLoad(entries);
  EXPECT_EQ(tree.size(), 5000u);
  for (int q = 0; q < 30; ++q) {
    double x = rng.UniformDouble(0, 900);
    double y = rng.UniformDouble(0, 900);
    Box query = Box::Of(x, y, x + 100, y + 100);
    EXPECT_EQ(SortedQuery(tree, query), BruteForce(entries, query));
  }
}

TEST(RTreeTest, BulkLoadEmptyAndSingle) {
  RTree empty = RTree::BulkLoad({});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.Query(Box::Of(0, 0, 1, 1)).empty());
  RTree single = RTree::BulkLoad({{Box::Of(0, 0, 1, 1), 7}});
  auto hits = single.Query(Box::Of(0.5, 0.5, 2, 2));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7);
}

TEST(RTreeTest, HeightGrowsLogarithmically) {
  common::Rng rng(44);
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 10000; ++i) {
    double x = rng.UniformDouble(0, 1000);
    double y = rng.UniformDouble(0, 1000);
    entries.push_back({Box::Of(x, y, x, y), i});
  }
  RTree tree = RTree::BulkLoad(entries);
  EXPECT_GE(tree.Height(), 3);
  EXPECT_LE(tree.Height(), 6);
}

TEST(RTreeTest, VisitEarlyStop) {
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 100; ++i) {
    entries.push_back({Box::Of(0, 0, 1, 1), i});
  }
  RTree tree = RTree::BulkLoad(std::move(entries));
  int count = 0;
  tree.VisitWith(Box::Of(0, 0, 1, 1), [&](int64_t) {
    ++count;
    return count < 5;
  });
  EXPECT_EQ(count, 5);
}

TEST(RTreeTest, QueryTouchesFewNodesOnPointQuery) {
  common::Rng rng(45);
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 20000; ++i) {
    double x = rng.UniformDouble(0, 1000);
    double y = rng.UniformDouble(0, 1000);
    entries.push_back({Box::Of(x, y, x + 0.1, y + 0.1), i});
  }
  RTree tree = RTree::BulkLoad(entries);
  RTree::TraversalStats stats;
  tree.VisitWith(
      Box::Of(500, 500, 500.5, 500.5), [](int64_t) { return true; }, &stats);
  // A point-ish query should touch a tiny fraction of ~1300 nodes.
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_LT(stats.nodes_visited, 60u);
}

TEST(RTreeTest, Nearest) {
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 10; ++i) {
    double x = static_cast<double>(i * 10);
    entries.push_back({Box::Of(x, 0, x + 1, 1), i});
  }
  RTree tree = RTree::BulkLoad(std::move(entries));
  auto nearest = tree.Nearest(Point{0.5, 0.5}, 3);
  ASSERT_EQ(nearest.size(), 3u);
  EXPECT_EQ(nearest[0].id, 0);
  EXPECT_EQ(nearest[1].id, 1);
  EXPECT_EQ(nearest[2].id, 2);
  EXPECT_EQ(nearest[0].box.min_x, 0.0);
  EXPECT_EQ(nearest[2].box.max_x, 21.0);
}

TEST(RTreeTest, NearestMoreThanSize) {
  RTree tree = RTree::BulkLoad({{Box::Of(0, 0, 1, 1), 1}});
  auto nearest = tree.Nearest(Point{5, 5}, 10);
  EXPECT_EQ(nearest.size(), 1u);
}

TEST(RTreeTest, MoveSemantics) {
  RTree a = RTree::BulkLoad({{Box::Of(0, 0, 1, 1), 1}});
  RTree b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.Query(Box::Of(0, 0, 2, 2)).size(), 1u);
}

TEST(RTreeTest, NearestOnEmptyTree) {
  RTree tree;
  EXPECT_TRUE(tree.Nearest(Point{0, 0}, 5).empty());
  RTree bulk = RTree::BulkLoad({});
  EXPECT_TRUE(bulk.Nearest(Point{3, 3}, 1).empty());
}

TEST(RTreeTest, NearestKLargerThanSize) {
  RTree tree = RTree::BulkLoad({{Box::Of(0, 0, 1, 1), 1},
                                {Box::Of(5, 5, 6, 6), 2},
                                {Box::Of(9, 9, 10, 10), 3}});
  auto nearest = tree.Nearest(Point{0, 0}, 100);
  ASSERT_EQ(nearest.size(), 3u);
  EXPECT_EQ(nearest[0].id, 1);
  EXPECT_EQ(nearest[1].id, 2);
  EXPECT_EQ(nearest[2].id, 3);
}

// A tree that went through FreezeTo/OpenFrozen answers queries, Nearest
// and Height exactly like the one BulkLoad built, and both match a scan.
TEST(RTreeTest, OpenFrozenMatchesBruteForceRandomized) {
  common::Rng rng(46);
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 3000; ++i) {
    double x = rng.UniformDouble(0, 1000);
    double y = rng.UniformDouble(0, 1000);
    double w = rng.UniformDouble(0, 8);
    double h = rng.UniformDouble(0, 8);
    entries.push_back({Box::Of(x, y, x + w, y + h), i});
  }
  RTree built = RTree::BulkLoad(entries);
  storage::MemoryStorageManager disk;
  storage::BufferPool pool(&disk, 16);
  storage::PageId head = storage::kInvalidPageId;
  ASSERT_TRUE(built.FreezeTo(&pool, &head).ok());
  auto opened = RTree::OpenFrozen(&pool, head);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const RTree& loaded = *opened;
  EXPECT_EQ(loaded.size(), built.size());
  EXPECT_EQ(loaded.Height(), built.Height());
  for (int q = 0; q < 40; ++q) {
    double x = rng.UniformDouble(0, 950);
    double y = rng.UniformDouble(0, 950);
    Box query = Box::Of(x, y, x + 60, y + 60);
    const std::vector<int64_t> expected = BruteForce(entries, query);
    EXPECT_EQ(SortedQuery(built, query), expected) << "query " << q;
    EXPECT_EQ(loaded.Query(query), built.Query(query)) << "query " << q;
    const Point p{x, y};
    std::vector<int64_t> near_built;
    std::vector<int64_t> near_loaded;
    for (const auto& e : built.Nearest(p, 5)) near_built.push_back(e.id);
    for (const auto& e : loaded.Nearest(p, 5)) near_loaded.push_back(e.id);
    EXPECT_EQ(near_loaded, near_built);
  }
}

TEST(RTreeTest, VisitWithReportsStatsAndStopsEarly) {
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 1000; ++i) {
    entries.push_back({Box::Of(i, 0, i + 0.5, 1), i});
  }
  RTree tree = RTree::BulkLoad(entries);
  RTree::TraversalStats stats;
  size_t count = 0;
  tree.VisitWith(
      Box::Of(0, 0, 1000, 1), [&](int64_t) { return ++count < 7; }, &stats);
  EXPECT_EQ(count, 7u);
  EXPECT_GT(stats.nodes_visited, 0u);
  // A full traversal visits more nodes than the early-stopped one.
  RTree::TraversalStats full;
  tree.VisitWith(
      Box::Of(0, 0, 1000, 1), [](int64_t) { return true; }, &full);
  EXPECT_GT(full.nodes_visited, stats.nodes_visited);
}

// The bytes FreezeTo writes for a seeded BulkLoad are pinned: the STR
// builder's breadth-first node order and the EEARTRE1 format may not
// drift. The coordinates sit on a small integer grid, so the STR sorts
// see many ties and the order they leave tied items in is pinned too.
TEST(RTreeTest, FreezeToBytesAreGolden) {
  common::Rng rng(47);
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 5000; ++i) {
    const double x = static_cast<double>(rng.UniformInt(0, 200));
    const double y = static_cast<double>(rng.UniformInt(0, 200));
    entries.push_back({Box::Of(x, y, x + rng.UniformDouble(0, 4),
                               y + rng.UniformDouble(0, 4)),
                       i});
  }
  RTree tree = RTree::BulkLoad(std::move(entries));
  storage::MemoryStorageManager disk;
  storage::BufferPool pool(&disk, 16);
  storage::PageId head = storage::kInvalidPageId;
  ASSERT_TRUE(tree.FreezeTo(&pool, &head).ok());
  storage::PageChainReader reader(&pool, head);
  std::string bytes;
  while (!reader.AtEnd()) {
    char c = 0;
    ASSERT_TRUE(reader.Read(&c, 1).ok());
    bytes.push_back(c);
  }
  EXPECT_EQ(bytes.size(), 214076u);
  EXPECT_EQ(common::Fnv1a(bytes), 10287429191224689540ull);
}

// --- OpenFrozen on hostile page chains --------------------------------------

// A hand-written EEARTRE1 stream: header counts, then `nodes`, then
// `entries` leaf entries, so a test can describe what BulkLoad never
// writes.
struct RawStream {
  struct Node {
    uint32_t first;
    uint16_t count;
    uint16_t leaf;
  };
  uint64_t size = 0;
  uint64_t node_count = 0;
  uint64_t entry_count = 0;
  std::vector<Node> nodes;
  uint64_t entries = 0;
};

// A leaf over `n` entries as the only node, with consistent counts.
RawStream OneLeaf(uint16_t n) {
  return RawStream{n, 1, n, {{0, n, 1}}, n};
}

// `depth` levels: a chain of single-child internal nodes over one leaf.
RawStream Chain(int depth) {
  RawStream s{1, static_cast<uint64_t>(depth), 1, {}, 1};
  for (int i = 0; i + 1 < depth; ++i) {
    s.nodes.push_back({static_cast<uint32_t>(i + 1), 1, 0});
  }
  s.nodes.push_back({0, 1, 1});
  return s;
}

common::Status OpenRaw(const RawStream& s) {
  storage::MemoryStorageManager disk;
  storage::BufferPool pool(&disk, 16);
  storage::PageChainWriter w(&pool, /*lsn=*/0);
  auto box = [&](double lo, double hi) {
    EXPECT_TRUE(w.WriteF64(lo).ok());
    EXPECT_TRUE(w.WriteF64(lo).ok());
    EXPECT_TRUE(w.WriteF64(hi).ok());
    EXPECT_TRUE(w.WriteF64(hi).ok());
  };
  EXPECT_TRUE(w.WriteU64(0x3145525452414545ull).ok());  // "EEARTRE1"
  EXPECT_TRUE(w.WriteU32(1).ok());
  EXPECT_TRUE(w.WriteU64(s.size).ok());
  EXPECT_TRUE(w.WriteU64(s.node_count).ok());
  EXPECT_TRUE(w.WriteU64(s.entry_count).ok());
  for (const RawStream::Node& n : s.nodes) {
    box(0, 1000);
    EXPECT_TRUE(w.WriteU32(n.first).ok());
    EXPECT_TRUE(w.WriteU32(n.count | (static_cast<uint32_t>(n.leaf) << 16))
                    .ok());
  }
  for (uint64_t i = 0; i < s.entries; ++i) {
    box(static_cast<double>(i), static_cast<double>(i) + 1);
    EXPECT_TRUE(w.WriteU64(i).ok());
  }
  auto head = w.Finish();
  EXPECT_TRUE(head.ok());
  auto opened = RTree::OpenFrozen(&pool, *head);
  if (!opened.ok()) return opened.status();
  // A stream that opens must also be safe to traverse.
  opened->Query(Box::Of(-1, -1, 2000, 2000));
  opened->Nearest(Point{0, 0}, 3);
  opened->Height();
  return common::Status::OK();
}

TEST(RTreeTest, OpenFrozenAcceptsWellFormedHandWrittenStreams) {
  EXPECT_TRUE(OpenRaw(RawStream{}).ok());  // the empty tree
  EXPECT_TRUE(OpenRaw(OneLeaf(1)).ok());
  EXPECT_TRUE(OpenRaw(OneLeaf(RTree::kMaxEntries)).ok());
  EXPECT_TRUE(OpenRaw(Chain(RTree::kMaxHeight)).ok());
  // Root over two leaves of 3 and 2 entries.
  EXPECT_TRUE(OpenRaw(RawStream{5, 3, 5, {{1, 2, 0}, {0, 3, 1}, {3, 2, 1}}, 5})
                  .ok());
}

TEST(RTreeTest, OpenFrozenRejectsCorruptStreamsWithIOError) {
  constexpr uint64_t kHuge = uint64_t{1} << 60;
  struct Case {
    const char* name;
    RawStream stream;
  };
  std::vector<Case> cases = {
      {"size differs from entry count", {5, 1, 4, {{0, 4, 1}}, 4}},
      {"huge entry count is never reserved",
       {kHuge, 1, kHuge, {{0, 1, 1}}, 1}},
      {"leaf fan-out above kMaxEntries", OneLeaf(100)},
      {"empty leaf", {0, 1, 0, {{0, 0, 1}}, 0}},
      {"leaf flag 2", {1, 1, 1, {{0, 1, 2}}, 1}},
      {"child range skips a node",
       {2, 3, 2, {{2, 1, 0}, {0, 1, 1}, {1, 1, 1}}, 2}},
      {"child ranges miss the last node",
       {2, 3, 2, {{1, 1, 0}, {0, 1, 1}, {1, 1, 1}}, 2}},
      {"child range points back at its parent",
       {1, 3, 1, {{1, 1, 0}, {0, 1, 1}, {2, 1, 0}}, 1}},
      {"internal fan-out above kMaxEntries",
       {1, 18, 1, {{1, 17, 0}}, 1}},
      {"leaf ranges overlap", {3, 3, 3, {{1, 2, 0}, {0, 2, 1}, {1, 2, 1}}, 3}},
      {"leaf ranges leave an entry out", {3, 1, 3, {{0, 2, 1}}, 3}},
      {"tree deeper than kMaxHeight", Chain(RTree::kMaxHeight + 1)},
  };
  for (const Case& c : cases) {
    const common::Status s = OpenRaw(c.stream);
    EXPECT_TRUE(s.IsIOError()) << c.name << ": " << s.ToString();
  }
  // A node count larger than the chain runs off its end instead of
  // allocating for it.
  RawStream truncated = OneLeaf(1);
  truncated.node_count = kHuge;
  EXPECT_FALSE(OpenRaw(truncated).ok());
}

}  // namespace
}  // namespace exearth::geo
