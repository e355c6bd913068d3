// Strabon-style geospatial RDF store (Challenge C3, experiments E1/E2).
//
// GeoStore wraps a TripleStore and understands GeoSPARQL/stSPARQL geometry
// literals: objects of geo:asWKT typed geo:wktLiteral. BuildSpatialIndex()
// parses every geometry literal once and packs their envelopes into an
// R-tree keyed by the *subject* term id (the feature), enabling pushdown:
//
//   indexed path  : R-tree candidates -> exact geometry test
//   baseline path : full scan of geo:asWKT triples -> parse/test each
//                   (the GraphDB stand-in, see DESIGN.md §2)
//
// Exact predicate evaluation always runs on the parsed geometries, so both
// paths return identical answers; only the work differs.
//
// Storage layout (see README "Performance"): geometries live in a dense
// arena — subject ids sorted into one vector, parsed geometries in a
// parallel vector, and precomputed envelopes in struct-of-arrays columns
// (min_x[]/min_y[]/max_x[]/max_y[], geo::simd::EnvelopeColumns) — and the
// R-tree stores *dense indices*, so a candidate probe is one array access
// instead of a hash lookup. The R-tree itself is queried in its frozen
// (contiguous, index-addressed) form with batched child pruning, and the
// refinement loops evaluate envelope predicates 16 candidates per
// geo::simd kernel call (scalar or AVX2 — byte-identical either way).
//
// Every spatial selection takes one path: one probe (a single R-tree
// traversal over the union of its members' boxes — SpatialSelect is a
// batch of one — or the baseline full scan), then one refinement per
// member. With set_num_threads(n > 1) each refinement and the probe loop
// of SpatialJoin are partitioned across a common::ThreadPool; results
// are merged deterministically and are byte-identical to the
// single-threaded path.
//
// Each query method opens a common::TraceRequest, so with the
// EventRecorder enabled the probe and every refinement chunk appear as
// spans of one trace in the Chrome trace export; with the SlowQueryLog
// enabled (or a `profile` out-param passed) a per-operator QueryProfile
// is built as well.
//
// Queries are cooperative: each method checks the ambient
// common::RequestContext (deadline + cancel token) on entry, and
// refinement and probe chunks poll it and a shared abort flag at
// chunk-stride granularity, so a query whose deadline expires — or whose
// result set outgrows the per-query memory budget — stops all its
// workers within a few dozen geometry tests and returns DeadlineExceeded
// / Cancelled / ResourceExhausted. Partial work is accounted in
// SpatialQueryStats (chunks_cancelled) and the
// strabon.geostore.{deadline_exceeded,cancelled,memory_budget_exceeded,
// chunks_cancelled} counters.

#ifndef EXEARTH_STRABON_GEOSTORE_H_
#define EXEARTH_STRABON_GEOSTORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/query_profile.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "geo/geometry.h"
#include "geo/rtree.h"
#include "geo/simd.h"
#include "rdf/query.h"
#include "rdf/triple_store.h"

namespace exearth::strabon {

/// Spatial predicate for selections and joins.
enum class SpatialRelation {
  kIntersects,
  kContains,
  kWithin,
};

/// Per-query execution statistics (for E1/E2 reporting). Returned to the
/// caller per query; safe under concurrent queries.
struct SpatialQueryStats {
  uint64_t candidates = 0;      // geometries tested exactly
  uint64_t geometry_tests = 0;  // relation evaluations (incl. envelope wins)
  uint64_t envelope_hits = 0;   // resolved by envelope containment alone
  uint64_t nodes_visited = 0;   // R-tree nodes touched
  uint64_t threads_used = 1;    // parallelism of the refinement/probe step
  uint64_t results = 0;
  /// Chunks that stopped early because the query was cancelled, its
  /// deadline expired, or it blew the memory budget (partial-work
  /// accounting: equals threads_used when every worker was stopped).
  uint64_t chunks_cancelled = 0;
};

/// One member of a cross-request SpatialSelect batch (see
/// SpatialSelectBatch): a query box plus its relation. Batches are how the
/// serving layer (serve::QueryBroker) turns N concurrent selections
/// against the same frozen R-tree into one shared traversal.
struct BatchSelectQuery {
  geo::Box box;
  SpatialRelation relation = SpatialRelation::kIntersects;
};

/// A TripleStore with a spatial index over its geometry literals.
class GeoStore {
 public:
  GeoStore() = default;

  GeoStore(const GeoStore&) = delete;
  GeoStore& operator=(const GeoStore&) = delete;
  GeoStore(GeoStore&&) = default;
  GeoStore& operator=(GeoStore&&) = default;

  rdf::TripleStore& triples() { return store_; }
  const rdf::TripleStore& triples() const { return store_; }

  /// Adds a feature: subject IRI with a WKT geometry (emits the
  /// geo:asWKT triple). Additional thematic triples go through triples().
  void AddFeature(const std::string& subject_iri, const geo::Geometry& geom);

  /// Builds the triple indexes, parses all geometry literals and packs the
  /// R-tree. Returns the number of indexed geometries; fails on malformed
  /// WKT.
  common::Result<size_t> Build();

  size_t num_geometries() const { return geom_subjects_.size(); }

  /// Number of worker threads for SpatialSelect refinement and SpatialJoin
  /// probing; n <= 1 runs inline. Not safe to call concurrently with
  /// queries.
  void set_num_threads(size_t n);
  size_t num_threads() const { return num_threads_; }

  /// Per-query cap on result memory (bytes of matched ids/pairs across
  /// all chunks); a query that exceeds it aborts with ResourceExhausted.
  /// 0 (the default) disables the budget. Not safe to call concurrently
  /// with queries.
  void set_memory_budget_bytes(uint64_t bytes) {
    memory_budget_bytes_ = bytes;
  }
  uint64_t memory_budget_bytes() const { return memory_budget_bytes_; }

  /// Subjects whose geometry satisfies `relation` with the query box
  /// (rectangular spatial selection — the E1 workload). `use_index`
  /// selects pushdown vs full scan; results are identical. Per-query
  /// statistics are written to `stats` when non-null; an EXPLAIN
  /// ANALYZE-style operator breakdown is written to `profile` when
  /// non-null (and fed to the SlowQueryLog when that is enabled).
  /// Returns DeadlineExceeded / Cancelled when the ambient request
  /// context fires mid-query; stats then hold the partial-work counts.
  common::Result<std::vector<uint64_t>> SpatialSelect(
      const geo::Box& query, SpatialRelation relation, bool use_index,
      SpatialQueryStats* stats = nullptr,
      common::QueryProfile* profile = nullptr) const;

  /// Cross-request batched spatial selection: answers all `queries` with
  /// ONE shared R-tree traversal (over the union of the query boxes, with
  /// per-query candidate demux) instead of one traversal per query.
  /// Duplicate (box, relation) pairs are deduplicated, so N identical
  /// concurrent selections cost a single traversal + refinement. Result
  /// slot i is byte-identical to SpatialSelect(queries[i], use_index=true)
  /// — candidate *order* may differ under the shared traversal, but
  /// refinement is a pure per-candidate predicate and results are sorted.
  /// The aggregate work across the whole batch is written to `stats`;
  /// strabon.geostore.select_traversals counts 1 here vs 1 per query on
  /// the unbatched path (the serving layer's batching win in metrics).
  /// Honors the ambient RequestContext and the memory budget (applied to
  /// each deduplicated member) exactly like SpatialSelect; any abort fails
  /// the whole batch.
  common::Result<std::vector<std::vector<uint64_t>>> SpatialSelectBatch(
      const std::vector<BatchSelectQuery>& queries,
      SpatialQueryStats* stats = nullptr) const;

  /// Serializes the packed R-tree into a page chain from `pool` (see
  /// geo::RTree::FreezeTo). Build() first; persist `*head` plus the
  /// pool's FlushAll/Sync to make the index durable.
  common::Status FreezeIndexTo(storage::BufferPool* pool,
                               storage::PageId* head) const;

  /// Replaces the R-tree with one loaded from a FreezeIndexTo chain.
  /// Query results are byte-identical to the in-memory index; reads go
  /// through the buffer pool (cold vs warm — the E18 bench). The
  /// geometry arena must already be built (same dataset, same order).
  common::Status LoadFrozenIndex(storage::BufferPool* pool,
                                 storage::PageId head);

  /// Monotone data-version counter, bumped by every geometry ingest
  /// (AddFeature) and every (re)Build. Result caches key their entries on
  /// this epoch: an entry whose epoch no longer matches is stale and must
  /// be invalidated (see serve::QueryBroker).
  uint64_t data_epoch() const { return data_epoch_; }

  /// Readiness probe for the admin /healthz endpoint: spatial queries
  /// EEA_CHECK-abort before Build(), so a store is ready only once its
  /// index is packed.
  common::Status CheckReady() const {
    if (!spatial_built_) {
      return common::Status::FailedPrecondition(
          "geostore: spatial index not built (call Build())");
    }
    return common::Status::OK();
  }

  /// Evaluates a BGP and then keeps only bindings where `geo_var`'s
  /// subject geometry intersects `query_box` — with the spatial constraint
  /// pushed into the R-tree when `use_index` (the rewriter of DESIGN.md §6).
  common::Result<std::vector<rdf::Binding>> QueryWithSpatialFilter(
      const rdf::Query& query, const std::string& subject_var,
      const geo::Box& query_box, bool use_index,
      SpatialQueryStats* stats = nullptr,
      common::QueryProfile* profile = nullptr) const;

  /// Spatial join between two feature classes (stSPARQL's
  /// `?a strdf:relation ?b` pattern): all (a, b) subject-id pairs where a
  /// is an instance of `class_a_iri`, b of `class_b_iri`, and a's geometry
  /// stands in `relation` to b's. The indexed path probes the R-tree with
  /// each a-envelope; the baseline nested-loops. Results are identical,
  /// sorted, and exclude a == b. Returns DeadlineExceeded / Cancelled /
  /// ResourceExhausted (memory budget) when aborted mid-probe.
  common::Result<std::vector<std::pair<uint64_t, uint64_t>>> SpatialJoin(
      const std::string& class_a_iri, const std::string& class_b_iri,
      SpatialRelation relation, bool use_index,
      SpatialQueryStats* stats = nullptr,
      common::QueryProfile* profile = nullptr) const;

  /// The parsed geometry of a subject (nullptr if it has none).
  const geo::Geometry* GeometryOf(uint64_t subject_id) const;

 private:
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  /// Dense index of `subject_id` in the geometry arena, or kNpos.
  size_t IndexOf(uint64_t subject_id) const;

  /// Evaluates `relation` between arena geometry `idx` and the query box,
  /// taking the envelope fast path when it decides the predicate alone.
  bool EvalRelationAt(size_t idx, const geo::Box& query,
                      SpatialRelation relation, SpatialQueryStats* stats) const;

  /// Runs fn(chunk, begin, end) over [0, n) split into `chunks` ranges,
  /// on the pool when parallel (counting the chunks and setting the
  /// parallel-speedup gauge), inline otherwise. Returns chunks used.
  template <typename Fn>
  size_t RunChunked(size_t n, const Fn& fn) const;

  /// Trace root, latency timer, queries counter, entry check and profile
  /// of one query method call; defined in geostore.cc.
  class Call;

  /// The select body: entry check, one probe for all `members` (the full
  /// scan of a lone member when !use_index), one Refine per member into
  /// out[j], result counters and profile operators.
  common::Status Select(Call& call, std::span<const BatchSelectQuery> members,
                        bool use_index, const char* probe_name,
                        std::span<std::vector<uint64_t>> out,
                        SpatialQueryStats* stats) const;

  /// One R-tree traversal over the union of the members' boxes; appends
  /// to cand[j] each entry whose envelope intersects member j's box, as
  /// its arena index tagged with the envelope fast-path verdict. Returns
  /// the nodes visited.
  uint64_t ProbeIndex(const char* span_name,
                      std::span<const BatchSelectQuery> members,
                      std::span<std::vector<uint32_t>> cand) const;

  /// Refines one member's candidates across the pool into sorted `out`;
  /// returns the (counted) abort status when the query was stopped.
  common::Status Refine(const Call& call, const BatchSelectQuery& member,
                        const std::vector<uint32_t>& cand,
                        SpatialQueryStats* stats,
                        std::vector<uint64_t>* out) const;

  rdf::TripleStore store_;
  geo::RTree rtree_;  // entry ids are dense arena indices
  // Dense geometry arena: sorted subject ids with a parallel geometry
  // vector (replaces the old unordered_map<id, Geometry>). Envelopes are
  // SoA parallel coordinate columns so the refinement loops can gather
  // 16 candidates and test them with one geo::simd batch kernel call.
  std::vector<uint64_t> geom_subjects_;
  std::vector<geo::Geometry> geoms_;
  geo::simd::EnvelopeColumns env_cols_;
  bool spatial_built_ = false;
  uint64_t data_epoch_ = 0;
  size_t num_threads_ = 1;
  uint64_t memory_budget_bytes_ = 0;  // 0 = unlimited
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace exearth::strabon

#endif  // EXEARTH_STRABON_GEOSTORE_H_
