#include "strabon/geostore.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <optional>

#include "common/deadline.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "geo/wkt.h"

namespace exearth::strabon {

using common::Result;
using common::Status;

namespace simd = geo::simd;

namespace {

// Cached metric handles (registration locks; increments are relaxed
// atomics — see common/metrics.h).
struct GeoStoreMetrics {
  common::Counter* queries;
  common::Counter* results;
  common::Counter* index_probes;
  common::Counter* select_traversals;
  common::Counter* batch_queries;
  common::Counter* envelope_hits;
  common::Counter* parallel_chunks;
  common::Counter* deadline_exceeded;
  common::Counter* cancelled;
  common::Counter* memory_budget_exceeded;
  common::Counter* chunks_cancelled;
  common::Gauge* num_threads;
  common::Gauge* parallel_speedup;
  common::Histogram* query_latency_us;
  common::Histogram* probe_latency_us;
  common::Histogram* result_cardinality;
  common::Histogram* chunk_candidates;

  static const GeoStoreMetrics& Get() {
    static GeoStoreMetrics m = [] {
      auto& reg = common::MetricsRegistry::Default();
      return GeoStoreMetrics{
          reg.GetCounter("strabon.geostore.queries"),
          reg.GetCounter("strabon.geostore.results"),
          reg.GetCounter("strabon.geostore.index_probes"),
          reg.GetCounter("strabon.geostore.select_traversals"),
          reg.GetCounter("strabon.geostore.batch_queries"),
          reg.GetCounter("strabon.geostore.envelope_hits"),
          reg.GetCounter("strabon.geostore.parallel_chunks"),
          reg.GetCounter("strabon.geostore.deadline_exceeded"),
          reg.GetCounter("strabon.geostore.cancelled"),
          reg.GetCounter("strabon.geostore.memory_budget_exceeded"),
          reg.GetCounter("strabon.geostore.chunks_cancelled"),
          reg.GetGauge("strabon.geostore.num_threads"),
          reg.GetGauge("strabon.geostore.parallel_speedup"),
          reg.GetHistogram("strabon.geostore.query_latency_us"),
          reg.GetHistogram("strabon.geostore.index_probe_latency_us"),
          reg.GetHistogram(
              "strabon.geostore.result_cardinality",
              common::Histogram::ExponentialBounds(1.0, 4.0, 16)),
          reg.GetHistogram(
              "strabon.geostore.chunk_candidates",
              common::Histogram::ExponentialBounds(1.0, 4.0, 16)),
      };
    }();
    return m;
  }
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Folds a worker-local stats object into the query-wide one (results is
// set by the caller from the merged output).
void MergeStats(const SpatialQueryStats& in, SpatialQueryStats* out) {
  out->candidates += in.candidates;
  out->geometry_tests += in.geometry_tests;
  out->envelope_hits += in.envelope_hits;
  out->nodes_visited += in.nodes_visited;
  out->chunks_cancelled += in.chunks_cancelled;
}

// Shared abort channel for one query's chunk workers: the first trigger
// (deadline, cancellation, or memory budget) wins, every other worker
// sees the flag on its next item and stops. Polling the flag is one
// relaxed load per item; the clock is only read every kPollStride items.
constexpr size_t kPollStride = 64;

struct QueryAbort {
  std::atomic<int> reason{0};  // 0 = none, else a StatusCode

  bool triggered() const {
    return reason.load(std::memory_order_relaxed) != 0;
  }
  void Trigger(common::StatusCode code) {
    int expected = 0;
    reason.compare_exchange_strong(expected, static_cast<int>(code),
                                   std::memory_order_relaxed);
  }
  common::Status ToStatus(const char* who) const {
    const auto code =
        static_cast<common::StatusCode>(reason.load(std::memory_order_relaxed));
    switch (code) {
      case common::StatusCode::kCancelled:
        return common::Status::Cancelled(std::string(who) +
                                         ": request cancelled");
      case common::StatusCode::kResourceExhausted:
        return common::Status::ResourceExhausted(
            std::string(who) + ": per-query memory budget exceeded");
      default:
        return common::Status::DeadlineExceeded(
            std::string(who) + ": request deadline exceeded");
    }
  }
};

// Bumps the right abort counter and the chunks_cancelled total after a
// query stopped early.
void CountAbort(const GeoStoreMetrics& metrics, const common::Status& status,
                uint64_t chunks_cancelled) {
  if (status.IsCancelled()) {
    metrics.cancelled->Increment();
  } else if (status.IsResourceExhausted()) {
    metrics.memory_budget_exceeded->Increment();
  } else {
    metrics.deadline_exceeded->Increment();
  }
  metrics.chunks_cancelled->Increment(chunks_cancelled);
}

// Refinement candidates are dense arena indices with the relation's
// envelope fast-path verdict precomputed into the top bit. The index
// probe (and the scan path's block screen) settles that verdict with
// batched kernel calls over *contiguous* SoA envelope slices — at the
// R-tree leaf, where the entries' envelopes are already streaming
// through cache. The refinement loop then never touches the envelope
// columns at random candidate indices (a four-cache-line gather per
// candidate that costs more than the batched compare saves). Build()
// checks the arena stays below 2^31 entries so the bit is free.
constexpr uint32_t kFastBit = 0x80000000u;

// Everything a SpatialSelect/SpatialSelectBatch refinement chunk worker
// needs, hoisted once per query: the rect polygon for kContains (built
// once instead of per candidate) and the cooperative-abort machinery.
struct RefineJob {
  const std::vector<uint32_t>* candidates;  // arena index | kFastBit
  geo::Box query;
  SpatialRelation relation;
  const geo::Geometry* contains_rect = nullptr;  // only for kContains
  const std::vector<geo::Geometry>* geoms;
  const std::vector<uint64_t>* subjects;
  bool guarded;
  const common::RequestContext* rctx;
  const char* who;
  QueryAbort* abort;
  uint64_t budget;                      // 0 = unlimited
  std::atomic<uint64_t>* bytes_used;    // may be null when budget == 0
};

// Refines candidates [begin, end) into `local`. The envelope predicate
// was settled by the probe and rides in each candidate's kFastBit;
// per-relation semantics are identical to EvalRelationAt:
//   kIntersects: bit set = query box contains envelope -> envelope hit,
//                match without an exact test; else exact Intersects.
//   kContains  : bit set = envelope contains the query box; a clear bit
//                is an envelope-decided "no match"; else exact Contains
//                against the hoisted rect polygon.
//   kWithin    : the bit IS the answer (hit counted on true).
void RefineChunkRange(const RefineJob& job, size_t begin, size_t end,
                      std::vector<uint64_t>* local,
                      SpatialQueryStats* lstats) {
  const std::vector<uint32_t>& cand = *job.candidates;
  for (size_t i = begin; i < end; ++i) {
    if (job.guarded && ((i - begin) % kPollStride) == 0) {
      if (job.abort->triggered()) {
        lstats->chunks_cancelled = 1;
        return;
      }
      Status s = job.rctx->Check(job.who);
      if (!s.ok()) {
        job.abort->Trigger(s.code());
        lstats->chunks_cancelled = 1;
        return;
      }
    }
    const size_t idx = cand[i] & ~kFastBit;
    const bool bit = (cand[i] & kFastBit) != 0;
    ++lstats->geometry_tests;
    bool match = false;
    switch (job.relation) {
      case SpatialRelation::kIntersects:
        if (bit) {
          ++lstats->envelope_hits;
          match = true;
        } else {
          match = geo::Intersects((*job.geoms)[idx], job.query);
        }
        break;
      case SpatialRelation::kContains:
        if (!bit) {
          ++lstats->envelope_hits;
        } else {
          match = geo::Contains((*job.geoms)[idx], *job.contains_rect);
        }
        break;
      case SpatialRelation::kWithin:
        if (bit) ++lstats->envelope_hits;
        match = bit;
        break;
    }
    if (match) {
      local->push_back((*job.subjects)[idx]);
      if (job.budget > 0) {
        const uint64_t now_used =
            job.bytes_used->fetch_add(sizeof(uint64_t),
                                      std::memory_order_relaxed) +
            sizeof(uint64_t);
        if (now_used > job.budget) {
          job.abort->Trigger(common::StatusCode::kResourceExhausted);
          lstats->chunks_cancelled = 1;
          return;
        }
      }
    }
  }
}

// The rect polygon a kContains refinement tests against, built once per
// query instead of once per candidate.
std::optional<geo::Geometry> ContainsRectFor(const geo::Box& query,
                                             SpatialRelation relation) {
  if (relation != SpatialRelation::kContains) return std::nullopt;
  geo::Polygon rect;
  rect.outer.points = {geo::Point{query.min_x, query.min_y},
                       geo::Point{query.max_x, query.min_y},
                       geo::Point{query.max_x, query.max_y},
                       geo::Point{query.min_x, query.max_y}};
  return geo::Geometry(std::move(rect));
}

}  // namespace

void GeoStore::AddFeature(const std::string& subject_iri,
                          const geo::Geometry& geom) {
  store_.Add(rdf::Term::Iri(subject_iri),
             rdf::Term::Iri(rdf::vocab::kAsWkt),
             rdf::Term::Literal(geo::ToWkt(geom), rdf::vocab::kWktLiteral));
  ++data_epoch_;  // ingest: any cached query result may now be stale
}

Result<size_t> GeoStore::Build() {
  store_.Build();
  geom_subjects_.clear();
  geoms_.clear();
  env_cols_.Clear();
  auto aswkt = store_.dict().Lookup(rdf::Term::Iri(rdf::vocab::kAsWkt));
  if (aswkt.has_value()) {
    Status parse_error;
    std::vector<std::pair<uint64_t, geo::Geometry>> parsed;
    store_.Scan(rdf::IdPattern{std::nullopt, *aswkt, std::nullopt},
                [&](const rdf::TripleId& t) {
                  const rdf::Term& lit = store_.dict().Decode(t.o);
                  auto geom = geo::ParseWkt(lit.value);
                  if (!geom.ok()) {
                    parse_error = geom.status();
                    return false;
                  }
                  parsed.emplace_back(t.s, std::move(*geom));
                  return true;
                });
    if (!parse_error.ok()) return parse_error;
    // Dense arena: subjects sorted so lookup is a binary search and the
    // R-tree can address geometries by index. The refinement paths pack
    // the envelope fast-path verdict into bit 31 of the index (kFastBit),
    // which caps the arena at 2^31 entries.
    EEA_CHECK(parsed.size() < (uint64_t{1} << 31))
        << "geometry arena exceeds the kFastBit index range";
    std::sort(parsed.begin(), parsed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    geom_subjects_.reserve(parsed.size());
    geoms_.reserve(parsed.size());
    env_cols_.Reserve(parsed.size());
    std::vector<geo::RTree::Entry> entries;
    entries.reserve(parsed.size());
    for (auto& [subject, geom] : parsed) {
      const auto idx = static_cast<int64_t>(geoms_.size());
      const geo::Box env = geom.Envelope();
      geom_subjects_.push_back(subject);
      env_cols_.PushBack(env);
      geoms_.push_back(std::move(geom));
      entries.push_back({env, idx});
    }
    rtree_ = geo::RTree::BulkLoad(std::move(entries));
  } else {
    rtree_ = geo::RTree::BulkLoad({});
  }
  spatial_built_ = true;
  ++data_epoch_;
  return geom_subjects_.size();
}

common::Status GeoStore::FreezeIndexTo(storage::BufferPool* pool,
                                       storage::PageId* head) const {
  if (!spatial_built_) {
    return common::Status::FailedPrecondition(
        "FreezeIndexTo: spatial index not built (call Build())");
  }
  return rtree_.FreezeTo(pool, head);
}

common::Status GeoStore::LoadFrozenIndex(storage::BufferPool* pool,
                                         storage::PageId head) {
  if (!spatial_built_) {
    return common::Status::FailedPrecondition(
        "LoadFrozenIndex: geometry arena not built (call Build())");
  }
  EEA_ASSIGN_OR_RETURN(geo::RTree loaded, geo::RTree::OpenFrozen(pool, head));
  if (loaded.size() != geom_subjects_.size()) {
    return common::Status::InvalidArgument(common::StrFormat(
        "LoadFrozenIndex: frozen index has %zu entries but the geometry "
        "arena has %zu — index and dataset are out of sync",
        loaded.size(), geom_subjects_.size()));
  }
  rtree_ = std::move(loaded);
  return common::Status::OK();
}

void GeoStore::set_num_threads(size_t n) {
  num_threads_ = std::max<size_t>(1, n);
  if (num_threads_ > 1) {
    if (pool_ == nullptr || pool_->num_threads() != num_threads_) {
      pool_ = std::make_unique<common::ThreadPool>(num_threads_);
    }
  } else {
    pool_.reset();
  }
  GeoStoreMetrics::Get().num_threads->Set(static_cast<double>(num_threads_));
}

size_t GeoStore::IndexOf(uint64_t subject_id) const {
  auto it = std::lower_bound(geom_subjects_.begin(), geom_subjects_.end(),
                             subject_id);
  if (it == geom_subjects_.end() || *it != subject_id) return kNpos;
  return static_cast<size_t>(it - geom_subjects_.begin());
}

bool GeoStore::EvalRelationAt(size_t idx, const geo::Box& query,
                              SpatialRelation relation,
                              SpatialQueryStats* stats) const {
  ++stats->geometry_tests;
  const geo::Box env = env_cols_.At(idx);
  switch (relation) {
    case SpatialRelation::kIntersects:
      // Envelope fully inside the query box: the geometry is too, so it
      // certainly intersects — skip the exact test.
      if (query.Contains(env)) {
        ++stats->envelope_hits;
        return true;
      }
      return geo::Intersects(geoms_[idx], query);
    case SpatialRelation::kContains: {
      // The feature can only contain the query rectangle if its envelope
      // does.
      if (!env.Contains(query)) {
        ++stats->envelope_hits;
        return false;
      }
      geo::Polygon rect;
      rect.outer.points = {geo::Point{query.min_x, query.min_y},
                           geo::Point{query.max_x, query.min_y},
                           geo::Point{query.max_x, query.max_y},
                           geo::Point{query.min_x, query.max_y}};
      return geo::Contains(geoms_[idx], geo::Geometry(std::move(rect)));
    }
    case SpatialRelation::kWithin:
      // Envelope inside the box <=> geometry inside the box.
      if (query.Contains(env)) ++stats->envelope_hits;
      return query.Contains(env);
  }
  return false;
}

size_t GeoStore::RunChunked(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) const {
  // Below this size the fork/join overhead dominates any refinement win.
  constexpr size_t kMinItemsPerChunk = 64;
  size_t chunks = 1;
  if (pool_ != nullptr && num_threads_ > 1) {
    chunks = std::min(num_threads_, (n + kMinItemsPerChunk - 1) /
                                        kMinItemsPerChunk);
  }
  if (chunks <= 1) {
    fn(0, 0, n);
    return 1;
  }
  const size_t chunk_size = (n + chunks - 1) / chunks;
  pool_->ParallelFor(chunks, [&](size_t c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(begin + chunk_size, n);
    if (begin < end) fn(c, begin, end);
  });
  // The parallel_chunks counter bump lives at the call sites (which hold
  // the cached metrics handle) so this hot path does no registry access.
  return chunks;
}

Result<std::vector<uint64_t>> GeoStore::SpatialSelect(
    const geo::Box& query, SpatialRelation relation, bool use_index,
    SpatialQueryStats* stats_out, common::QueryProfile* profile_out) const {
  EEA_CHECK(spatial_built_) << "SpatialSelect before Build()";
  const GeoStoreMetrics& metrics = GeoStoreMetrics::Get();
  common::TraceRequest req("strabon.SpatialSelect");
  common::ProfileScope pscope;
  const bool profiling =
      profile_out != nullptr ||
      (pscope.is_root() && common::SlowQueryLog::Default().enabled());
  const auto query_start = std::chrono::steady_clock::now();
  common::ScopedLatencyTimer query_timer(metrics.query_latency_us);
  metrics.queries->Increment();
  SpatialQueryStats stats;
  std::vector<uint64_t> out;

  // Cooperative-abort machinery: skip all polling when the request is
  // unconstrained and no memory budget is set (the common fast path).
  const common::RequestContext rctx = common::CurrentRequestContext();
  const uint64_t budget = memory_budget_bytes_;
  const bool guarded = !rctx.unconstrained() || budget > 0;
  QueryAbort abort;
  std::atomic<uint64_t> bytes_used{0};
  {
    Status entry = rctx.Check("strabon.SpatialSelect");
    if (!entry.ok()) {
      CountAbort(metrics, entry, 0);
      if (stats_out != nullptr) *stats_out = stats;
      if (profiling) {
        common::QueryProfile prof;
        prof.query = "strabon.SpatialSelect";
        prof.trace_id = req.trace_id();
        prof.total_us = SecondsSince(query_start) * 1e6;
        prof.status = common::StatusCodeToString(entry.code());
        if (profile_out != nullptr) *profile_out = prof;
        if (pscope.is_root()) {
          common::SlowQueryLog::Default().Record(std::move(prof));
        }
      }
      return entry;
    }
  }

  // Candidate set: dense arena indices, each carrying the relation's
  // envelope fast-path verdict in kFastBit (see RefineChunkRange).
  std::vector<uint32_t> candidates;
  const auto probe_start = std::chrono::steady_clock::now();
  const simd::KernelTable& kern = simd::Kernels();
  if (use_index) {
    common::TraceSpan probe_span("index_probe");
    common::ScopedLatencyTimer probe_timer(metrics.probe_latency_us);
    metrics.index_probes->Increment();
    metrics.select_traversals->Increment();
    geo::RTree::TraversalStats tstats;
    const simd::EnvelopeColumns& eenv = rtree_.entry_envelopes();
    rtree_.VisitLeavesWith(
        query,
        [&](const int64_t* ids, uint32_t first, uint16_t count,
            uint64_t hits) {
          // Both envelope predicates are settled here, while the leaf's
          // SoA slice is hot: the traversal mask answers "intersects",
          // and one more kernel call over the same slice answers the
          // relation's fast-path predicate.
          const simd::EnvelopeSpan slice = eenv.Slice(first, count);
          const uint64_t fast =
              relation == SpatialRelation::kContains
                  ? kern.envelope_contains_query(query, slice)
                  : kern.query_contains_envelope(query, slice);
          uint64_t m = hits;
          while (m != 0) {
            const int i = std::countr_zero(m);
            m &= m - 1;
            candidates.push_back(static_cast<uint32_t>(ids[i]) |
                                 (((fast >> i) & 1) != 0 ? kFastBit : 0u));
          }
          return true;
        },
        &tstats);
    stats.nodes_visited = tstats.nodes_visited;
  } else {
    // Baseline: test every geometry (full scan, the GraphDB stand-in).
    // The envelope verdicts stream sequentially through env_cols_, one
    // batched kernel call per kBatchMax features — no gather.
    candidates.resize(geoms_.size());
    for (uint32_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
    for (size_t base = 0; base < candidates.size(); base += simd::kBatchMax) {
      const size_t n = std::min(simd::kBatchMax, candidates.size() - base);
      const simd::EnvelopeSpan slice = env_cols_.Slice(base, n);
      uint64_t fast = relation == SpatialRelation::kContains
                          ? kern.envelope_contains_query(query, slice)
                          : kern.query_contains_envelope(query, slice);
      while (fast != 0) {
        const int i = std::countr_zero(fast);
        fast &= fast - 1;
        candidates[base + static_cast<size_t>(i)] |= kFastBit;
      }
    }
  }
  stats.candidates = candidates.size();
  const double probe_secs = SecondsSince(probe_start);

  // Refinement, partitioned across the pool: thread-local result vectors
  // and stats, merged in chunk order (final order fixed by the sort).
  // Each worker batch-tests envelopes kRefineBlock candidates at a time
  // through the geo::simd kernels (see RefineChunkRange).
  const auto refine_start = std::chrono::steady_clock::now();
  std::vector<std::vector<uint64_t>> chunk_out;
  std::vector<SpatialQueryStats> chunk_stats;
  std::vector<double> chunk_secs;
  const size_t max_chunks = std::max<size_t>(1, num_threads_);
  chunk_out.resize(max_chunks);
  chunk_stats.resize(max_chunks);
  chunk_secs.assign(max_chunks, 0.0);
  const std::optional<geo::Geometry> rect = ContainsRectFor(query, relation);
  RefineJob job;
  job.candidates = &candidates;
  job.query = query;
  job.relation = relation;
  job.contains_rect = rect.has_value() ? &*rect : nullptr;
  job.geoms = &geoms_;
  job.subjects = &geom_subjects_;
  job.guarded = guarded;
  job.rctx = &rctx;
  job.who = "strabon.SpatialSelect";
  job.abort = &abort;
  job.budget = budget;
  job.bytes_used = &bytes_used;
  const size_t used =
      RunChunked(candidates.size(), [&](size_t c, size_t begin, size_t end) {
        const auto t0 = std::chrono::steady_clock::now();
        RefineChunkRange(job, begin, end, &chunk_out[c], &chunk_stats[c]);
        metrics.chunk_candidates->Observe(static_cast<double>(end - begin));
        chunk_secs[c] = SecondsSince(t0);
      });
  if (used > 1) metrics.parallel_chunks->Increment(used);
  stats.threads_used = used;
  for (size_t c = 0; c < used; ++c) {
    MergeStats(chunk_stats[c], &stats);
    out.insert(out.end(), chunk_out[c].begin(), chunk_out[c].end());
  }
  if (used > 1) {
    const double wall = SecondsSince(refine_start);
    double busy = 0.0;
    for (size_t c = 0; c < used; ++c) busy += chunk_secs[c];
    if (wall > 0.0) metrics.parallel_speedup->Set(busy / wall);
  }

  // A triggered abort discards the (partial) result set but keeps the
  // partial-work accounting: stats, counters, and the profile all record
  // how far the query got before it was stopped.
  Status abort_status;
  if (abort.triggered()) {
    abort_status = abort.ToStatus("strabon.SpatialSelect");
    CountAbort(metrics, abort_status, stats.chunks_cancelled);
  } else {
    std::sort(out.begin(), out.end());
    stats.results = out.size();
    metrics.results->Increment(out.size());
    metrics.envelope_hits->Increment(stats.envelope_hits);
    metrics.result_cardinality->Observe(static_cast<double>(out.size()));
  }
  if (stats_out != nullptr) *stats_out = stats;
  if (profiling) {
    common::QueryProfile prof;
    prof.query = "strabon.SpatialSelect";
    prof.trace_id = req.trace_id();
    prof.total_us = SecondsSince(query_start) * 1e6;
    if (!abort_status.ok()) {
      prof.status = common::StatusCodeToString(abort_status.code());
    }
    common::OperatorProfile probe_op;
    probe_op.name = use_index ? "index_probe" : "full_scan";
    probe_op.wall_us = probe_secs * 1e6;
    probe_op.rows_in = geoms_.size();
    probe_op.rows_out = stats.candidates;
    prof.operators.push_back(std::move(probe_op));
    common::OperatorProfile refine_op;
    refine_op.name = "refine";
    refine_op.wall_us = SecondsSince(refine_start) * 1e6;
    refine_op.rows_in = stats.candidates;
    refine_op.rows_out = stats.results;
    refine_op.envelope_hits = stats.envelope_hits;
    refine_op.chunks = used;
    refine_op.threads = used > 1 ? num_threads_ : 1;
    prof.operators.push_back(std::move(refine_op));
    if (profile_out != nullptr) *profile_out = prof;
    if (pscope.is_root()) {
      common::SlowQueryLog::Default().Record(std::move(prof));
    }
  }
  if (!abort_status.ok()) return abort_status;
  return out;
}

Result<std::vector<std::vector<uint64_t>>> GeoStore::SpatialSelectBatch(
    const std::vector<BatchSelectQuery>& queries,
    SpatialQueryStats* stats_out) const {
  EEA_CHECK(spatial_built_) << "SpatialSelectBatch before Build()";
  const GeoStoreMetrics& metrics = GeoStoreMetrics::Get();
  common::TraceRequest req("strabon.SpatialSelectBatch");
  common::ScopedLatencyTimer query_timer(metrics.query_latency_us);
  metrics.queries->Increment();
  metrics.batch_queries->Increment(queries.size());
  SpatialQueryStats stats;
  std::vector<std::vector<uint64_t>> out(queries.size());
  if (queries.empty()) {
    if (stats_out != nullptr) *stats_out = stats;
    return out;
  }
  const common::RequestContext rctx = common::CurrentRequestContext();
  EEA_RETURN_NOT_OK(rctx.Check("strabon.SpatialSelectBatch"));

  // Deduplicate identical (box, relation) members: N identical concurrent
  // selections refine once and fan the result out. Batches are broker-
  // sized (tens to a few hundred members), so the linear scan is cheap.
  auto same = [](const BatchSelectQuery& a, const BatchSelectQuery& b) {
    return a.relation == b.relation && a.box.min_x == b.box.min_x &&
           a.box.min_y == b.box.min_y && a.box.max_x == b.box.max_x &&
           a.box.max_y == b.box.max_y;
  };
  std::vector<BatchSelectQuery> unique;
  std::vector<size_t> unique_of(queries.size());
  unique.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    size_t u = unique.size();
    for (size_t j = 0; j < unique.size(); ++j) {
      if (same(unique[j], queries[i])) {
        u = j;
        break;
      }
    }
    if (u == unique.size()) unique.push_back(queries[i]);
    unique_of[i] = u;
  }

  // ONE shared traversal over the union of the query boxes, demuxing each
  // touched leaf to the members whose own box it intersects. Candidates
  // per unique query are exactly the entries that query's own traversal
  // would have collected: a member's intersection mask over a leaf slice
  // is a subset of the union-box hit mask (member box inside ubox), so
  // testing the member's box directly both demuxes and prunes. Only the
  // candidate order differs from a solo traversal, which the final sort
  // erases. The relation's envelope fast-path verdict rides along in
  // kFastBit exactly as in the single-query probe.
  geo::Box ubox = unique[0].box;
  for (size_t j = 1; j < unique.size(); ++j) {
    ubox.min_x = std::min(ubox.min_x, unique[j].box.min_x);
    ubox.min_y = std::min(ubox.min_y, unique[j].box.min_y);
    ubox.max_x = std::max(ubox.max_x, unique[j].box.max_x);
    ubox.max_y = std::max(ubox.max_y, unique[j].box.max_y);
  }
  const simd::KernelTable& kern = simd::Kernels();
  std::vector<std::vector<uint32_t>> cand(unique.size());
  {
    common::TraceSpan probe_span("batch_index_probe");
    common::ScopedLatencyTimer probe_timer(metrics.probe_latency_us);
    metrics.index_probes->Increment();
    metrics.select_traversals->Increment();
    geo::RTree::TraversalStats tstats;
    const simd::EnvelopeColumns& eenv = rtree_.entry_envelopes();
    rtree_.VisitLeavesWith(
        ubox,
        [&](const int64_t* ids, uint32_t first, uint16_t count,
            uint64_t /*union_hits*/) {
          const simd::EnvelopeSpan slice = eenv.Slice(first, count);
          for (size_t j = 0; j < unique.size(); ++j) {
            uint64_t m = kern.envelope_intersects(unique[j].box, slice);
            if (m == 0) continue;
            const uint64_t fast =
                unique[j].relation == SpatialRelation::kContains
                    ? kern.envelope_contains_query(unique[j].box, slice)
                    : kern.query_contains_envelope(unique[j].box, slice);
            while (m != 0) {
              const int i = std::countr_zero(m);
              m &= m - 1;
              cand[j].push_back(static_cast<uint32_t>(ids[i]) |
                                (((fast >> i) & 1) != 0 ? kFastBit : 0u));
            }
          }
          return true;
        },
        &tstats);
    stats.nodes_visited = tstats.nodes_visited;
  }

  // Per-unique-query refinement (chunked across the pool exactly like the
  // single-query path); results land in every member slot that mapped to
  // the unique query. A fired deadline/cancel aborts the whole batch.
  std::vector<std::vector<uint64_t>> unique_out(unique.size());
  const bool guarded = !rctx.unconstrained();
  for (size_t j = 0; j < unique.size(); ++j) {
    const std::vector<uint32_t>& cs = cand[j];
    stats.candidates += cs.size();
    const size_t max_chunks = std::max<size_t>(1, num_threads_);
    std::vector<std::vector<uint64_t>> chunk_out(max_chunks);
    std::vector<SpatialQueryStats> chunk_stats(max_chunks);
    QueryAbort abort;
    const std::optional<geo::Geometry> rect =
        ContainsRectFor(unique[j].box, unique[j].relation);
    RefineJob job;
    job.candidates = &cs;
    job.query = unique[j].box;
    job.relation = unique[j].relation;
    job.contains_rect = rect.has_value() ? &*rect : nullptr;
    job.geoms = &geoms_;
    job.subjects = &geom_subjects_;
    job.guarded = guarded;
    job.rctx = &rctx;
    job.who = "strabon.SpatialSelectBatch";
    job.abort = &abort;
    job.budget = 0;  // the batch path has no per-member memory budget
    job.bytes_used = nullptr;
    const size_t used =
        RunChunked(cs.size(), [&](size_t c, size_t begin, size_t end) {
          RefineChunkRange(job, begin, end, &chunk_out[c], &chunk_stats[c]);
        });
    if (used > 1) metrics.parallel_chunks->Increment(used);
    stats.threads_used = std::max<uint64_t>(stats.threads_used, used);
    std::vector<uint64_t>& merged = unique_out[j];
    for (size_t c = 0; c < used; ++c) {
      MergeStats(chunk_stats[c], &stats);
      merged.insert(merged.end(), chunk_out[c].begin(), chunk_out[c].end());
    }
    if (abort.triggered()) {
      Status abort_status = abort.ToStatus("strabon.SpatialSelectBatch");
      CountAbort(metrics, abort_status, stats.chunks_cancelled);
      if (stats_out != nullptr) *stats_out = stats;
      return abort_status;
    }
    std::sort(merged.begin(), merged.end());
    stats.results += merged.size();
  }
  for (size_t i = 0; i < queries.size(); ++i) out[i] = unique_out[unique_of[i]];
  metrics.results->Increment(stats.results);
  metrics.envelope_hits->Increment(stats.envelope_hits);
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

Result<std::vector<rdf::Binding>> GeoStore::QueryWithSpatialFilter(
    const rdf::Query& query, const std::string& subject_var,
    const geo::Box& query_box, bool use_index,
    SpatialQueryStats* stats_out, common::QueryProfile* profile_out) const {
  EEA_CHECK(spatial_built_) << "spatial query before Build()";
  const GeoStoreMetrics& metrics = GeoStoreMetrics::Get();
  common::TraceRequest req("strabon.QueryWithSpatialFilter");
  common::ProfileScope pscope;
  const bool profiling =
      profile_out != nullptr ||
      (pscope.is_root() && common::SlowQueryLog::Default().enabled());
  const auto query_start = std::chrono::steady_clock::now();
  common::ScopedLatencyTimer query_timer(metrics.query_latency_us);
  metrics.queries->Increment();
  common::QueryProfile prof;
  prof.query = "strabon.QueryWithSpatialFilter";
  prof.trace_id = req.trace_id();
  auto finish_profile = [&] {
    if (!profiling) return;
    prof.total_us = SecondsSince(query_start) * 1e6;
    if (profile_out != nullptr) *profile_out = prof;
    if (pscope.is_root()) {
      common::SlowQueryLog::Default().Record(std::move(prof));
    }
  };
  auto add_op = [&](const char* name, double secs, uint64_t rows_in,
                    uint64_t rows_out) -> common::OperatorProfile* {
    if (!profiling) return nullptr;
    common::OperatorProfile op;
    op.name = name;
    op.wall_us = secs * 1e6;
    op.rows_in = rows_in;
    op.rows_out = rows_out;
    prof.operators.push_back(std::move(op));
    return &prof.operators.back();
  };
  const common::RequestContext rctx = common::CurrentRequestContext();
  {
    Status entry = rctx.Check("strabon.QueryWithSpatialFilter");
    if (!entry.ok()) {
      CountAbort(metrics, entry, 0);
      prof.status = common::StatusCodeToString(entry.code());
      finish_profile();
      return entry;
    }
  }
  rdf::QueryEngine engine(&store_);
  if (use_index) {
    // Pushdown: compute the spatial candidates first, then restrict the
    // BGP results to them (semantically identical to post-filtering).
    SpatialQueryStats stats;
    const auto select_start = std::chrono::steady_clock::now();
    auto subjects_result =
        SpatialSelect(query_box, SpatialRelation::kIntersects, true, &stats);
    if (!subjects_result.ok()) {
      if (stats_out != nullptr) *stats_out = stats;
      prof.status =
          common::StatusCodeToString(subjects_result.status().code());
      finish_profile();
      return subjects_result.status();
    }
    std::vector<uint64_t> subjects = std::move(*subjects_result);
    if (common::OperatorProfile* op =
            add_op("spatial_select", SecondsSince(select_start),
                   geoms_.size(), subjects.size())) {
      op->envelope_hits = stats.envelope_hits;
      op->chunks = stats.threads_used;
      op->threads = stats.threads_used > 1 ? num_threads_ : 1;
    }
    if (stats_out != nullptr) *stats_out = stats;
    // No subject survives the spatial constraint: skip the BGP entirely.
    if (subjects.empty()) {
      finish_profile();
      return std::vector<rdf::Binding>{};
    }
    std::vector<rdf::Binding> out;
    const auto bgp_start = std::chrono::steady_clock::now();
    EEA_ASSIGN_OR_RETURN(std::vector<rdf::Binding> rows,
                         engine.Execute(query));
    add_op("bgp", SecondsSince(bgp_start), 0, rows.size());
    const auto filter_start = std::chrono::steady_clock::now();
    for (rdf::Binding& b : rows) {
      auto it = b.find(subject_var);
      if (it == b.end()) continue;
      if (std::binary_search(subjects.begin(), subjects.end(), it->second)) {
        out.push_back(std::move(b));
      }
    }
    add_op("subject_filter", SecondsSince(filter_start), rows.size(),
           out.size());
    finish_profile();
    return out;
  }
  // Baseline: evaluate the BGP, then test each binding's geometry.
  SpatialQueryStats stats;
  const auto bgp_start = std::chrono::steady_clock::now();
  EEA_ASSIGN_OR_RETURN(std::vector<rdf::Binding> rows, engine.Execute(query));
  add_op("bgp", SecondsSince(bgp_start), 0, rows.size());
  std::vector<rdf::Binding> out;
  const auto filter_start = std::chrono::steady_clock::now();
  const bool guarded = !rctx.unconstrained();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (guarded && (i % kPollStride) == 0) {
      Status s = rctx.Check("strabon.QueryWithSpatialFilter");
      if (!s.ok()) {
        CountAbort(metrics, s, 1);
        if (stats_out != nullptr) *stats_out = stats;
        prof.status = common::StatusCodeToString(s.code());
        finish_profile();
        return s;
      }
    }
    rdf::Binding& b = rows[i];
    auto it = b.find(subject_var);
    if (it == b.end()) continue;
    const size_t idx = IndexOf(it->second);
    if (idx == kNpos) continue;
    ++stats.candidates;
    if (EvalRelationAt(idx, query_box, SpatialRelation::kIntersects, &stats)) {
      out.push_back(std::move(b));
    }
  }
  if (common::OperatorProfile* op = add_op(
          "geometry_filter", SecondsSince(filter_start), rows.size(),
          out.size())) {
    op->envelope_hits = stats.envelope_hits;
  }
  stats.results = out.size();
  if (stats_out != nullptr) *stats_out = stats;
  finish_profile();
  return out;
}

namespace {

// True when the relation between two concrete geometries holds.
bool EvalGeomRelation(const geo::Geometry& a, const geo::Geometry& b,
                      SpatialRelation relation) {
  switch (relation) {
    case SpatialRelation::kIntersects:
      return geo::Intersects(a, b);
    case SpatialRelation::kContains:
      return geo::Contains(a, b);
    case SpatialRelation::kWithin:
      return geo::Within(a, b);
  }
  return false;
}

}  // namespace

Result<std::vector<std::pair<uint64_t, uint64_t>>> GeoStore::SpatialJoin(
    const std::string& class_a_iri, const std::string& class_b_iri,
    SpatialRelation relation, bool use_index,
    SpatialQueryStats* stats_out, common::QueryProfile* profile_out) const {
  EEA_CHECK(spatial_built_) << "SpatialJoin before Build()";
  const GeoStoreMetrics& metrics = GeoStoreMetrics::Get();
  common::TraceRequest req("strabon.SpatialJoin");
  common::ProfileScope pscope;
  const bool profiling =
      profile_out != nullptr ||
      (pscope.is_root() && common::SlowQueryLog::Default().enabled());
  const auto query_start = std::chrono::steady_clock::now();
  common::ScopedLatencyTimer query_timer(metrics.query_latency_us);
  metrics.queries->Increment();
  SpatialQueryStats stats;
  // Cooperative abort: joins are the runaway-memory risk (output is
  // quadratic in the worst case), so the per-query byte budget is
  // enforced here on every emitted pair, alongside deadline/cancel polls.
  const common::RequestContext rctx = common::CurrentRequestContext();
  const uint64_t budget = memory_budget_bytes_;
  const bool guarded = !rctx.unconstrained() || budget > 0;
  QueryAbort abort;
  std::atomic<uint64_t> bytes_used{0};
  {
    Status entry = rctx.Check("strabon.SpatialJoin");
    if (!entry.ok()) {
      CountAbort(metrics, entry, 0);
      if (stats_out != nullptr) *stats_out = stats;
      if (profiling) {
        common::QueryProfile prof;
        prof.query = "strabon.SpatialJoin";
        prof.trace_id = req.trace_id();
        prof.total_us = SecondsSince(query_start) * 1e6;
        prof.status = common::StatusCodeToString(entry.code());
        if (profile_out != nullptr) *profile_out = prof;
        if (pscope.is_root()) {
          common::SlowQueryLog::Default().Record(std::move(prof));
        }
      }
      return entry;
    }
  }
  // Members of a class that carry geometry, as dense arena indices.
  auto members_of = [&](const std::string& class_iri) {
    std::vector<uint32_t> out;
    auto type_id = store_.dict().Lookup(rdf::Term::Iri(rdf::vocab::kRdfType));
    auto class_id = store_.dict().Lookup(rdf::Term::Iri(class_iri));
    if (!type_id || !class_id) return out;
    store_.Scan(rdf::IdPattern{std::nullopt, *type_id, *class_id},
                [&](const rdf::TripleId& t) {
                  const size_t idx = IndexOf(t.s);
                  if (idx != kNpos) out.push_back(static_cast<uint32_t>(idx));
                  return true;
                });
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto members_start = std::chrono::steady_clock::now();
  const std::vector<uint32_t> as = members_of(class_a_iri);
  const std::vector<uint32_t> bs = members_of(class_b_iri);
  const double members_secs = SecondsSince(members_start);

  // Probe loop over `as`, partitioned across the pool; each worker probes
  // with thread-local output and stats, merged in chunk order before the
  // final deterministic sort.
  const auto probe_start = std::chrono::steady_clock::now();
  using Pairs = std::vector<std::pair<uint64_t, uint64_t>>;
  const size_t max_chunks = std::max<size_t>(1, num_threads_);
  std::vector<Pairs> chunk_out(max_chunks);
  std::vector<SpatialQueryStats> chunk_stats(max_chunks);
  std::vector<double> chunk_secs(max_chunks, 0.0);
  size_t used = 1;
  if (use_index) {
    // Probe the shared R-tree with each a-envelope; restrict hits to B
    // members via binary search on the sorted dense indices. The envelope
    // screen — the same check the exact predicate would start with, so a
    // screen reject is an envelope-decided "false" counted as an envelope
    // hit — is settled at each R-tree leaf with one kernel call over the
    // leaf's contiguous SoA slice, and rides into the candidate buffer as
    // kFastBit; only survivors pay the exact test.
    const simd::KernelTable& kern = simd::Kernels();
    const simd::EnvelopeColumns& eenv = rtree_.entry_envelopes();
    used = RunChunked(as.size(), [&](size_t c, size_t begin, size_t end) {
      const auto t0 = std::chrono::steady_clock::now();
      Pairs& local = chunk_out[c];
      SpatialQueryStats& lstats = chunk_stats[c];
      geo::RTree::TraversalStats tstats;
      std::vector<uint32_t> buf;  // b-candidates of one probe, reused
      bool stopped = false;
      for (size_t i = begin; i < end; ++i) {
        if (guarded) {
          if (abort.triggered()) {
            stopped = true;
            break;
          }
          if (((i - begin) % kPollStride) == 0) {
            Status s = rctx.Check("strabon.SpatialJoin");
            if (!s.ok()) {
              abort.Trigger(s.code());
              stopped = true;
              break;
            }
          }
        }
        const uint32_t a = as[i];
        const geo::Geometry& ga = geoms_[a];
        const geo::Box abox = env_cols_.At(a);
        buf.clear();
        rtree_.VisitLeavesWith(
            abox,
            [&](const int64_t* ids, uint32_t first, uint16_t count,
                uint64_t hits) {
              // The relation holds only if the envelopes do: Intersects
              // needs overlapping envelopes (the traversal mask itself),
              // Contains needs a's envelope to cover b's, Within the
              // reverse — exactly the pre-checks inside
              // geo::Intersects/Contains/Within.
              uint64_t screen = hits;
              switch (relation) {
                case SpatialRelation::kIntersects:
                  break;
                case SpatialRelation::kContains:
                  screen = kern.query_contains_envelope(
                      abox, eenv.Slice(first, count));
                  break;
                case SpatialRelation::kWithin:
                  screen = kern.envelope_contains_query(
                      abox, eenv.Slice(first, count));
                  break;
              }
              uint64_t m = hits;
              while (m != 0) {
                const int k = std::countr_zero(m);
                m &= m - 1;
                const auto b = static_cast<uint32_t>(ids[k]);
                if (b == a) continue;
                if (!std::binary_search(bs.begin(), bs.end(), b)) continue;
                buf.push_back(b |
                              (((screen >> k) & 1) != 0 ? kFastBit : 0u));
              }
              return true;
            },
            &tstats);
        for (size_t t = 0; t < buf.size(); ++t) {
          const uint32_t b = buf[t] & ~kFastBit;
          ++lstats.candidates;
          ++lstats.geometry_tests;
          bool match = false;
          if ((buf[t] & kFastBit) == 0) {
            ++lstats.envelope_hits;  // envelope screen decided "false"
          } else {
            match = EvalGeomRelation(ga, geoms_[b], relation);
          }
          if (match) {
            local.emplace_back(geom_subjects_[a], geom_subjects_[b]);
            if (budget > 0) {
              const uint64_t now_used =
                  bytes_used.fetch_add(sizeof(local[0]),
                                       std::memory_order_relaxed) +
                  sizeof(local[0]);
              if (now_used > budget) {
                abort.Trigger(common::StatusCode::kResourceExhausted);
                stopped = true;
                break;
              }
            }
          }
        }
        if (stopped) break;
      }
      if (stopped) lstats.chunks_cancelled = 1;
      lstats.nodes_visited += tstats.nodes_visited;
      chunk_secs[c] = SecondsSince(t0);
    });
  } else {
    used = RunChunked(as.size(), [&](size_t c, size_t begin, size_t end) {
      const auto t0 = std::chrono::steady_clock::now();
      Pairs& local = chunk_out[c];
      SpatialQueryStats& lstats = chunk_stats[c];
      bool stopped = false;
      for (size_t i = begin; i < end && !stopped; ++i) {
        if (guarded) {
          if (abort.triggered()) {
            stopped = true;
            break;
          }
          if (((i - begin) % kPollStride) == 0) {
            Status s = rctx.Check("strabon.SpatialJoin");
            if (!s.ok()) {
              abort.Trigger(s.code());
              stopped = true;
              break;
            }
          }
        }
        const uint32_t a = as[i];
        const geo::Geometry& ga = geoms_[a];
        for (uint32_t b : bs) {
          if (a == b) continue;
          // The inner loop dominates the baseline join, so the poll
          // rides the candidate count: one clock read per kPollStride
          // geometry tests.
          if (guarded && (lstats.candidates % kPollStride) == 0) {
            if (abort.triggered()) {
              stopped = true;
              break;
            }
            Status s = rctx.Check("strabon.SpatialJoin");
            if (!s.ok()) {
              abort.Trigger(s.code());
              stopped = true;
              break;
            }
          }
          ++lstats.candidates;
          ++lstats.geometry_tests;
          if (EvalGeomRelation(ga, geoms_[b], relation)) {
            local.emplace_back(geom_subjects_[a], geom_subjects_[b]);
            if (budget > 0) {
              const uint64_t now_used =
                  bytes_used.fetch_add(sizeof(local[0]),
                                       std::memory_order_relaxed) +
                  sizeof(local[0]);
              if (now_used > budget) {
                abort.Trigger(common::StatusCode::kResourceExhausted);
                stopped = true;
                break;
              }
            }
          }
        }
      }
      if (stopped) lstats.chunks_cancelled = 1;
      chunk_secs[c] = SecondsSince(t0);
    });
  }
  if (used > 1) metrics.parallel_chunks->Increment(used);
  stats.threads_used = used;
  Pairs out;
  for (size_t c = 0; c < used; ++c) {
    MergeStats(chunk_stats[c], &stats);
    out.insert(out.end(), chunk_out[c].begin(), chunk_out[c].end());
  }
  if (used > 1) {
    const double wall = SecondsSince(probe_start);
    double busy = 0.0;
    for (size_t c = 0; c < used; ++c) busy += chunk_secs[c];
    if (wall > 0.0) metrics.parallel_speedup->Set(busy / wall);
  }
  Status abort_status;
  if (abort.triggered()) {
    abort_status = abort.ToStatus("strabon.SpatialJoin");
    CountAbort(metrics, abort_status, stats.chunks_cancelled);
  } else {
    std::sort(out.begin(), out.end());
    stats.results = out.size();
    metrics.results->Increment(out.size());
    metrics.envelope_hits->Increment(stats.envelope_hits);
    metrics.result_cardinality->Observe(static_cast<double>(out.size()));
  }
  if (stats_out != nullptr) *stats_out = stats;
  if (profiling) {
    common::QueryProfile prof;
    prof.query = "strabon.SpatialJoin";
    prof.trace_id = req.trace_id();
    prof.total_us = SecondsSince(query_start) * 1e6;
    if (!abort_status.ok()) {
      prof.status = common::StatusCodeToString(abort_status.code());
    }
    common::OperatorProfile members_op;
    members_op.name = "members_scan";
    members_op.wall_us = members_secs * 1e6;
    members_op.rows_out = as.size() + bs.size();
    prof.operators.push_back(std::move(members_op));
    common::OperatorProfile probe_op;
    probe_op.name = use_index ? "index_probe_join" : "nested_loop_join";
    probe_op.wall_us = SecondsSince(probe_start) * 1e6;
    probe_op.rows_in = as.size();
    probe_op.rows_out = stats.results;
    probe_op.envelope_hits = stats.envelope_hits;
    probe_op.chunks = used;
    probe_op.threads = used > 1 ? num_threads_ : 1;
    prof.operators.push_back(std::move(probe_op));
    if (profile_out != nullptr) *profile_out = prof;
    if (pscope.is_root()) {
      common::SlowQueryLog::Default().Record(std::move(prof));
    }
  }
  if (!abort_status.ok()) return abort_status;
  return out;
}

const geo::Geometry* GeoStore::GeometryOf(uint64_t subject_id) const {
  const size_t idx = IndexOf(subject_id);
  return idx == kNpos ? nullptr : &geoms_[idx];
}

}  // namespace exearth::strabon
