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
// An unconstrained request with no memory budget skips both (the common
// fast path).
constexpr size_t kPollStride = 64;

class QueryAbort {
 public:
  QueryAbort(const common::RequestContext& rctx, const char* who,
             uint64_t budget)
      : rctx_(rctx),
        who_(who),
        budget_(budget),
        guarded_(!rctx.unconstrained() || budget > 0) {}

  bool triggered() const {
    return reason_.load(std::memory_order_relaxed) != 0;
  }

  // True when the worker at item `i` of its range must stop: another
  // worker aborted, or (every kPollStride-th item) the deadline or the
  // cancel token fired.
  bool Poll(size_t i) {
    if (!guarded_) return false;
    if (triggered()) return true;
    if (i % kPollStride != 0) return false;
    const Status s = rctx_.Check(who_);
    if (s.ok()) return false;
    Trigger(s.code());
    return true;
  }

  // Charges `bytes` of result memory to the query; true when that blew
  // the budget.
  bool Charge(uint64_t bytes) {
    if (budget_ == 0) return false;
    if (bytes_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes <=
        budget_) {
      return false;
    }
    Trigger(common::StatusCode::kResourceExhausted);
    return true;
  }

  common::Status ToStatus() const {
    const auto code = static_cast<common::StatusCode>(
        reason_.load(std::memory_order_relaxed));
    switch (code) {
      case common::StatusCode::kCancelled:
        return common::Status::Cancelled(std::string(who_) +
                                         ": request cancelled");
      case common::StatusCode::kResourceExhausted:
        return common::Status::ResourceExhausted(
            std::string(who_) + ": per-query memory budget exceeded");
      default:
        return common::Status::DeadlineExceeded(
            std::string(who_) + ": request deadline exceeded");
    }
  }

 private:
  void Trigger(common::StatusCode code) {
    int expected = 0;
    reason_.compare_exchange_strong(expected, static_cast<int>(code),
                                    std::memory_order_relaxed);
  }

  const common::RequestContext& rctx_;
  const char* who_;
  const uint64_t budget_;  // 0 = unlimited
  const bool guarded_;
  std::atomic<int> reason_{0};  // 0 = none, else a StatusCode
  std::atomic<uint64_t> bytes_used_{0};
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

// Everything a select refinement chunk worker needs, hoisted once per
// member: the rect polygon for kContains (built once instead of per
// candidate) and the cooperative-abort channel.
struct RefineJob {
  const std::vector<uint32_t>* candidates;  // arena index | kFastBit
  geo::Box query;
  SpatialRelation relation;
  const geo::Geometry* contains_rect;  // only for kContains
  const std::vector<geo::Geometry>* geoms;
  const std::vector<uint64_t>* subjects;
  QueryAbort* abort;
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
  QueryAbort& abort = *job.abort;
  for (size_t i = begin; i < end; ++i) {
    if (abort.Poll(i - begin)) {
      lstats->chunks_cancelled = 1;
      return;
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
      if (abort.Charge(sizeof(uint64_t))) {
        lstats->chunks_cancelled = 1;
        return;
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

// The frame every query method opens first: the request's trace root
// (which times the query into its latency histogram), the profile scope,
// the queries count, and the ambient request context. A QueryProfile is
// built only when the caller passed `profile_out` or, for the outermost
// query, the slow-query log is on.
class GeoStore::Call {
 public:
  Call(const char* name, common::QueryProfile* profile_out)
      : name_(name),
        req_(name, GeoStoreMetrics::Get().query_latency_us),
        profile_out_(profile_out),
        profiling_(profile_out != nullptr ||
                   (scope_.is_root() &&
                    common::SlowQueryLog::Default().enabled())),
        rctx_(common::CurrentRequestContext()) {
    GeoStoreMetrics::Get().queries->Increment();
  }

  const char* name() const { return name_; }
  const common::RequestContext& rctx() const { return rctx_; }

  // A request whose deadline passed or whose token fired before the query
  // started does no work, and is counted as aborted.
  Status Enter() const {
    Status s = rctx_.Check(name_);
    if (!s.ok()) CountAbort(GeoStoreMetrics::Get(), s, 0);
    return s;
  }

  // The profile to add operators to; null when none is being built.
  common::QueryProfile* profile() { return profiling_ ? &prof_ : nullptr; }

  // Stamps the profile with the outcome and hands it to the caller and,
  // for the outermost query, to the slow-query log.
  void Finish(const Status& status = Status::OK()) {
    if (!profiling_) return;
    prof_.query = name_;
    prof_.trace_id = req_.trace_id();
    prof_.total_us = SecondsSince(start_) * 1e6;
    if (!status.ok()) prof_.status = common::StatusCodeToString(status.code());
    if (profile_out_ != nullptr) *profile_out_ = prof_;
    if (scope_.is_root()) {
      common::SlowQueryLog::Default().Record(std::move(prof_));
    }
  }

 private:
  const char* name_;
  common::TraceRequest req_;
  common::ProfileScope scope_;
  common::QueryProfile* profile_out_;
  const bool profiling_;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  const common::RequestContext rctx_;
  common::QueryProfile prof_;
};

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

template <typename Fn>
size_t GeoStore::RunChunked(size_t n, const Fn& fn) const {
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
  std::vector<double> busy_secs(chunks, 0.0);
  const auto start = std::chrono::steady_clock::now();
  pool_->ParallelFor(chunks, [&](size_t c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(begin + chunk_size, n);
    const auto t0 = std::chrono::steady_clock::now();
    if (begin < end) fn(c, begin, end);
    busy_secs[c] = SecondsSince(t0);
  });
  const double wall = SecondsSince(start);
  double busy = 0.0;
  for (double secs : busy_secs) busy += secs;
  const GeoStoreMetrics& metrics = GeoStoreMetrics::Get();
  metrics.parallel_chunks->Increment(chunks);
  if (wall > 0.0) metrics.parallel_speedup->Set(busy / wall);
  return chunks;
}

Result<std::vector<uint64_t>> GeoStore::SpatialSelect(
    const geo::Box& query, SpatialRelation relation, bool use_index,
    SpatialQueryStats* stats_out, common::QueryProfile* profile_out) const {
  EEA_CHECK(spatial_built_) << "SpatialSelect before Build()";
  Call call("strabon.SpatialSelect", profile_out);
  const BatchSelectQuery member{query, relation};
  std::vector<uint64_t> out;
  SpatialQueryStats stats;
  const Status status = Select(call, {&member, 1}, use_index, "index_probe",
                               {&out, 1}, &stats);
  if (stats_out != nullptr) *stats_out = stats;
  if (!status.ok()) return status;
  GeoStoreMetrics::Get().result_cardinality->Observe(
      static_cast<double>(out.size()));
  return out;
}

Result<std::vector<std::vector<uint64_t>>> GeoStore::SpatialSelectBatch(
    const std::vector<BatchSelectQuery>& queries,
    SpatialQueryStats* stats_out) const {
  EEA_CHECK(spatial_built_) << "SpatialSelectBatch before Build()";
  Call call("strabon.SpatialSelectBatch", /*profile_out=*/nullptr);
  GeoStoreMetrics::Get().batch_queries->Increment(queries.size());
  SpatialQueryStats stats;
  std::vector<std::vector<uint64_t>> out(queries.size());
  if (queries.empty()) {
    if (stats_out != nullptr) *stats_out = stats;
    return out;
  }

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
  std::vector<std::vector<uint64_t>> unique_out(unique.size());
  const Status status = Select(call, unique, /*use_index=*/true,
                               "batch_index_probe", unique_out, &stats);
  if (stats_out != nullptr) *stats_out = stats;
  if (!status.ok()) return status;
  for (size_t i = 0; i < queries.size(); ++i) out[i] = unique_out[unique_of[i]];
  return out;
}

Status GeoStore::Select(Call& call, std::span<const BatchSelectQuery> members,
                        bool use_index, const char* probe_name,
                        std::span<std::vector<uint64_t>> out,
                        SpatialQueryStats* stats) const {
  Status status = call.Enter();
  if (!status.ok()) {
    call.Finish(status);
    return status;
  }
  // Candidate sets: dense arena indices, each carrying its member's
  // envelope fast-path verdict in kFastBit (see RefineChunkRange).
  std::vector<std::vector<uint32_t>> cand(members.size());
  const auto probe_start = std::chrono::steady_clock::now();
  if (use_index) {
    stats->nodes_visited = ProbeIndex(probe_name, members, cand);
  } else {
    // Baseline: test every geometry (full scan, the GraphDB stand-in).
    // The envelope verdicts stream sequentially through env_cols_, one
    // batched kernel call per kBatchMax features — no gather.
    const BatchSelectQuery& q = members[0];
    const simd::KernelTable& kern = simd::Kernels();
    std::vector<uint32_t>& all = cand[0];
    all.resize(geoms_.size());
    for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    for (size_t base = 0; base < all.size(); base += simd::kBatchMax) {
      const size_t n = std::min(simd::kBatchMax, all.size() - base);
      const simd::EnvelopeSpan slice = env_cols_.Slice(base, n);
      uint64_t fast = q.relation == SpatialRelation::kContains
                          ? kern.envelope_contains_query(q.box, slice)
                          : kern.query_contains_envelope(q.box, slice);
      while (fast != 0) {
        const int i = std::countr_zero(fast);
        fast &= fast - 1;
        all[base + static_cast<size_t>(i)] |= kFastBit;
      }
    }
  }
  const double probe_secs = SecondsSince(probe_start);

  const auto refine_start = std::chrono::steady_clock::now();
  for (size_t j = 0; j < members.size() && status.ok(); ++j) {
    stats->candidates += cand[j].size();
    status = Refine(call, members[j], cand[j], stats, &out[j]);
  }
  // An abort discards the (partial) result sets but keeps the
  // partial-work accounting: stats, counters, and the profile all record
  // how far the query got before it was stopped.
  if (status.ok()) {
    const GeoStoreMetrics& metrics = GeoStoreMetrics::Get();
    metrics.results->Increment(stats->results);
    metrics.envelope_hits->Increment(stats->envelope_hits);
  }
  if (common::QueryProfile* prof = call.profile()) {
    common::OperatorProfile probe_op;
    probe_op.name = use_index ? probe_name : "full_scan";
    probe_op.wall_us = probe_secs * 1e6;
    probe_op.rows_in = geoms_.size();
    probe_op.rows_out = stats->candidates;
    prof->operators.push_back(std::move(probe_op));
    common::OperatorProfile refine_op;
    refine_op.name = "refine";
    refine_op.wall_us = SecondsSince(refine_start) * 1e6;
    refine_op.rows_in = stats->candidates;
    refine_op.rows_out = stats->results;
    refine_op.envelope_hits = stats->envelope_hits;
    refine_op.chunks = stats->threads_used;
    refine_op.threads = stats->threads_used > 1 ? num_threads_ : 1;
    prof->operators.push_back(std::move(refine_op));
  }
  call.Finish(status);
  return status;
}

uint64_t GeoStore::ProbeIndex(const char* span_name,
                              std::span<const BatchSelectQuery> members,
                              std::span<std::vector<uint32_t>> cand) const {
  const GeoStoreMetrics& metrics = GeoStoreMetrics::Get();
  common::TraceSpan probe_span(span_name, metrics.probe_latency_us);
  metrics.index_probes->Increment();
  metrics.select_traversals->Increment();
  // ONE traversal over the union of the member boxes, demuxing each
  // touched leaf to the members whose own box it intersects. A member's
  // intersection mask over a leaf slice is a subset of the union-box hit
  // mask (member box inside ubox), so testing the member's box directly
  // both demuxes and prunes: each member collects exactly the entries a
  // traversal of its own box would. Only the candidate order differs,
  // which refinement's final sort erases.
  geo::Box ubox = members[0].box;
  for (const BatchSelectQuery& m : members.subspan(1)) {
    ubox.min_x = std::min(ubox.min_x, m.box.min_x);
    ubox.min_y = std::min(ubox.min_y, m.box.min_y);
    ubox.max_x = std::max(ubox.max_x, m.box.max_x);
    ubox.max_y = std::max(ubox.max_y, m.box.max_y);
  }
  const simd::KernelTable& kern = simd::Kernels();
  const simd::EnvelopeColumns& eenv = rtree_.entry_envelopes();
  geo::RTree::TraversalStats tstats;
  rtree_.VisitLeavesWith(
      ubox,
      [&](const int64_t* ids, uint32_t first, uint16_t count, uint64_t hits) {
        // Both envelope predicates are settled here, while the leaf's SoA
        // slice is hot: the intersection mask, and one more kernel call
        // over the same slice for the relation's fast-path predicate.
        const simd::EnvelopeSpan slice = eenv.Slice(first, count);
        for (size_t j = 0; j < members.size(); ++j) {
          const BatchSelectQuery& q = members[j];
          // A lone member's box is the union box: `hits` is its mask.
          uint64_t m = members.size() == 1
                           ? hits
                           : kern.envelope_intersects(q.box, slice);
          if (m == 0) continue;
          const uint64_t fast =
              q.relation == SpatialRelation::kContains
                  ? kern.envelope_contains_query(q.box, slice)
                  : kern.query_contains_envelope(q.box, slice);
          std::vector<uint32_t>& dst = cand[j];
          while (m != 0) {
            const int i = std::countr_zero(m);
            m &= m - 1;
            dst.push_back(static_cast<uint32_t>(ids[i]) |
                          (((fast >> i) & 1) != 0 ? kFastBit : 0u));
          }
        }
        return true;
      },
      &tstats);
  return tstats.nodes_visited;
}

Status GeoStore::Refine(const Call& call, const BatchSelectQuery& member,
                        const std::vector<uint32_t>& cand,
                        SpatialQueryStats* stats,
                        std::vector<uint64_t>* out) const {
  // Partitioned across the pool: thread-local result vectors and stats,
  // merged in chunk order (final order fixed by the sort).
  const GeoStoreMetrics& metrics = GeoStoreMetrics::Get();
  struct Chunk {
    std::vector<uint64_t> ids;
    SpatialQueryStats stats;
  };
  std::vector<Chunk> chunks(std::max<size_t>(1, num_threads_));
  QueryAbort abort(call.rctx(), call.name(), memory_budget_bytes_);
  const std::optional<geo::Geometry> rect =
      ContainsRectFor(member.box, member.relation);
  const RefineJob job{.candidates = &cand,
                      .query = member.box,
                      .relation = member.relation,
                      .contains_rect = rect.has_value() ? &*rect : nullptr,
                      .geoms = &geoms_,
                      .subjects = &geom_subjects_,
                      .abort = &abort};
  const size_t used =
      RunChunked(cand.size(), [&](size_t c, size_t begin, size_t end) {
        RefineChunkRange(job, begin, end, &chunks[c].ids, &chunks[c].stats);
        metrics.chunk_candidates->Observe(static_cast<double>(end - begin));
      });
  stats->threads_used = std::max<uint64_t>(stats->threads_used, used);
  for (size_t c = 0; c < used; ++c) {
    MergeStats(chunks[c].stats, stats);
    out->insert(out->end(), chunks[c].ids.begin(), chunks[c].ids.end());
  }
  if (abort.triggered()) {
    Status s = abort.ToStatus();
    CountAbort(metrics, s, stats->chunks_cancelled);
    return s;
  }
  std::sort(out->begin(), out->end());
  stats->results += out->size();
  return Status::OK();
}

Result<std::vector<rdf::Binding>> GeoStore::QueryWithSpatialFilter(
    const rdf::Query& query, const std::string& subject_var,
    const geo::Box& query_box, bool use_index,
    SpatialQueryStats* stats_out, common::QueryProfile* profile_out) const {
  EEA_CHECK(spatial_built_) << "spatial query before Build()";
  Call call("strabon.QueryWithSpatialFilter", profile_out);
  auto add_op = [&](const char* name, double secs, uint64_t rows_in,
                    uint64_t rows_out) -> common::OperatorProfile* {
    common::QueryProfile* prof = call.profile();
    if (prof == nullptr) return nullptr;
    common::OperatorProfile op;
    op.name = name;
    op.wall_us = secs * 1e6;
    op.rows_in = rows_in;
    op.rows_out = rows_out;
    prof->operators.push_back(std::move(op));
    return &prof->operators.back();
  };
  if (Status entry = call.Enter(); !entry.ok()) {
    call.Finish(entry);
    return entry;
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
      call.Finish(subjects_result.status());
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
      call.Finish();
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
    call.Finish();
    return out;
  }
  // Baseline: evaluate the BGP, then test each binding's geometry.
  SpatialQueryStats stats;
  const auto bgp_start = std::chrono::steady_clock::now();
  EEA_ASSIGN_OR_RETURN(std::vector<rdf::Binding> rows, engine.Execute(query));
  add_op("bgp", SecondsSince(bgp_start), 0, rows.size());
  std::vector<rdf::Binding> out;
  const auto filter_start = std::chrono::steady_clock::now();
  QueryAbort abort(call.rctx(), call.name(), /*budget=*/0);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (abort.Poll(i)) {
      const Status s = abort.ToStatus();
      CountAbort(GeoStoreMetrics::Get(), s, 1);
      if (stats_out != nullptr) *stats_out = stats;
      call.Finish(s);
      return s;
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
  call.Finish();
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
  Call call("strabon.SpatialJoin", profile_out);
  const GeoStoreMetrics& metrics = GeoStoreMetrics::Get();
  SpatialQueryStats stats;
  if (Status entry = call.Enter(); !entry.ok()) {
    if (stats_out != nullptr) *stats_out = stats;
    call.Finish(entry);
    return entry;
  }
  // Cooperative abort: joins are the runaway-memory risk (output is
  // quadratic in the worst case), so the per-query byte budget is
  // enforced here on every emitted pair, alongside deadline/cancel polls.
  QueryAbort abort(call.rctx(), call.name(), memory_budget_bytes_);
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
      Pairs& local = chunk_out[c];
      SpatialQueryStats& lstats = chunk_stats[c];
      geo::RTree::TraversalStats tstats;
      std::vector<uint32_t> buf;  // b-candidates of one probe, reused
      bool stopped = false;
      for (size_t i = begin; i < end; ++i) {
        if (abort.Poll(i - begin)) {
          stopped = true;
          break;
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
            if (abort.Charge(sizeof(local[0]))) {
              stopped = true;
              break;
            }
          }
        }
        if (stopped) break;
      }
      if (stopped) lstats.chunks_cancelled = 1;
      lstats.nodes_visited += tstats.nodes_visited;
    });
  } else {
    used = RunChunked(as.size(), [&](size_t c, size_t begin, size_t end) {
      Pairs& local = chunk_out[c];
      SpatialQueryStats& lstats = chunk_stats[c];
      bool stopped = false;
      for (size_t i = begin; i < end && !stopped; ++i) {
        if (abort.Poll(i - begin)) {
          stopped = true;
          break;
        }
        const uint32_t a = as[i];
        const geo::Geometry& ga = geoms_[a];
        for (uint32_t b : bs) {
          if (a == b) continue;
          // The inner loop dominates the baseline join, so the poll
          // rides the candidate count: one clock read per kPollStride
          // geometry tests.
          if (abort.Poll(lstats.candidates)) {
            stopped = true;
            break;
          }
          ++lstats.candidates;
          ++lstats.geometry_tests;
          if (EvalGeomRelation(ga, geoms_[b], relation)) {
            local.emplace_back(geom_subjects_[a], geom_subjects_[b]);
            if (abort.Charge(sizeof(local[0]))) {
              stopped = true;
              break;
            }
          }
        }
      }
      if (stopped) lstats.chunks_cancelled = 1;
    });
  }
  stats.threads_used = used;
  Pairs out;
  for (size_t c = 0; c < used; ++c) {
    MergeStats(chunk_stats[c], &stats);
    out.insert(out.end(), chunk_out[c].begin(), chunk_out[c].end());
  }
  Status abort_status;
  if (abort.triggered()) {
    abort_status = abort.ToStatus();
    CountAbort(metrics, abort_status, stats.chunks_cancelled);
  } else {
    std::sort(out.begin(), out.end());
    stats.results = out.size();
    metrics.results->Increment(out.size());
    metrics.envelope_hits->Increment(stats.envelope_hits);
    metrics.result_cardinality->Observe(static_cast<double>(out.size()));
  }
  if (stats_out != nullptr) *stats_out = stats;
  if (common::QueryProfile* prof = call.profile()) {
    common::OperatorProfile members_op;
    members_op.name = "members_scan";
    members_op.wall_us = members_secs * 1e6;
    members_op.rows_out = as.size() + bs.size();
    prof->operators.push_back(std::move(members_op));
    common::OperatorProfile probe_op;
    probe_op.name = use_index ? "index_probe_join" : "nested_loop_join";
    probe_op.wall_us = SecondsSince(probe_start) * 1e6;
    probe_op.rows_in = as.size();
    probe_op.rows_out = stats.results;
    probe_op.envelope_hits = stats.envelope_hits;
    probe_op.chunks = used;
    probe_op.threads = used > 1 ? num_threads_ : 1;
    prof->operators.push_back(std::move(probe_op));
  }
  call.Finish(abort_status);
  if (!abort_status.ok()) return abort_status;
  return out;
}

const geo::Geometry* GeoStore::GeometryOf(uint64_t subject_id) const {
  const size_t idx = IndexOf(subject_id);
  return idx == kNpos ? nullptr : &geoms_[idx];
}

}  // namespace exearth::strabon
