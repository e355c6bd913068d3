#include "link/spatial_links.h"

#include <algorithm>
#include <bit>
#include <functional>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "geo/rtree.h"
#include "geo/simd.h"

namespace exearth::link {

const char* SpatialLinkRelationName(SpatialLinkRelation r) {
  switch (r) {
    case SpatialLinkRelation::kIntersects:
      return "intersects";
    case SpatialLinkRelation::kContains:
      return "contains";
    case SpatialLinkRelation::kWithinDistance:
      return "withinDistance";
  }
  return "unknown";
}

namespace {

namespace simd = geo::simd;

// Process-lifetime metric handles, resolved once (registry lookups hash
// the name; the discovery loops only bump cached pointers).
struct LinkMetrics {
  common::Counter* queries;
  common::Counter* candidate_pairs;
  common::Counter* exact_tests;
  common::Counter* envelope_rejects;
  common::Counter* links;

  static const LinkMetrics& Get() {
    static LinkMetrics m = [] {
      auto& reg = common::MetricsRegistry::Default();
      return LinkMetrics{
          reg.GetCounter("link.spatial.queries"),
          reg.GetCounter("link.spatial.candidate_pairs"),
          reg.GetCounter("link.spatial.exact_tests"),
          reg.GetCounter("link.spatial.envelope_rejects"),
          reg.GetCounter("link.spatial.links"),
      };
    }();
    return m;
  }
};

bool ExactTest(const geo::Geometry& ga, const geo::Geometry& gb,
               const SpatialLinkOptions& options) {
  switch (options.relation) {
    case SpatialLinkRelation::kIntersects:
      return geo::Intersects(ga, gb);
    case SpatialLinkRelation::kContains:
      return geo::Contains(ga, gb);
    case SpatialLinkRelation::kWithinDistance:
      return geo::WithinDistance(ga, gb, options.distance);
  }
  return false;
}

// Runs fn(chunk, begin, end) over [0, n) split across `threads` workers
// (inline when threads <= 1 or n is small); returns chunks used.
size_t RunChunked(size_t n, size_t threads,
                  const std::function<void(size_t, size_t, size_t)>& fn) {
  constexpr size_t kMinItemsPerChunk = 16;
  size_t chunks = 1;
  if (threads > 1) {
    chunks = std::min(threads, (n + kMinItemsPerChunk - 1) / kMinItemsPerChunk);
  }
  if (chunks <= 1) {
    fn(0, 0, n);
    return 1;
  }
  const size_t chunk_size = (n + chunks - 1) / chunks;
  common::ThreadPool pool(chunks);
  pool.ParallelFor(chunks, [&](size_t c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(begin + chunk_size, n);
    if (begin < end) fn(c, begin, end);
  });
  return chunks;
}

}  // namespace

SpatialLinkResult DiscoverSpatialLinks(const std::vector<geo::Geometry>& a,
                                       const std::vector<geo::Geometry>& b,
                                       const SpatialLinkOptions& options) {
  common::TraceRequest req("link.DiscoverSpatialLinks");
  const LinkMetrics& metrics = LinkMetrics::Get();
  SpatialLinkResult result;
  // Worker-local accumulators, merged in chunk order below.
  struct Local {
    std::vector<std::pair<size_t, size_t>> links;
    uint64_t candidate_pairs = 0;
    uint64_t exact_tests = 0;
    uint64_t envelope_rejects = 0;
  };
  const size_t max_chunks = std::max<size_t>(1, options.num_threads);
  std::vector<Local> locals(max_chunks);
  size_t used = 1;
  if (!options.use_index) {
    used = RunChunked(a.size(), options.num_threads,
                      [&](size_t c, size_t begin, size_t end) {
                        Local& local = locals[c];
                        for (size_t i = begin; i < end; ++i) {
                          for (size_t j = 0; j < b.size(); ++j) {
                            ++local.candidate_pairs;
                            ++local.exact_tests;
                            if (ExactTest(a[i], b[j], options)) {
                              local.links.emplace_back(i, j);
                            }
                          }
                        }
                      });
  } else {
    // Index side B; probe each A envelope. The envelope screen is settled
    // at each R-tree leaf with one geo::simd kernel call over the leaf's
    // contiguous SoA envelope slice (the tree already keeps the columns —
    // no copy, no gather): each relation implies the corresponding
    // envelope relation (the exact predicates check it first anyway), so
    // a screen reject is a sound "false" that skips the exact test.
    std::vector<geo::RTree::Entry> entries;
    entries.reserve(b.size());
    for (size_t j = 0; j < b.size(); ++j) {
      entries.push_back({b[j].Envelope(), static_cast<int64_t>(j)});
    }
    geo::RTree tree = geo::RTree::BulkLoad(std::move(entries));
    const double margin =
        options.relation == SpatialLinkRelation::kWithinDistance
            ? options.distance
            : 0.0;
    const simd::KernelTable& kern = simd::Kernels();
    const simd::EnvelopeColumns& benv = tree.entry_envelopes();
    used = RunChunked(
        a.size(), options.num_threads, [&](size_t c, size_t begin, size_t end) {
          Local& local = locals[c];
          for (size_t i = begin; i < end; ++i) {
            const geo::Box probe = a[i].Envelope().Buffered(margin);
            tree.VisitLeavesWith(
                probe, [&](const int64_t* ids, uint32_t first,
                           uint16_t count, uint64_t hits) {
                  // Intersects and within-distance screen on the
                  // (buffered) traversal mask itself; containment needs
                  // a's envelope to cover b's — strictly narrower than
                  // the tree's intersection probe.
                  const uint64_t screen =
                      options.relation == SpatialLinkRelation::kContains
                          ? kern.query_contains_envelope(
                                probe, benv.Slice(first, count))
                          : hits;
                  uint64_t m = hits;
                  while (m != 0) {
                    const int k = std::countr_zero(m);
                    m &= m - 1;
                    ++local.candidate_pairs;
                    if (((screen >> k) & 1) == 0) {
                      ++local.envelope_rejects;
                      continue;
                    }
                    const auto j = static_cast<size_t>(ids[k]);
                    ++local.exact_tests;
                    if (ExactTest(a[i], b[j], options)) {
                      local.links.emplace_back(i, j);
                    }
                  }
                  return true;
                });
          }
        });
  }
  for (size_t c = 0; c < used; ++c) {
    result.candidate_pairs += locals[c].candidate_pairs;
    result.exact_tests += locals[c].exact_tests;
    result.envelope_rejects += locals[c].envelope_rejects;
    result.links.insert(result.links.end(), locals[c].links.begin(),
                        locals[c].links.end());
  }
  std::sort(result.links.begin(), result.links.end());
  metrics.queries->Increment();
  metrics.candidate_pairs->Increment(result.candidate_pairs);
  metrics.exact_tests->Increment(result.exact_tests);
  metrics.envelope_rejects->Increment(result.envelope_rejects);
  metrics.links->Increment(result.links.size());
  return result;
}

}  // namespace exearth::link
