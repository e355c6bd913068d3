// Multi-tenant query serving layer (ROADMAP item 1): the system's front
// door. A QueryBroker accepts waves of concurrent SpatialSelect requests
// (a box and a spatial relation) from many tenants and pushes each
// through a fixed pipeline:
//
//   quota -> admission -> cache -> batch -> execute -> cache fill
//
//   * quota      — per-tenant token bucket (rate + burst) over the wave's
//                  virtual clock; a tenant over its quota is shed with
//                  ResourceExhausted before touching any queue.
//   * admission  — the PR-5 AdmissionController ("admission.serve.*"): a
//                  broker-wide bounded queue with priority water lines;
//                  the tenant's priority class decides who sheds first
//                  under overload.
//   * cache      — LRU result cache keyed by (tenant, box, relation).
//                  Entries record the GeoStore's data_epoch() at fill
//                  time; a GeoStore ingest bumps the epoch, so stale
//                  entries invalidate themselves at next lookup (no stale
//                  reads, ever). Tenants never share entries.
//   * batch      — every executable select of a wave joins a select group
//                  of up to max_batch members (service order), and each
//                  group is answered by ONE shared traversal
//                  (GeoStore::SpatialSelectBatch) with per-request result
//                  demux. max_batch = 1 is the unbatched ablation: one
//                  traversal per request.
//   * execute    — each select group runs under the deadline of its first
//                  member's tenant in service order
//                  (ScopedRequestContext) and a "serve.batch" trace span.
//
// Fairness: ExecuteWave services admitted requests in weighted round-
// robin order across tenants (weight w gets up to w consecutive slots per
// cycle), so a tenant flooding 10x its share cannot starve another
// tenant's queue position — the victim's k-th request is serviced within
// (total_weight / its_weight) * k + total_weight slots regardless of how
// much the hog offers. Response::service_slot exposes the position for
// tests and the load generator.
//
// ExecuteWave(offered, now_us) is the one entry point: a closed-loop wave
// of requests at one virtual timestamp, fully deterministic (same wave +
// same now_us => byte-identical responses and counters).
//
// Observable: serve.requests / serve.ok / serve.errors, serve.quota.shed,
// admission.serve.* (from the controller), serve.cache.{hits,misses,
// invalidated,evicted}, serve.batch.{groups,batched_requests},
// serve.request_latency_us.

#ifndef EXEARTH_SERVE_BROKER_H_
#define EXEARTH_SERVE_BROKER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/admission.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "geo/geometry.h"
#include "strabon/geostore.h"

namespace exearth::serve {

/// A serving request: the features whose geometry stands in `relation`
/// to `box`. Fingerprint() gives its cache identity (tenant is keyed
/// separately — two tenants issuing the same query never share a cache
/// entry).
struct Request {
  geo::Box box;
  strabon::SpatialRelation relation = strabon::SpatialRelation::kIntersects;

  static Request SpatialSelect(
      const geo::Box& box,
      strabon::SpatialRelation rel = strabon::SpatialRelation::kIntersects);

  /// Deterministic content hash (FNV-1a over the box and the relation).
  uint64_t Fingerprint() const;
};

/// Which pipeline stage shed a rejected request (both stages reject with
/// ResourceExhausted; this disambiguates them for accounting).
enum class ShedStage {
  kNone = 0,
  kQuota = 1,      // tenant token bucket
  kAdmission = 2,  // broker-wide admission queue
};

/// Outcome of one request: the selected feature ids on success.
struct Response {
  common::Status status;
  ShedStage shed = ShedStage::kNone;
  std::vector<uint64_t> ids;

  bool cache_hit = false;
  /// Served by a shared-traversal batch group of this many members
  /// (1 = executed alone).
  uint64_t batch_size = 1;
  /// Order-independent hash of the result content (0 on error).
  uint64_t result_hash = 0;
  /// Service position assigned by the weighted-fair scheduler (0 for the
  /// first request serviced in the wave).
  uint64_t service_slot = 0;
  /// Wall-clock service time of the executing unit, microseconds.
  double latency_us = 0.0;
};

/// Per-tenant serving contract.
struct TenantOptions {
  /// Token-bucket refill rate, requests per second of (virtual) time.
  double quota_rps = 1000.0;
  /// Bucket capacity: how far above the steady rate a burst may go.
  double quota_burst = 100.0;
  /// Weighted-fair share; a tenant with weight w gets up to w consecutive
  /// service slots per round-robin cycle. Must be >= 1.
  uint32_t weight = 1;
  /// Admission priority class (lower classes shed first under overload).
  common::Priority priority = common::Priority::kInteractive;
  /// Per-request deadline; 0 = none. A select group runs under the
  /// deadline of its first member in service order.
  int64_t deadline_us = 0;
};

using TenantId = uint32_t;

struct BrokerOptions {
  /// Broker-wide admission queue ("admission.serve.*" metrics).
  common::AdmissionOptions admission{.max_depth = 1024};
  /// Largest select group: the SpatialSelects sharing one traversal. 1 =
  /// every request traverses alone (the unbatched ablation).
  size_t max_batch = 64;
  /// Result-cache entries across all tenants; 0 disables caching.
  size_t cache_capacity = 4096;
  /// Worker threads for executing the select groups of one wave in
  /// parallel (each group may itself parallelize inside GeoStore). <= 1
  /// executes groups inline.
  size_t num_threads = 1;
};

/// One offered request of a wave: which tenant wants what.
struct Offered {
  TenantId tenant = 0;
  Request request;
};

/// Point-in-time accounting for one tenant (the /tenantz table).
struct TenantStats {
  std::string name;
  uint32_t weight = 1;
  common::Priority priority = common::Priority::kInteractive;
  double quota_rps = 0.0;
  uint64_t offered = 0;         // requests this tenant presented
  uint64_t ok = 0;              // served successfully (cache hits included)
  uint64_t errors = 0;          // failed, sheds excluded
  uint64_t quota_shed = 0;      // rejected by the tenant token bucket
  uint64_t admission_shed = 0;  // rejected by the broker admission queue
  uint64_t cache_hits = 0;
  uint64_t batched = 0;  // served by a shared-traversal group (size > 1)
};

class SloTracker;

/// The serving front door. Thread-safe after configuration: Register*
/// and set_* calls must happen before serving starts.
class QueryBroker {
 public:
  explicit QueryBroker(BrokerOptions options = {});
  ~QueryBroker();

  QueryBroker(const QueryBroker&) = delete;
  QueryBroker& operator=(const QueryBroker&) = delete;

  /// The GeoStore every select runs against (not owned).
  void set_store(const strabon::GeoStore* store) { store_ = store; }

  /// Registers a tenant; the returned id names it in Offered requests.
  TenantId RegisterTenant(std::string name, TenantOptions options);
  size_t num_tenants() const { return tenants_.size(); }
  const std::string& tenant_name(TenantId id) const;

  /// Serves a closed wave of concurrent requests at virtual time `now_us`:
  /// quota + admission + cache in weighted-fair service order, batch
  /// grouping across the whole wave, group execution (parallel across
  /// options.num_threads), cache fill in service order. Deterministic:
  /// responses and every serve.* counter depend only on (wave, now_us,
  /// broker state).
  std::vector<Response> ExecuteWave(const std::vector<Offered>& offered,
                                    int64_t now_us);

  /// Entries currently cached (stale entries count until evicted).
  size_t cache_size() const;

  const BrokerOptions& options() const { return options_; }
  common::AdmissionController* admission() { return &admission_; }

  /// Attaches an SLO tracker (not owned): every finished or shed request
  /// is Record()ed under the tenant's name at the wave's virtual now_us
  /// (deterministic counts).
  void set_slo_tracker(SloTracker* tracker) { slo_ = tracker; }

  /// Per-tenant accounting snapshot, registration order (the /tenantz
  /// admin page).
  std::vector<TenantStats> TenantStatsSnapshot() const;

  /// Starts draining: every subsequent request is answered Unavailable
  /// and CheckReady() fails, so /healthz flips to 503 and load balancers
  /// route away while in-flight work finishes.
  void BeginShutdown() {
    shutting_down_.store(true, std::memory_order_release);
  }
  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_acquire);
  }

  /// Readiness probe: OK when the broker can serve (a store is set and
  /// the broker is not shutting down).
  common::Status CheckReady() const;

 private:
  // Deterministic token bucket over caller-supplied microsecond time.
  struct TokenBucket {
    double tokens;
    double capacity;
    double per_us;
    int64_t last_us = -1;
    bool TryTake(int64_t now_us);
  };

  struct Tenant {
    std::string name;
    TenantOptions options;
    TokenBucket bucket;
    std::mutex mu;  // guards bucket
    // Accounting for /tenantz (relaxed; read via TenantStatsSnapshot).
    std::atomic<uint64_t> offered{0};
    std::atomic<uint64_t> ok{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> quota_shed{0};
    std::atomic<uint64_t> admission_shed{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> batched{0};
  };

  struct CacheKey {
    TenantId tenant;
    uint64_t fingerprint;
    bool operator==(const CacheKey& o) const {
      return tenant == o.tenant && fingerprint == o.fingerprint;
    }
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const {
      return static_cast<size_t>(k.fingerprint ^
                                 (static_cast<uint64_t>(k.tenant) *
                                  0x9e3779b97f4a7c15ULL));
    }
  };
  struct CacheEntry {
    CacheKey key;
    uint64_t epoch;
    std::vector<uint64_t> ids;
    uint64_t result_hash = 0;
  };

  Tenant* tenant(TenantId id);
  /// The store's data_epoch() (0 without a store): cache entries filled
  /// under another epoch are stale.
  uint64_t DataEpoch() const;

  /// Cache lookup; fills `out` and returns true on a fresh hit. Counts
  /// hits/misses/invalidations.
  bool CacheGet(const CacheKey& key, Response* out);
  void CachePut(const CacheKey& key, const Response& resp);

  /// Executes a select group via one shared traversal and demuxes into
  /// the members' responses.
  void ExecuteSelectGroup(const std::vector<const Request*>& requests,
                          const std::vector<Response*>& responses);

  BrokerOptions options_;
  const strabon::GeoStore* store_ = nullptr;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  common::AdmissionController admission_;
  std::atomic<bool> shutting_down_{false};
  SloTracker* slo_ = nullptr;

  // LRU cache: map -> list iterators, most-recent at front.
  mutable std::mutex cache_mu_;
  std::list<CacheEntry> cache_lru_;
  std::unordered_map<CacheKey, std::list<CacheEntry>::iterator, CacheKeyHash>
      cache_index_;

  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace exearth::serve

#endif  // EXEARTH_SERVE_BROKER_H_
