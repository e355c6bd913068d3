// Closed-loop / open-loop load generator for the serving layer (E17).
//
// The generator simulates `num_users` users spread across the broker's
// registered tenants with Zipfian skew (a few tenants carry most of the
// offered load, the long tail trickles), drawing queries from a seeded,
// precomputed pool so popular queries repeat — which is what makes the
// result cache and cross-request batching do real work.
//
// Two arrival modes, both on a VIRTUAL clock so runs are deterministic:
//
//   * kClosed — `concurrency` users each keep exactly one request in
//     flight: every wave offers `concurrency` requests at virtual time
//     w * wave_virtual_us and waits for all of them (classic closed-loop
//     think-time-zero load).
//   * kOpen   — arrivals are a Poisson process at `arrival_rps` on the
//     virtual clock (Exponential inter-arrivals); arrivals landing in the
//     same `tick_us` window form one wave, modeling requests that are
//     concurrently in flight under open load.
//
// Everything stochastic flows from LoadGenOptions::seed through one
// master Rng, so the offered stream — tenants, query shapes, arrival
// times — is byte-identical across runs. Combined with
// QueryBroker::ExecuteWave's determinism, every counter in the report
// except the wall-clock latency percentiles is reproducible, which is
// what the serving-load CI gate asserts.
//
// Latency percentiles are computed from Response::latency_us (wall time
// of the executing unit) and are reported for humans; they are NOT part
// of the deterministic surface.

#ifndef EXEARTH_SERVE_LOADGEN_H_
#define EXEARTH_SERVE_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geo/geometry.h"
#include "serve/broker.h"

namespace exearth::serve {

enum class ArrivalMode {
  kClosed = 0,  // fixed concurrency, wave per wave
  kOpen = 1,    // Poisson arrivals on the virtual clock
};

struct LoadGenOptions {
  uint64_t seed = 42;
  ArrivalMode mode = ArrivalMode::kClosed;

  // --- closed loop ---
  /// Requests in flight per wave.
  size_t concurrency = 64;
  /// Waves to run.
  size_t waves = 100;
  /// Virtual time between waves, microseconds (drives token-bucket refill).
  int64_t wave_virtual_us = 1000;

  // --- open loop ---
  /// Total offered arrival rate, requests per virtual second.
  double arrival_rps = 50000.0;
  /// Arrivals to generate before stopping.
  size_t total_requests = 10000;
  /// Arrivals within one tick are concurrently in flight (one wave).
  int64_t tick_us = 1000;

  // --- population & skew ---
  /// Simulated user population; users map onto tenants round-robin, so
  /// Zipf skew over users induces skew over tenants.
  uint64_t num_users = 10000;
  /// Zipf exponent for user (and therefore tenant) popularity.
  double zipf_s = 1.1;
  /// Distinct query shapes in the pool.
  size_t query_pool = 256;
  /// Zipf exponent for query popularity within the pool.
  double query_zipf_s = 1.2;

  // --- select geometry ---
  /// World the query boxes live in.
  geo::Box world{0.0, 0.0, 1000.0, 1000.0};
  /// Maximum side length of a generated select box.
  double box_extent = 25.0;
};

/// Per-tenant slice of the run.
struct TenantLoadStats {
  std::string name;
  uint64_t offered = 0;
  uint64_t ok = 0;
  uint64_t quota_shed = 0;
  uint64_t admission_shed = 0;
  uint64_t errors = 0;
  uint64_t cache_hits = 0;
  uint64_t batched = 0;  // served by a shared-traversal group (size > 1)
};

struct LoadGenReport {
  // Deterministic surface (pure function of seed + broker state).
  uint64_t offered = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t quota_shed = 0;
  uint64_t admission_shed = 0;
  uint64_t cache_hits = 0;
  uint64_t batched_requests = 0;
  /// Sum of per-response result hashes (order-independent).
  uint64_t result_hash = 0;
  uint64_t waves = 0;
  int64_t virtual_duration_us = 0;
  std::vector<TenantLoadStats> tenants;

  // Wall-clock surface (for humans; excluded from determinism gates).
  double throughput_rps = 0.0;  // ok per WALL second actually measured
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  double mean_us = 0.0;

  /// One-paragraph human summary.
  std::string Summary() const;
};

/// Drives `broker` with the generated workload over the given tenants
/// (ids from QueryBroker::RegisterTenant; must be non-empty). Uses the
/// deterministic ExecuteWave path.
LoadGenReport RunLoadGen(QueryBroker* broker,
                         const std::vector<TenantId>& tenants,
                         const LoadGenOptions& options);

}  // namespace exearth::serve

#endif  // EXEARTH_SERVE_LOADGEN_H_
