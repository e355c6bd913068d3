// Per-tenant SLO tracking for the serving layer: sliding-window burn
// rates for an availability objective (fraction of requests that
// succeed) and a latency objective (fraction under a threshold).
//
// Burn rate is the standard multi-window alerting quantity: the observed
// bad fraction divided by the error budget (1 - target). Burn 1.0 means
// the tenant is consuming its budget exactly at the sustainable rate;
// 10x means the budget for the whole window is gone in a tenth of it.
//
// Time is caller-supplied microseconds, so the tracker is exact and
// repeatable under the broker's virtual-clock wave API (same waves +
// same timestamps => identical burn rates). Internally each tenant gets
// a ring of per-second buckets covering the window; Record() is O(1).
//
// Outputs:
//   * PrometheusText() — a labeled gauge family
//                        serve_slo_burn_rate{tenant="...",slo="..."}
//                        for the admin /metrics collector hook
//   * TableText()      — the /tenantz SLO columns
//
// Thread-safe; one tracker serves all broker threads.

#ifndef EXEARTH_SERVE_SLO_H_
#define EXEARTH_SERVE_SLO_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace exearth::serve {

struct SloTarget {
  /// Success-fraction objective (0.999 = "three nines").
  double availability = 0.999;
  /// A request slower than this counts against the latency objective.
  double latency_threshold_us = 100000.0;
  /// Fraction of requests that must be under the threshold.
  double latency_goal = 0.99;
  /// Sliding evaluation window.
  int64_t window_us = 60'000'000;
};

/// One tenant's burn state at evaluation time.
struct SloBurn {
  std::string tenant;
  uint64_t total = 0;   // requests observed in the window
  uint64_t errors = 0;  // failed requests (sheds included)
  uint64_t slow = 0;    // successful but over the latency threshold
  double availability_burn = 0.0;  // error fraction / (1 - availability)
  double latency_burn = 0.0;       // slow fraction / (1 - latency_goal)
};

class SloTracker {
 public:
  /// `target` applies to every tenant without an explicit override.
  explicit SloTracker(SloTarget target = {});

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Per-tenant objective override; call before traffic for that tenant.
  void SetTarget(const std::string& tenant, SloTarget target);

  /// Accounts one finished (or shed) request. `ok` is the final status,
  /// `latency_us` the observed service latency (ignored when !ok),
  /// `now_us` the caller's clock. Out-of-window timestamps older than
  /// the newest seen second are dropped.
  void Record(const std::string& tenant, bool ok, double latency_us,
              int64_t now_us);

  /// Burn rates over each tenant's window ending at `now_us`, sorted by
  /// tenant name.
  std::vector<SloBurn> Evaluate(int64_t now_us) const;

  /// Labeled Prometheus gauge family for the admin /metrics collector:
  ///   serve_slo_burn_rate{tenant="...",slo="availability"|"latency"}
  std::string PrometheusText(int64_t now_us) const;

  /// Fixed-width table (tenant, window counts, burn rates) for /tenantz.
  std::string TableText(int64_t now_us) const;

 private:
  struct Bucket {
    int64_t second = -1;  // absolute second this bucket currently holds
    uint64_t total = 0;
    uint64_t errors = 0;
    uint64_t slow = 0;
  };
  struct Ring {
    SloTarget target;
    std::vector<Bucket> buckets;  // window seconds + 1, indexed sec % size
    int64_t newest_second = -1;
  };

  Ring* RingFor(const std::string& tenant);
  SloBurn EvaluateRing(const std::string& name, const Ring& ring,
                       int64_t now_us) const;

  SloTarget default_target_;
  mutable std::mutex mu_;
  std::map<std::string, Ring> rings_;  // sorted => deterministic output
};

}  // namespace exearth::serve

#endif  // EXEARTH_SERVE_SLO_H_
