// Process-wide metrics: lock-cheap counters, gauges and fixed-bucket
// latency histograms, collected in a named registry with JSON export.
//
// Design goals (see README "Observability"):
//   - Hot-path cost is one relaxed atomic RMW per event. Registration
//     (name -> metric lookup) takes a mutex, so callers cache the returned
//     pointer, typically in a function-local static:
//
//       static common::Counter* queries =
//           common::MetricsRegistry::Default().GetCounter("sub.queries");
//       queries->Increment();
//
//   - Metric pointers are stable for the registry's lifetime; Reset()
//     zeroes values in place without invalidating pointers.
//   - Snapshots are taken concurrently with updates; per-metric values are
//     exact, cross-metric consistency is best-effort (no stop-the-world).

#ifndef EXEARTH_COMMON_METRICS_H_
#define EXEARTH_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace exearth::common {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down (queue depths, cache sizes, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  /// Set(v) if v is greater than the current value (tracks high-water
  /// marks, e.g. peak queue depth).
  void Max(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations in
/// (bounds[i-1], bounds[i]]; one extra overflow bucket counts observations
/// above the last bound. Percentiles are estimated by linear interpolation
/// inside the bucket holding the requested rank (the overflow bucket
/// interpolates up to the maximum observed value).
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> bounds);

  /// 24 exponential bounds from 1us doubling to ~8.4s — the default scale
  /// for latency histograms recorded in microseconds.
  static std::vector<double> DefaultLatencyBoundsUs();
  /// `count` bounds: start, start*factor, start*factor^2, ...
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               size_t count);

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;
  /// Estimated value at percentile `p` in [0, 100]; 0 when empty.
  double Percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Named metric registry. Get* registers on first use and returns the same
/// pointer for the same name thereafter; pointers stay valid until the
/// registry is destroyed.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed).
  static MetricsRegistry& Default();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` applies only on first registration; empty means
  /// DefaultLatencyBoundsUs().
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  /// JSON snapshot:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {name: {count, sum, min, max, p50, p95, p99,
  ///                          buckets: [{le, count}, ...]}}}
  /// Metric names are JSON-escaped (hostile names — quotes, control
  /// bytes, non-ASCII — cannot break the document; see JsonEscape).
  std::string ToJson() const;

  /// Point-in-time values of every registered metric, for exporters that
  /// need iteration (the Prometheus renderer, the windowed sampler).
  /// Per-metric values are exact; cross-metric consistency is best-effort,
  /// like ToJson(). Entries are sorted by name.
  struct HistogramSample {
    std::string name;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<double> bounds;     // bucket upper bounds
    std::vector<uint64_t> buckets;  // bounds.size() + 1 (overflow last)
  };
  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSample> histograms;
  };
  Snapshot TakeSnapshot() const;

  /// Zeroes every registered metric in place (pointers stay valid).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Escapes a string for inclusion in a JSON string literal (quotes not
/// included). Shared by the metrics and trace exporters. Output is pure
/// ASCII: control bytes AND bytes >= 0x7f are \u-escaped, so hostile
/// metric names (embedded quotes, newlines, invalid UTF-8) can never
/// produce a malformed document.
std::string JsonEscape(const std::string& s);

}  // namespace exearth::common

#endif  // EXEARTH_COMMON_METRICS_H_
