// Measurement plumbing shared by the eebench workloads: the bench's own
// span log (the traced run), quantiles, MetricsRegistry counter deltas,
// process and directory probes, and the report every workload fills.
//
// Spans are recorded only around the benchmark's own calls into each
// module's public functions; nothing inside src/ is instrumented for
// this. With tracing off a ScopedSpan costs one relaxed load.

#ifndef EEBENCH_HARNESS_H_
#define EEBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eebench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();
double MsBetween(int64_t start_ns, int64_t end_ns);

/// Waits until `deadline_ns` (NowNs() scale): a coarse sleep, then a spin
/// over the last 2 ms so open-loop waves start on their tick. Returns how
/// late it woke.
int64_t SleepUntilNs(int64_t deadline_ns);

// ------------------------------------------------------------------ spans

struct Span {
  const char* name = nullptr;  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the log, -1 for a root
  int64_t tag = -1;     // product index or wave index, -1 when none
};

/// Process-wide in-memory span log, written out once at exit.
class SpanLog {
 public:
  static SpanLog& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span under the calling thread's current span.
  int32_t Open(const char* name, int64_t tag);
  void Close(int32_t id);
  void Clear();

  std::vector<Span> Snapshot() const;
  /// {"spans": [[name, start_us, end_us, parent, tag], ...]} with times
  /// relative to the first span.
  std::string ToJson() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op while the log is disabled. The thread's current
/// span becomes this one's parent-to-be for nested spans.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t tag = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t id_ = -1;
  int32_t saved_parent_ = -1;
};

/// Durations (ms) of every closed span named `name`.
std::vector<double> SpanDurationsMs(const std::vector<Span>& spans,
                                    std::string_view name);

// -------------------------------------------------------------- quantiles

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Quantile over (value, weight) pairs: each value counts `weight` times
/// (one open-loop wave stands for all the requests it answered).
double WeightedQuantile(std::vector<std::pair<double, uint64_t>> values,
                        double q);

// -------------------------------------------------------- process probes

/// Every MetricsRegistry counter by name.
std::map<std::string, uint64_t> CounterSnapshot();

/// Counter growth between two snapshots (0 when absent from `after`).
uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& name);

/// VmHWM of this process in MiB.
double PeakRssMb();

/// Bytes of every regular file under `dir`.
uint64_t DirBytes(const std::string& dir);

/// A mkdtemp directory under `root`, removed recursively on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& root);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------- hashing

/// FNV-1a fold; the result hash of every workload.
class Hasher {
 public:
  void Mix(uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
  }
  void MixString(std::string_view s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// splitmix64 finalizer: spreads a value before an order-independent sum.
uint64_t Scramble(uint64_t v);

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. Verification failures land in
/// `errors`; a run with any error reports no metrics.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t result_hash = 0;
  std::vector<std::string> errors;

  void EndToEnd(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a verification failure unless `ok`.
  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// a / b, 0 when b is 0 (ratios over counters a run may not touch).
double Ratio(double a, double b);

}  // namespace eebench

#endif  // EEBENCH_HARNESS_H_
