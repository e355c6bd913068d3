// Request-scoped trace spans, recorded only when someone asks for them.
//
// A TraceRequest opens a request's root span and — when
// EventRecorder::Default() is enabled — installs a TraceContext (trace_id
// + current span_id) in the thread. Every TraceSpan that runs under an
// active context records a timestamped SpanEvent, linked to its parent
// span, into a per-thread ring buffer, so "why was *this* query slow?" is
// answerable span by span. ThreadPool captures the submitter's context at
// enqueue, so parallel chunks and fan-out work attach to the originating
// request. Export as Chrome trace_event JSON (chrome://tracing, Perfetto)
// or a text flame tree (the /tracez admin endpoint).
//
// A span may also own the latency histogram of the interval it marks: it
// then times its scope, recorded or not, and observes its duration in
// microseconds into the histogram when the scope ends.
//
//   Status HandleQuery() {
//     common::TraceRequest req("strabon.SpatialSelect", query_latency_us);
//     ...
//     { common::TraceSpan probe("strabon.index_probe"); ... }
//   }
//
// Hot-path cost: with the recorder off, a span without a histogram costs
// one relaxed load and reads no clock; a span with one reads the clock
// twice and observes one sample. The per-thread event ring mutex is
// uncontended except during export.

#ifndef EXEARTH_COMMON_TRACE_H_
#define EXEARTH_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace exearth::common {

class Histogram;

namespace trace_internal {
struct EventRing;
}  // namespace trace_internal

/// Identity of the request a thread is currently working for. trace_id 0
/// means "no active request" (spans then skip event recording entirely).
/// span_id is the innermost open span — the parent of the next span.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool active() const { return trace_id != 0; }
};

/// The calling thread's current context (inactive when none installed).
TraceContext CurrentTraceContext();

/// RAII adoption of a captured context — used by ThreadPool workers so
/// tasks attach to the request that enqueued them. Restores the previous
/// context on destruction; adopting an inactive context is a no-op pair.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;
  ~ScopedTraceContext();

 private:
  TraceContext saved_;
};

/// One completed span occurrence. `name` points at the call site's string
/// literal; timestamps are steady_clock nanoseconds.
struct SpanEvent {
  const char* name = nullptr;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 = root span of its request
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t tid = 0;  // recorder-assigned thread index
};

/// Process-wide sink for request-scoped span events: per-thread ring
/// buffers (bounded; oldest events overwritten) merged on export. Rings
/// of exited threads are retained, so worker spans survive pool teardown.
/// Disabled by default; all methods are thread-safe.
class EventRecorder {
 public:
  static EventRecorder& Default();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Capacity of rings created after the call (default 8192 events).
  void set_ring_capacity(size_t cap);

  /// Appends to the calling thread's ring (created and registered on
  /// first use). Called from ~TraceSpan; normally not called directly.
  void Record(const SpanEvent& event);

  /// All buffered events, across threads, ordered by start time.
  std::vector<SpanEvent> Snapshot() const;

  /// Events overwritten because a ring was full.
  uint64_t dropped() const;

  /// Chrome trace_event JSON ("X" complete events; ts/dur in
  /// microseconds relative to the recorder epoch) — loadable in
  /// chrome://tracing and Perfetto:
  ///   {"displayTimeUnit": "ms", "traceEvents": [
  ///     {"ph": "X", "name": ..., "ts": ..., "dur": ..., "pid": 1,
  ///      "tid": ..., "args": {"trace_id": ..., "span_id": ...,
  ///                           "parent_span_id": ...}}, ...]}
  std::string ToChromeTraceJson() const;

  /// Text flame tree, one block per trace (slowest first), spans nested
  /// by parent_span_id with durations and thread ids. A non-zero
  /// `only_trace_id` renders just that request's block (the /tracez
  /// admin endpoint's ?trace_id= filter).
  std::string ToFlameTreeText(uint64_t only_trace_id = 0) const;

  /// Clears every ring (registrations and capacity survive).
  void Reset();

 private:
  EventRecorder();

  std::shared_ptr<trace_internal::EventRing> RegisterRing();

  std::atomic<bool> enabled_{false};
  uint64_t epoch_ns_ = 0;
  mutable std::mutex mu_;
  size_t ring_capacity_ = 8192;
  uint32_t next_tid_ = 0;
  // Rings of live *and* exited threads (never unregistered).
  std::vector<std::shared_ptr<trace_internal::EventRing>> rings_;
};

/// RAII scope: under an active TraceContext with the recorder enabled,
/// emits a SpanEvent on destruction; with a `latency_us` histogram, also
/// observes its lifetime in microseconds into it. `name` must outlive
/// the span (string literals, or storage owned past the scope).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Histogram* latency_us = nullptr);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

 private:
  Histogram* const latency_us_;
  uint64_t start_ns_ = 0;  // read only for a histogram or an event
  // Event recording (only when a context was active at construction).
  const char* name_ = nullptr;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
};

/// Entry-point scope: a TraceSpan (with its optional latency histogram)
/// that also opens a request root. When the recorder is enabled and no
/// context is active, a fresh trace_id is allocated and installed for the
/// scope's lifetime (nested TraceRequests join the enclosing request
/// instead). trace_id() is 0 when recording is off — callers can stamp
/// it into profiles/log lines either way.
class TraceRequest {
 public:
  explicit TraceRequest(const char* name, Histogram* latency_us = nullptr)
      : root_(), span_(name, latency_us) {}
  TraceRequest(const TraceRequest&) = delete;
  TraceRequest& operator=(const TraceRequest&) = delete;

  uint64_t trace_id() const { return root_.trace_id; }

 private:
  // Installed before span_ so the root span records under the new
  // context, and removed after span_'s event is emitted.
  struct RootCtx {
    RootCtx();
    ~RootCtx();
    TraceContext saved;
    uint64_t trace_id = 0;
    bool installed = false;
  } root_;
  TraceSpan span_;
};

}  // namespace exearth::common

#endif  // EXEARTH_COMMON_TRACE_H_
