#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "common/metrics.h"
#include "common/string_util.h"

namespace exearth::common {

namespace trace_internal {

/// Bounded per-thread event buffer. All access (including the owning
/// thread's appends) goes through `mu` so exports may run concurrently
/// with recording; the lock is uncontended outside exports.
struct EventRing {
  std::mutex mu;
  uint32_t tid = 0;
  size_t capacity = 0;
  size_t next = 0;  // overwrite position once full
  uint64_t dropped = 0;
  std::vector<SpanEvent> events;
};

}  // namespace trace_internal

using trace_internal::EventRing;

namespace {

thread_local TraceContext g_trace_context;

std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<uint64_t> g_next_span_id{1};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TraceContext CurrentTraceContext() { return g_trace_context; }

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx)
    : saved_(g_trace_context) {
  g_trace_context = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { g_trace_context = saved_; }

// --- EventRecorder -----------------------------------------------------

EventRecorder::EventRecorder() : epoch_ns_(NowNs()) {}

EventRecorder& EventRecorder::Default() {
  static EventRecorder* recorder = new EventRecorder();  // never freed
  return *recorder;
}

void EventRecorder::set_ring_capacity(size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_capacity_ = std::max<size_t>(1, cap);
}

std::shared_ptr<EventRing> EventRecorder::RegisterRing() {
  auto ring = std::make_shared<EventRing>();
  std::lock_guard<std::mutex> lock(mu_);
  ring->tid = next_tid_++;
  ring->capacity = ring_capacity_;
  ring->events.reserve(std::min<size_t>(ring->capacity, 256));
  rings_.push_back(ring);
  return ring;
}

void EventRecorder::Record(const SpanEvent& event) {
  // One ring per thread, owned jointly by this thread_local and the
  // recorder's registry — so events survive the thread's exit. Only the
  // default recorder is ever recorded into (TraceSpan hardcodes it), so
  // a per-thread (rather than per-recorder) cache is correct.
  thread_local std::shared_ptr<EventRing> ring = RegisterRing();
  std::lock_guard<std::mutex> lock(ring->mu);
  SpanEvent ev = event;
  ev.tid = ring->tid;
  if (ring->events.size() < ring->capacity) {
    ring->events.push_back(ev);
  } else {
    ring->events[ring->next] = ev;
    ring->next = (ring->next + 1) % ring->capacity;
    ++ring->dropped;
  }
}

std::vector<SpanEvent> EventRecorder::Snapshot() const {
  std::vector<std::shared_ptr<EventRing>> rings;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rings = rings_;
  }
  std::vector<SpanEvent> out;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    out.insert(out.end(), ring->events.begin(), ring->events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.span_id < b.span_id;
            });
  return out;
}

uint64_t EventRecorder::dropped() const {
  std::vector<std::shared_ptr<EventRing>> rings;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rings = rings_;
  }
  uint64_t total = 0;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    total += ring->dropped;
  }
  return total;
}

void EventRecorder::Reset() {
  std::vector<std::shared_ptr<EventRing>> rings;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rings = rings_;
  }
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    ring->events.clear();
    ring->next = 0;
    ring->dropped = 0;
  }
}

std::string EventRecorder::ToChromeTraceJson() const {
  const std::vector<SpanEvent> events = Snapshot();
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const SpanEvent& ev : events) {
    if (!first) out += ",\n";
    first = false;
    const double ts_us =
        static_cast<double>(ev.start_ns - epoch_ns_) / 1000.0;
    const double dur_us =
        static_cast<double>(ev.end_ns - ev.start_ns) / 1000.0;
    out += StrFormat(
        "{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"exearth\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
        "\"args\": {\"trace_id\": %llu, \"span_id\": %llu, "
        "\"parent_span_id\": %llu}}",
        JsonEscape(ev.name).c_str(), ts_us, dur_us, ev.tid,
        static_cast<unsigned long long>(ev.trace_id),
        static_cast<unsigned long long>(ev.span_id),
        static_cast<unsigned long long>(ev.parent_span_id));
  }
  out += "\n]}\n";
  return out;
}

namespace {

struct FlameNode {
  const SpanEvent* event;
  std::vector<const FlameNode*> children;
};

void RenderFlame(const FlameNode& node, int depth, std::string* out) {
  const SpanEvent& ev = *node.event;
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += StrFormat("%-*s %10.1f us  [tid %u]\n",
                    std::max(1, 40 - depth * 2), ev.name,
                    static_cast<double>(ev.end_ns - ev.start_ns) / 1000.0,
                    ev.tid);
  for (const FlameNode* child : node.children) {
    RenderFlame(*child, depth + 1, out);
  }
}

}  // namespace

std::string EventRecorder::ToFlameTreeText(uint64_t only_trace_id) const {
  std::vector<SpanEvent> events = Snapshot();
  if (only_trace_id != 0) {
    events.erase(std::remove_if(events.begin(), events.end(),
                                [&](const SpanEvent& ev) {
                                  return ev.trace_id != only_trace_id;
                                }),
                 events.end());
  }
  // Index spans by id, attach children, group roots by trace. A span
  // whose parent was overwritten in its ring renders as a root.
  std::map<uint64_t, FlameNode> nodes;
  for (const SpanEvent& ev : events) nodes[ev.span_id] = FlameNode{&ev, {}};
  std::map<uint64_t, std::vector<const FlameNode*>> roots_by_trace;
  for (auto& [id, node] : nodes) {
    auto parent = nodes.find(node.event->parent_span_id);
    if (node.event->parent_span_id != 0 && parent != nodes.end()) {
      parent->second.children.push_back(&node);
    } else {
      roots_by_trace[node.event->trace_id].push_back(&node);
    }
  }
  auto by_start = [](const FlameNode* a, const FlameNode* b) {
    return a->event->start_ns < b->event->start_ns;
  };
  for (auto& [id, node] : nodes) {
    std::sort(node.children.begin(), node.children.end(), by_start);
  }
  // Traces ordered by total root duration, slowest first.
  std::vector<std::pair<uint64_t, uint64_t>> order;  // {total_ns, trace_id}
  for (auto& [trace_id, roots] : roots_by_trace) {
    std::sort(roots.begin(), roots.end(), by_start);
    uint64_t total = 0;
    for (const FlameNode* r : roots) {
      total += r->event->end_ns - r->event->start_ns;
    }
    order.emplace_back(total, trace_id);
  }
  std::sort(order.rbegin(), order.rend());
  std::map<uint64_t, size_t> spans_per_trace;
  for (const SpanEvent& ev : events) ++spans_per_trace[ev.trace_id];
  std::string out;
  for (const auto& [total_ns, trace_id] : order) {
    out += StrFormat("trace %llu  (%zu spans, %.1f us)\n",
                     static_cast<unsigned long long>(trace_id),
                     spans_per_trace[trace_id],
                     static_cast<double>(total_ns) / 1000.0);
    for (const FlameNode* root : roots_by_trace[trace_id]) {
      RenderFlame(*root, 1, &out);
    }
  }
  if (dropped() > 0) {
    out += StrFormat("(%llu events dropped by full rings)\n",
                     static_cast<unsigned long long>(dropped()));
  }
  return out;
}

// --- Spans -------------------------------------------------------------

TraceSpan::TraceSpan(const char* name, Histogram* latency_us)
    : latency_us_(latency_us) {
  if (EventRecorder::Default().enabled() && g_trace_context.active()) {
    name_ = name;
    parent_span_id_ = g_trace_context.span_id;
    span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    g_trace_context.span_id = span_id_;
  }
  if (latency_us_ != nullptr || span_id_ != 0) start_ns_ = NowNs();
}

TraceSpan::~TraceSpan() {
  if (latency_us_ == nullptr && span_id_ == 0) return;
  const uint64_t end_ns = NowNs();
  if (latency_us_ != nullptr) {
    latency_us_->Observe(static_cast<double>(end_ns - start_ns_) / 1000.0);
  }
  if (span_id_ != 0) {
    g_trace_context.span_id = parent_span_id_;
    SpanEvent ev;
    ev.name = name_;
    ev.trace_id = g_trace_context.trace_id;
    ev.span_id = span_id_;
    ev.parent_span_id = parent_span_id_;
    ev.start_ns = start_ns_;
    ev.end_ns = end_ns;
    EventRecorder::Default().Record(ev);
  }
}

TraceRequest::RootCtx::RootCtx() {
  if (!EventRecorder::Default().enabled()) return;
  saved = g_trace_context;
  if (!saved.active()) {
    g_trace_context = TraceContext{
        g_next_trace_id.fetch_add(1, std::memory_order_relaxed), 0};
    installed = true;
  }
  trace_id = g_trace_context.trace_id;
}

TraceRequest::RootCtx::~RootCtx() {
  if (installed) g_trace_context = saved;
}

}  // namespace exearth::common
