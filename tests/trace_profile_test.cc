// Request-scoped tracing (TraceContext, EventRecorder, TraceRequest) and
// query profiles (QueryProfile, SlowQueryLog).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/query_profile.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace {

using exearth::common::CurrentTraceContext;
using exearth::common::EventRecorder;
using exearth::common::Histogram;
using exearth::common::MetricsRegistry;
using exearth::common::OperatorProfile;
using exearth::common::ProfileScope;
using exearth::common::QueryProfile;
using exearth::common::SlowQueryLog;
using exearth::common::SpanEvent;
using exearth::common::ThreadPool;
using exearth::common::TraceRequest;
using exearth::common::TraceSpan;

// Restores a clean recorder around each test that touches it.
class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EventRecorder::Default().Reset();
    EventRecorder::Default().set_enabled(true);
  }
  void TearDown() override {
    EventRecorder::Default().set_enabled(false);
    EventRecorder::Default().Reset();
  }
};

TEST_F(RecorderTest, RequestInstallsAndRemovesContext) {
  EXPECT_FALSE(CurrentTraceContext().active());
  {
    TraceRequest req("test.request");
    EXPECT_TRUE(CurrentTraceContext().active());
    EXPECT_EQ(CurrentTraceContext().trace_id, req.trace_id());
    EXPECT_NE(req.trace_id(), 0u);
  }
  EXPECT_FALSE(CurrentTraceContext().active());
  const std::vector<SpanEvent> events = EventRecorder::Default().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.request");
  EXPECT_EQ(events[0].parent_span_id, 0u);
}

TEST_F(RecorderTest, NestedSpansLinkToParents) {
  uint64_t trace_id = 0;
  {
    TraceRequest req("test.root");
    trace_id = req.trace_id();
    TraceSpan inner("test.inner");
    { TraceSpan leaf("test.leaf"); }
  }
  const std::vector<SpanEvent> events = EventRecorder::Default().Snapshot();
  ASSERT_EQ(events.size(), 3u);
  std::map<std::string, const SpanEvent*> by_name;
  for (const SpanEvent& ev : events) {
    EXPECT_EQ(ev.trace_id, trace_id);
    by_name[ev.name] = &ev;
  }
  EXPECT_EQ(by_name["test.root"]->parent_span_id, 0u);
  EXPECT_EQ(by_name["test.inner"]->parent_span_id,
            by_name["test.root"]->span_id);
  EXPECT_EQ(by_name["test.leaf"]->parent_span_id,
            by_name["test.inner"]->span_id);
}

TEST_F(RecorderTest, SpanHistogramsTimeTheRecordedIntervals) {
  MetricsRegistry reg;
  Histogram* root_us = reg.GetHistogram("root_us");
  Histogram* inner_us = reg.GetHistogram("inner_us");
  for (int i = 0; i < 3; ++i) {
    TraceRequest req("test.timed_root", root_us);
    TraceSpan inner("test.timed_inner", inner_us);
    { TraceSpan leaf("test.timed_leaf"); }
  }
  // One sample per scope, as with the recorder off.
  EXPECT_EQ(root_us->count(), 3u);
  EXPECT_EQ(inner_us->count(), 3u);
  const std::vector<SpanEvent> events = EventRecorder::Default().Snapshot();
  ASSERT_EQ(events.size(), 9u);
  std::map<uint64_t, const SpanEvent*> by_id;
  for (const SpanEvent& ev : events) by_id[ev.span_id] = &ev;
  double root_event_us = 0.0;
  double inner_event_us = 0.0;
  for (const SpanEvent& ev : events) {
    const std::string name = ev.name;
    const double us = static_cast<double>(ev.end_ns - ev.start_ns) / 1000.0;
    // A histogram changes no parent link.
    if (name == "test.timed_root") {
      EXPECT_EQ(ev.parent_span_id, 0u);
      root_event_us += us;
    } else {
      ASSERT_EQ(by_id.count(ev.parent_span_id), 1u) << name;
      const SpanEvent& parent = *by_id[ev.parent_span_id];
      EXPECT_EQ(parent.trace_id, ev.trace_id);
      const char* want =
          name == "test.timed_inner" ? "test.timed_root" : "test.timed_inner";
      EXPECT_STREQ(parent.name, want);
      if (name == "test.timed_inner") inner_event_us += us;
    }
  }
  // The event and the sample come from the same two clock reads.
  EXPECT_DOUBLE_EQ(root_us->sum(), root_event_us);
  EXPECT_DOUBLE_EQ(inner_us->sum(), inner_event_us);
}

TEST_F(RecorderTest, NestedRequestJoinsEnclosingTrace) {
  TraceRequest outer("test.outer");
  TraceRequest inner("test.inner_request");
  EXPECT_EQ(inner.trace_id(), outer.trace_id());
  EXPECT_EQ(CurrentTraceContext().trace_id, outer.trace_id());
}

TEST_F(RecorderTest, ThreadPoolTasksAdoptSubmitterContext) {
  uint64_t trace_id = 0;
  {
    ThreadPool pool(2);
    TraceRequest req("test.fanout");
    trace_id = req.trace_id();
    // Two tasks rendezvous before recording, so each provably runs on its
    // own worker thread.
    std::atomic<int> arrived{0};
    auto chunk = [&arrived] {
      arrived.fetch_add(1);
      while (arrived.load() < 2) std::this_thread::yield();
      TraceSpan s("test.chunk");
    };
    auto f1 = pool.Submit(chunk);
    auto f2 = pool.Submit(chunk);
    f1.get();
    f2.get();
  }
  const std::vector<SpanEvent> events = EventRecorder::Default().Snapshot();
  const SpanEvent* root = nullptr;
  size_t chunks = 0;
  std::set<uint32_t> tids;
  for (const SpanEvent& ev : events) {
    EXPECT_EQ(ev.trace_id, trace_id);  // one request, one trace
    if (std::string(ev.name) == "test.fanout") root = &ev;
    if (std::string(ev.name) == "test.chunk") {
      ++chunks;
      tids.insert(ev.tid);
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(chunks, 2u);
  // Worker chunks parent directly under the request root.
  for (const SpanEvent& ev : events) {
    if (std::string(ev.name) == "test.chunk") {
      EXPECT_EQ(ev.parent_span_id, root->span_id);
    }
  }
  EXPECT_EQ(tids.size(), 2u);  // distinct worker threads, distinct rings
}

TEST_F(RecorderTest, NoEventsWithoutActiveRequest) {
  { TraceSpan orphan("test.orphan"); }
  EXPECT_TRUE(EventRecorder::Default().Snapshot().empty());
}

TEST_F(RecorderTest, DisabledRecorderRecordsNothing) {
  EventRecorder::Default().set_enabled(false);
  {
    TraceRequest req("test.disabled");
    EXPECT_EQ(req.trace_id(), 0u);
    TraceSpan s("test.disabled_span");
  }
  EXPECT_TRUE(EventRecorder::Default().Snapshot().empty());
}

TEST_F(RecorderTest, RingOverflowDropsOldestAndCounts) {
  EventRecorder::Default().set_ring_capacity(8);
  const uint64_t dropped_before = EventRecorder::Default().dropped();
  // A fresh thread gets a fresh ring with the small capacity.
  std::thread t([] {
    TraceRequest req("test.overflow_root");
    for (int i = 0; i < 20; ++i) TraceSpan s("test.overflow_span");
  });
  t.join();
  EventRecorder::Default().set_ring_capacity(8192);
  size_t from_thread = 0;
  for (const SpanEvent& ev : EventRecorder::Default().Snapshot()) {
    if (std::string(ev.name).rfind("test.overflow", 0) == 0) ++from_thread;
  }
  EXPECT_EQ(from_thread, 8u);  // 21 recorded, ring kept 8
  EXPECT_EQ(EventRecorder::Default().dropped() - dropped_before, 13u);
}

TEST_F(RecorderTest, ChromeTraceJsonHasRequiredKeys) {
  {
    TraceRequest req("test.chrome");
    TraceSpan s("test.chrome_child");
  }
  const std::string json = EventRecorder::Default().ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": "), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.chrome\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\": "), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\": "), std::string::npos);
  // Balanced braces — cheap well-formedness check without a JSON parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(RecorderTest, FlameTreeTextNestsSpans) {
  {
    TraceRequest req("test.flame_root");
    TraceSpan s("test.flame_child");
  }
  const std::string text = EventRecorder::Default().ToFlameTreeText();
  const size_t root_pos = text.find("test.flame_root");
  const size_t child_pos = text.find("test.flame_child");
  ASSERT_NE(root_pos, std::string::npos);
  ASSERT_NE(child_pos, std::string::npos);
  EXPECT_LT(root_pos, child_pos);
  EXPECT_NE(text.find("trace "), std::string::npos);
}

TEST_F(RecorderTest, ResetClearsEvents) {
  { TraceRequest req("test.reset"); }
  EXPECT_FALSE(EventRecorder::Default().Snapshot().empty());
  EventRecorder::Default().Reset();
  EXPECT_TRUE(EventRecorder::Default().Snapshot().empty());
}

TEST_F(RecorderTest, SnapshotWhileRecordingIsSafe) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop] {
      while (!stop.load()) {
        TraceRequest req("test.concurrent");
        TraceSpan s("test.concurrent_span");
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    const std::vector<SpanEvent> events = EventRecorder::Default().Snapshot();
    for (const SpanEvent& ev : events) {
      ASSERT_NE(ev.name, nullptr);
      ASSERT_LE(ev.start_ns, ev.end_ns);
    }
    (void)EventRecorder::Default().ToChromeTraceJson();
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
}

// --- ProfileScope / QueryProfile / SlowQueryLog ------------------------

TEST(ProfileScopeTest, OutermostScopeIsRoot) {
  ProfileScope outer;
  EXPECT_TRUE(outer.is_root());
  {
    ProfileScope inner;
    EXPECT_FALSE(inner.is_root());
  }
  ProfileScope again;
  EXPECT_FALSE(again.is_root());  // outer is still open
}

QueryProfile MakeProfile(const std::string& name, double total_us) {
  QueryProfile p;
  p.query = name;
  p.trace_id = 7;
  p.total_us = total_us;
  OperatorProfile op;
  op.name = "scan";
  op.wall_us = total_us;
  op.rows_in = 100;
  op.rows_out = 10;
  op.envelope_hits = 3;
  op.chunks = 2;
  op.threads = 2;
  p.operators.push_back(op);
  return p;
}

TEST(QueryProfileTest, ToJsonCarriesOperators) {
  const std::string json = MakeProfile("test.query", 123.5).ToJson();
  EXPECT_NE(json.find("\"query\": \"test.query\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"total_us\": 123.5"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"rows_in\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"rows_out\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"envelope_hits\": 3"), std::string::npos);
}

TEST(QueryProfileTest, ToTextListsOperators) {
  const std::string text = MakeProfile("test.query", 123.5).ToText();
  EXPECT_NE(text.find("test.query"), std::string::npos);
  EXPECT_NE(text.find("scan"), std::string::npos);
  EXPECT_NE(text.find("rows=100->10"), std::string::npos);
}

TEST(SlowQueryLogTest, DisabledByDefaultAndDropsBelowThreshold) {
  SlowQueryLog log;
  EXPECT_FALSE(log.enabled());
  log.Configure(4, 100.0);
  EXPECT_TRUE(log.enabled());
  log.Record(MakeProfile("fast", 50.0));   // below threshold
  log.Record(MakeProfile("slow", 150.0));  // admitted
  const std::vector<QueryProfile> got = log.Snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].query, "slow");
}

TEST(SlowQueryLogTest, KeepsExactlyNWorstSorted) {
  SlowQueryLog log;
  log.Configure(3, 0.0);
  for (double us : {10.0, 50.0, 30.0, 90.0, 20.0, 70.0}) {
    log.Record(MakeProfile("q", us));
  }
  const std::vector<QueryProfile> got = log.Snapshot();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_DOUBLE_EQ(got[0].total_us, 90.0);
  EXPECT_DOUBLE_EQ(got[1].total_us, 70.0);
  EXPECT_DOUBLE_EQ(got[2].total_us, 50.0);
}

TEST(SlowQueryLogTest, ConcurrentRecordsKeepNWorst) {
  SlowQueryLog log;
  log.Configure(5, 0.0);
  ThreadPool pool(4);
  // 4 * 64 distinct totals 1..256; the 5 worst are 252..256.
  pool.ParallelFor(256, [&log](size_t i) {
    log.Record(MakeProfile("q", static_cast<double>(i + 1)));
  });
  const std::vector<QueryProfile> got = log.Snapshot();
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(got[i].total_us, 256.0 - i);
  }
}

TEST(SlowQueryLogTest, ToJsonIsArrayWorstFirst) {
  SlowQueryLog log;
  log.Configure(2, 0.0);
  log.Record(MakeProfile("small", 10.0));
  log.Record(MakeProfile("big", 99.0));
  const std::string json = log.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_LT(json.find("\"big\""), json.find("\"small\""));
}

TEST(SlowQueryLogTest, ClearKeepsConfiguration) {
  SlowQueryLog log;
  log.Configure(2, 0.0);
  log.Record(MakeProfile("q", 10.0));
  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_TRUE(log.enabled());
  log.Record(MakeProfile("q2", 20.0));
  EXPECT_EQ(log.Snapshot().size(), 1u);
}

TEST(SlowQueryLogTest, DisableStopsRecording) {
  SlowQueryLog log;
  log.Configure(2, 0.0);
  log.Disable();
  log.Record(MakeProfile("q", 10.0));
  EXPECT_FALSE(log.enabled());
  EXPECT_TRUE(log.Snapshot().empty());
}

}  // namespace
