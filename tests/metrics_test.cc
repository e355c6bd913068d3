#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace exearth::common {
namespace {

// --- Counter / Gauge ---------------------------------------------------

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddMax) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.Add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.Max(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.Max(5.0);  // smaller value does not lower a high-water mark
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

// --- Histogram ---------------------------------------------------------

TEST(HistogramTest, EmptyHistogram) {
  Histogram h({1.0, 10.0, 100.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(HistogramTest, SingleSample) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(7.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);
  // All percentiles interpolate within the bucket, clamped to [min, max],
  // so a single observation reports itself exactly.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 7.0);
}

TEST(HistogramTest, BucketAssignment) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0: (-inf, 1]
  h.Observe(1.0);    // bucket 0: bounds are inclusive upper edges
  h.Observe(5.0);    // bucket 1
  h.Observe(50.0);   // bucket 2
  h.Observe(500.0);  // overflow bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
}

TEST(HistogramTest, PercentileInterpolation) {
  Histogram h({10.0, 20.0, 30.0});
  // 10 samples uniformly in (10, 20] -> all in bucket 1. Interpolation
  // runs over [max(bucket_lower, observed_min), bucket_upper] = [11, 20].
  for (int i = 1; i <= 10; ++i) h.Observe(10.0 + i);
  // p50 -> rank 5 of 10: 11 + 5/10 * (20 - 11) = 15.5.
  EXPECT_NEAR(h.Percentile(50), 15.5, 1e-9);
  EXPECT_NEAR(h.Percentile(100), 20.0, 1e-9);
  // p10 -> rank 1: 11 + 1/10 * 9 = 11.9.
  EXPECT_NEAR(h.Percentile(10), 11.9, 1e-9);
}

TEST(HistogramTest, PercentileAcrossBuckets) {
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 9; ++i) h.Observe(5.0);   // bucket 0
  h.Observe(15.0);                              // bucket 1
  // First 9 ranks land in bucket 0; rank 10 (p100) in bucket 1.
  EXPECT_LE(h.Percentile(50), 10.0);
  EXPECT_NEAR(h.Percentile(100), 15.0, 1e-9);
}

TEST(HistogramTest, OverflowBucketClampsToMax) {
  Histogram h({1.0, 2.0});
  h.Observe(1000.0);
  h.Observe(2000.0);
  // Both samples overflow; interpolation runs up to the observed max, not
  // to infinity.
  EXPECT_GE(h.Percentile(99), 2.0);
  EXPECT_LE(h.Percentile(99), 2000.0);
  EXPECT_NEAR(h.Percentile(100), 2000.0, 1e-9);
}

TEST(HistogramTest, ExponentialBounds) {
  auto b = Histogram::ExponentialBounds(1.0, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
  auto latency = Histogram::DefaultLatencyBoundsUs();
  EXPECT_EQ(latency.size(), 24u);
  EXPECT_DOUBLE_EQ(latency.front(), 1.0);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h({1.0, 10.0});
  h.Observe(5.0);
  h.Observe(50.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.bucket_count(2), 0u);
}

// --- Registry ----------------------------------------------------------

TEST(MetricsRegistryTest, SameNameSamePointer) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x.count");
  Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  EXPECT_NE(static_cast<void*>(a), static_cast<void*>(reg.GetGauge("x.count")));
  Histogram* h1 = reg.GetHistogram("x.lat", {1.0, 2.0});
  Histogram* h2 = reg.GetHistogram("x.lat");  // bounds ignored after first
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds().size(), 2u);
}

TEST(MetricsRegistryTest, JsonSnapshot) {
  MetricsRegistry reg;
  reg.GetCounter("requests")->Increment(3);
  reg.GetGauge("depth")->Set(2.0);
  Histogram* h = reg.GetHistogram("lat_us", {1.0, 10.0});
  h->Observe(5.0);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"requests\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos) << json;
  // Balanced braces/brackets — a cheap well-formedness check.
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(MetricsRegistryTest, ResetZeroesInPlace) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("n");
  c->Increment(7);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);          // same pointer, zeroed value
  EXPECT_EQ(reg.GetCounter("n"), c);  // registration survives
}

TEST(MetricsRegistryTest, JsonEscaping) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// --- Concurrency -------------------------------------------------------

TEST(MetricsConcurrencyTest, CounterIncrementsFromThreadPool) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("concurrent");
  constexpr size_t kTasks = 64;
  constexpr uint64_t kPerTask = 1000;
  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](size_t) {
    for (uint64_t i = 0; i < kPerTask; ++i) c->Increment();
  });
  EXPECT_EQ(c->value(), kTasks * kPerTask);
}

TEST(MetricsConcurrencyTest, HistogramObservationsFromThreadPool) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("concurrent_lat", {10.0, 100.0, 1000.0});
  constexpr size_t kTasks = 32;
  constexpr int kPerTask = 500;
  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](size_t t) {
    for (int i = 0; i < kPerTask; ++i) {
      h->Observe(static_cast<double>((t * 31 + static_cast<size_t>(i)) % 2000));
    }
  });
  EXPECT_EQ(h->count(), kTasks * static_cast<uint64_t>(kPerTask));
  uint64_t bucket_total = 0;
  for (size_t i = 0; i <= h->bounds().size(); ++i) {
    bucket_total += h->bucket_count(i);
  }
  EXPECT_EQ(bucket_total, h->count());
}

TEST(MetricsConcurrencyTest, RegistrationRace) {
  MetricsRegistry reg;
  std::vector<Counter*> seen(16, nullptr);
  ThreadPool pool(8);
  pool.ParallelFor(seen.size(), [&](size_t i) {
    seen[i] = reg.GetCounter("raced");
    seen[i]->Increment();
  });
  for (Counter* c : seen) EXPECT_EQ(c, seen[0]);
  EXPECT_EQ(seen[0]->value(), seen.size());
}

// --- Span latency histograms ------------------------------------------

TEST(TraceTest, SpanHistogramGetsOneSamplePerScope) {
  ASSERT_FALSE(EventRecorder::Default().enabled());
  const size_t events_before = EventRecorder::Default().Snapshot().size();
  MetricsRegistry reg;
  Histogram* outer_us = reg.GetHistogram("outer_us");
  Histogram* inner_us = reg.GetHistogram("inner_us");
  for (int i = 0; i < 3; ++i) {
    TraceRequest outer("trace_test.outer", outer_us);
    TraceSpan inner("trace_test.inner", inner_us);
    TraceSpan untimed("trace_test.untimed");
  }
  EXPECT_EQ(outer_us->count(), 3u);
  EXPECT_EQ(inner_us->count(), 3u);
  EXPECT_GE(inner_us->min(), 0.0);
  // An inner scope ends first and so never outlasts its enclosing one.
  EXPECT_LE(inner_us->sum(), outer_us->sum());
  // With the recorder off, spans time their histograms and record nothing.
  EXPECT_EQ(EventRecorder::Default().Snapshot().size(), events_before);
}

TEST(TraceTest, PoolThreadSpansFeedOneHistogram) {
  MetricsRegistry reg;
  Histogram* pooled_us = reg.GetHistogram("pooled_us");
  {
    ThreadPool pool(4);
    pool.ParallelFor(16, [&](size_t) {
      TraceSpan s("trace_test.pooled", pooled_us);
    });
  }
  EXPECT_EQ(pooled_us->count(), 16u);
}

}  // namespace
}  // namespace exearth::common
