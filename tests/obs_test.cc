// Observability-layer acceptance tests (obs:: + the serving hooks):
//
//   * Prometheus exposition: sanitized names, escaped label values,
//     cumulative histogram buckets, and a post-mangling name collision
//     dropping the later family instead of emitting a duplicate;
//   * hostile metric names cannot break either exporter (registry ToJson
//     stays parseable ASCII, /metrics stays legal exposition);
//   * WindowedSampler under an injected clock: exact window rates,
//     warm-up baselines, windowed percentiles — no sleeps anywhere;
//   * SloTracker burn-rate arithmetic on a virtual timeline, including
//     window expiry;
//   * SlowQueryLog keeps exactly the worst-N under concurrent inserts;
//   * HttpServer over real loopback sockets: routing, query decoding,
//     HEAD, 404/405/400, graceful Stop;
//   * AdminServer end to end: /healthz flips 200 -> 503 when a probe
//     (e.g. the broker after BeginShutdown) starts failing, /tenantz
//     lists registered tenants, /metrics carries the SLO burn family.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/query_profile.h"
#include "common/trace.h"
#include "common/windowed.h"
#include "geo/geometry.h"
#include "obs/admin.h"
#include "obs/http.h"
#include "obs/prometheus.h"
#include "serve/admin_hooks.h"
#include "serve/broker.h"
#include "serve/slo.h"
#include "strabon/geostore.h"

namespace {

namespace eea = exearth;
using eea::common::MetricsRegistry;
using eea::common::WindowedOptions;
using eea::common::WindowedSampler;
using eea::obs::AdminServer;
using eea::obs::AdminServerOptions;
using eea::obs::HttpRequest;
using eea::obs::HttpResponse;
using eea::obs::HttpServer;
using eea::obs::HttpServerOptions;

// --- raw HTTP client --------------------------------------------------------

// Sends `raw` to 127.0.0.1:port and returns everything until the server
// closes (the server speaks Connection: close, so EOF ends the
// response).
std::string RawRequest(uint16_t port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string Get(uint16_t port, const std::string& path) {
  return RawRequest(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

int StatusOf(const std::string& response) {
  // "HTTP/1.1 NNN ..."
  if (response.size() < 12) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string BodyOf(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

// --- Prometheus exposition --------------------------------------------------

TEST(Prometheus, SanitizeMetricName) {
  EXPECT_EQ(eea::obs::SanitizeMetricName("serve.cache.hits"),
            "serve_cache_hits");
  EXPECT_EQ(eea::obs::SanitizeMetricName("ok_name:sub"), "ok_name:sub");
  EXPECT_EQ(eea::obs::SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(eea::obs::SanitizeMetricName(""), "_");
  EXPECT_EQ(eea::obs::SanitizeMetricName("a{b} c\"d\ne"), "a_b__c_d_e");
}

TEST(Prometheus, SanitizeLabelName) {
  // ':' is legal in metric names but not label names.
  EXPECT_EQ(eea::obs::SanitizeLabelName("a:b"), "a_b");
  EXPECT_EQ(eea::obs::SanitizeLabelName("tenant"), "tenant");
}

TEST(Prometheus, EscapeLabelValue) {
  EXPECT_EQ(eea::obs::EscapeLabelValue("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd");
  EXPECT_EQ(eea::obs::EscapeLabelValue("plain"), "plain");
}

TEST(Prometheus, RenderCumulativeHistogram) {
  MetricsRegistry reg;
  reg.GetCounter("req.total")->Increment(3);
  reg.GetGauge("queue.depth")->Set(2.5);
  auto* h = reg.GetHistogram("lat.us", {1.0, 10.0, 100.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(50.0);
  h->Observe(5000.0);
  const std::string text = eea::obs::RenderPrometheus(reg);

  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("req_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_us histogram\n"), std::string::npos);
  // Buckets are cumulative (each le includes everything below), the +Inf
  // bucket equals _count.
  EXPECT_NE(text.find("lat_us_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"10\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"100\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum "), std::string::npos);
}

TEST(Prometheus, HostileNamesAndCollisions) {
  MetricsRegistry reg;
  // Both mangle to "a_b": the later family (registry order is sorted, so
  // "a.b" < "a_b") is dropped with a comment, not emitted twice.
  reg.GetCounter("a.b")->Increment(1);
  reg.GetCounter("a_b")->Increment(2);
  // A thoroughly hostile registration must not corrupt the exposition.
  reg.GetCounter("evil\"name\nwith spaces{}")->Increment(7);
  const std::string text = eea::obs::RenderPrometheus(reg);

  size_t count = 0;
  for (size_t pos = 0;
       (pos = text.find("# TYPE a_b counter", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
  EXPECT_NE(text.find("collides"), std::string::npos);
  EXPECT_NE(text.find("evil_name_with_spaces__ 7\n"), std::string::npos);
  // Every non-comment line is "name[{labels}] value" with a legal name.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const char c = line[0];
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                c == '_' || c == ':')
        << "bad exposition line: " << line;
  }
}

TEST(Prometheus, RegistryToJsonSurvivesHostileNames) {
  MetricsRegistry reg;
  reg.GetCounter(std::string("evil\"name\x01\n\\") + "\xff")->Increment(1);
  const std::string json = reg.ToJson();
  // Raw control bytes / quotes / backslashes must not reach the
  // document; everything is escaped to plain ASCII.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_EQ(json.find('\xff'), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u00ff"), std::string::npos);
  EXPECT_NE(json.find("\\\"name"), std::string::npos);
}

// --- windowed sampler (fake clock, no sleeps) -------------------------------

constexpr int64_t kSec = 1'000'000;

TEST(Windowed, ExactRateOnceWindowIsCovered) {
  MetricsRegistry reg;
  WindowedOptions opt;
  opt.sample_period_us = kSec;
  opt.windows_us = {10 * kSec, 60 * kSec};
  WindowedSampler sampler(&reg, opt);
  auto* c = reg.GetCounter("reqs");
  for (int t = 0; t <= 20; ++t) {
    sampler.SampleOnce(t * kSec);
    c->Increment(100);  // 100 events between consecutive samples
  }
  // Ring covers > 10s: the baseline sits exactly 10 samples back.
  EXPECT_DOUBLE_EQ(sampler.Rate("reqs", 10 * kSec), 100.0);
  EXPECT_DOUBLE_EQ(sampler.Rate("unknown.counter", 10 * kSec), 0.0);
}

TEST(Windowed, WarmupUsesOldestSampleAsBaseline) {
  MetricsRegistry reg;
  WindowedOptions opt;
  opt.sample_period_us = kSec;
  opt.windows_us = {10 * kSec};
  WindowedSampler sampler(&reg, opt);
  auto* c = reg.GetCounter("reqs");
  sampler.SampleOnce(0);
  EXPECT_DOUBLE_EQ(sampler.Rate("reqs", 10 * kSec), 0.0);  // 1 sample
  c->Increment(50);
  sampler.SampleOnce(1 * kSec);
  // Only 1s of the 10s window exists yet; the oldest sample is the
  // approximate baseline, so the rate reflects the covered second. The
  // derived gauge must be published from the second sample on (a fresh
  // process must not wait a full window to report rates).
  EXPECT_DOUBLE_EQ(sampler.Rate("reqs", 10 * kSec), 50.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("reqs.rate10s")->value(), 50.0);
}

TEST(Windowed, NonIncreasingTimestampsIgnored) {
  MetricsRegistry reg;
  WindowedOptions opt;
  opt.sample_period_us = kSec;
  WindowedSampler sampler(&reg, opt);
  sampler.SampleOnce(5 * kSec);
  sampler.SampleOnce(5 * kSec);
  sampler.SampleOnce(3 * kSec);
  EXPECT_EQ(sampler.num_samples(), 1u);
}

TEST(Windowed, HistogramWindowPercentilesAreSliding) {
  MetricsRegistry reg;
  WindowedOptions opt;
  opt.sample_period_us = kSec;
  opt.windows_us = {2 * kSec};
  WindowedSampler sampler(&reg, opt);
  auto* h = reg.GetHistogram("lat", {10.0, 100.0, 1000.0});
  // Seconds 0-1: slow traffic. Seconds 2-4: fast traffic only.
  sampler.SampleOnce(0);
  for (int i = 0; i < 100; ++i) h->Observe(500.0);
  sampler.SampleOnce(1 * kSec);
  sampler.SampleOnce(2 * kSec);
  for (int i = 0; i < 100; ++i) h->Observe(5.0);
  sampler.SampleOnce(3 * kSec);
  sampler.SampleOnce(4 * kSec);
  WindowedSampler::WindowView view;
  ASSERT_TRUE(sampler.HistogramWindow("lat", 2 * kSec, &view));
  // The trailing 2s contain only the fast observations — a lifetime
  // histogram would still be dominated by the slow burst.
  EXPECT_EQ(view.count, 100u);
  EXPECT_DOUBLE_EQ(view.rate, 50.0);
  EXPECT_LE(view.p99, 10.0);
}

TEST(Windowed, DerivedGaugeNamePredicate) {
  EXPECT_TRUE(WindowedSampler::IsDerivedGaugeName("reqs.rate10s"));
  EXPECT_TRUE(WindowedSampler::IsDerivedGaugeName("a.b.lat.p99_1m"));
  EXPECT_TRUE(WindowedSampler::IsDerivedGaugeName("x.p50_90s"));
  EXPECT_FALSE(WindowedSampler::IsDerivedGaugeName("reqs.rate"));
  EXPECT_FALSE(WindowedSampler::IsDerivedGaugeName("rate10s"));
  EXPECT_FALSE(WindowedSampler::IsDerivedGaugeName("x.rate10x"));
  EXPECT_FALSE(WindowedSampler::IsDerivedGaugeName("serve.cache.hits"));
}

// --- SLO tracker ------------------------------------------------------------

TEST(Slo, BurnRatesOnVirtualTimeline) {
  eea::serve::SloTarget target;
  target.availability = 0.99;           // 1% error budget
  target.latency_threshold_us = 1000.0;
  target.latency_goal = 0.9;            // 10% slow budget
  target.window_us = 10 * kSec;
  eea::serve::SloTracker slo(target);
  for (int i = 0; i < 100; ++i) {
    const bool ok = i >= 2;                    // 2 errors
    const double lat = i < 22 ? 2000.0 : 10.0;  // 20 ok-but-slow
    slo.Record("t", ok, lat, 1 * kSec);
  }
  const auto burns = slo.Evaluate(2 * kSec);
  ASSERT_EQ(burns.size(), 1u);
  EXPECT_EQ(burns[0].tenant, "t");
  EXPECT_EQ(burns[0].total, 100u);
  EXPECT_EQ(burns[0].errors, 2u);
  EXPECT_EQ(burns[0].slow, 20u);
  // 2% errors against a 1% budget; 20% slow against a 10% budget.
  EXPECT_NEAR(burns[0].availability_burn, 2.0, 1e-9);
  EXPECT_NEAR(burns[0].latency_burn, 2.0, 1e-9);

  // The same traffic evaluated past the window has burned nothing.
  const auto later = slo.Evaluate(30 * kSec);
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later[0].total, 0u);
  EXPECT_DOUBLE_EQ(later[0].availability_burn, 0.0);
}

TEST(Slo, PrometheusFamilyEscapesTenantNames) {
  eea::serve::SloTracker slo;
  slo.Record("ten\"ant", true, 1.0, 0);
  const std::string text = slo.PrometheusText(1);
  EXPECT_NE(text.find("# TYPE serve_slo_burn_rate gauge"),
            std::string::npos);
  EXPECT_NE(text.find("serve_slo_burn_rate{tenant=\"ten\\\"ant\","
                      "slo=\"availability\"}"),
            std::string::npos);
}

// --- slow-query log under concurrency ---------------------------------------

TEST(SlowQueryLogConcurrency, KeepsExactlyTheWorstN) {
  eea::common::SlowQueryLog log;
  log.Configure(32, 0.0);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        eea::common::QueryProfile p;
        p.query = "q";
        p.trace_id = static_cast<uint64_t>(t * kPerThread + i);
        // Unique totals so "the worst 32" is a well-defined set.
        p.total_us = static_cast<double>(t * kPerThread + i);
        log.Record(std::move(p));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 32u);
  const double kTotal = kThreads * kPerThread;
  for (size_t i = 0; i < snap.size(); ++i) {
    // Worst first, descending, and exactly the global top 32.
    EXPECT_DOUBLE_EQ(snap[i].total_us, kTotal - 1.0 - static_cast<double>(i));
  }
}

// --- HTTP server ------------------------------------------------------------

TEST(HttpDecode, HostileRequestHeads) {
  using eea::obs::DecodeRequestHead;
  auto status = [](const char* head) {
    return DecodeRequestHead(head).status;
  };
  // The request line needs METHOD SP target SP HTTP/...
  EXPECT_EQ(status("GET\r\n\r\n"), 400);
  EXPECT_EQ(status("GET /x\r\n\r\n"), 400);
  EXPECT_EQ(status("GET /x FTP/1.0\r\n\r\n"), 400);
  EXPECT_EQ(status("GET /x HTTP\r\n\r\n"), 400);
  EXPECT_EQ(status(""), 400);
  // Only GET and HEAD, case-sensitively.
  EXPECT_EQ(status("POST /x HTTP/1.1\r\n\r\n"), 405);
  EXPECT_EQ(status("get /x HTTP/1.1\r\n\r\n"), 405);
  const auto head = DecodeRequestHead("HEAD /x HTTP/1.1\r\nHost: h\r\n\r\n");
  EXPECT_EQ(head.status, 200);
  EXPECT_EQ(head.request.method, "HEAD");
  EXPECT_EQ(head.request.path, "/x");
  // An empty target decodes to an empty path (which no handler serves).
  const auto empty = DecodeRequestHead("GET  HTTP/1.1\n\n");
  EXPECT_EQ(empty.status, 200);
  EXPECT_EQ(empty.request.path, "");
  EXPECT_TRUE(empty.request.query.empty());
  // Malformed escapes stay literal; the target runs to the last space.
  EXPECT_EQ(DecodeRequestHead("GET /a% HTTP/1.1\r\n\r\n").request.path,
            "/a%");
  EXPECT_EQ(DecodeRequestHead("GET /%zz%4 HTTP/1.1\r\n\r\n").request.path,
            "/%zz%4");
  EXPECT_EQ(DecodeRequestHead("GET /a b%41+ HTTP/1.1\r\n\r\n").request.path,
            "/a bA ");
  using Query = std::map<std::string, std::string>;
  auto query = [](const char* head) {
    return DecodeRequestHead(head).request.query;
  };
  EXPECT_EQ(query("GET /x? HTTP/1.1\r\n\r\n"), Query{});
  EXPECT_EQ(query("GET /x?&& HTTP/1.1\r\n\r\n"), (Query{{"", ""}}));
  EXPECT_EQ(query("GET /x?=v HTTP/1.1\r\n\r\n"), (Query{{"", "v"}}));
  EXPECT_EQ(query("GET /x?k=v% HTTP/1.1\r\n\r\n"), (Query{{"k", "v%"}}));
  EXPECT_EQ(query("GET /x?k=%zz&k=2&flag& HTTP/1.1\r\n\r\n"),
            (Query{{"k", "2"}, {"flag", ""}}));
  EXPECT_EQ(query("GET /x?a=1=2&b%3D=c+d HTTP/1.1\r\n\r\n"),
            (Query{{"a", "1=2"}, {"b=", "c d"}}));
}

class HttpServerTest : public ::testing::Test {
 protected:
  void StartServer() {
    server_ = std::make_unique<HttpServer>(HttpServerOptions{});
    server_->Handle("/hello", [](const HttpRequest& req) {
      HttpResponse resp;
      resp.body = "hi " + req.QueryOr("name", "world");
      return resp;
    });
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(server_->running());
    ASSERT_GT(server_->port(), 0);
  }
  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, RoutesAndDecodesQuery) {
  StartServer();
  const std::string ok = Get(server_->port(), "/hello");
  EXPECT_EQ(StatusOf(ok), 200);
  EXPECT_EQ(BodyOf(ok), "hi world");
  // %XX and '+' decode in query values.
  const std::string q = Get(server_->port(), "/hello?name=a%20b+c");
  EXPECT_EQ(BodyOf(q), "hi a b c");
}

TEST_F(HttpServerTest, ErrorPaths) {
  StartServer();
  EXPECT_EQ(StatusOf(Get(server_->port(), "/nope")), 404);
  EXPECT_EQ(StatusOf(RawRequest(server_->port(),
                                "POST /hello HTTP/1.1\r\n\r\n")),
            405);
  EXPECT_EQ(StatusOf(RawRequest(server_->port(), "garbage\r\n\r\n")), 400);
}

TEST_F(HttpServerTest, HeadOmitsBodyButKeepsLength) {
  StartServer();
  const std::string head = RawRequest(
      server_->port(), "HEAD /hello HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(StatusOf(head), 200);
  EXPECT_NE(head.find("Content-Length: 8"), std::string::npos);
  EXPECT_EQ(BodyOf(head), "");
}

TEST_F(HttpServerTest, StopIsGracefulAndIdempotent) {
  StartServer();
  const uint16_t port = server_->port();
  EXPECT_EQ(StatusOf(Get(port, "/hello")), 200);
  server_->Stop();
  EXPECT_FALSE(server_->running());
  server_->Stop();  // second call is a no-op
}

// --- admin server -----------------------------------------------------------

TEST(AdminServer, HealthzFlipsWhenProbeFails) {
  std::atomic<bool> healthy{true};
  AdminServer admin;
  admin.AddReadinessProbe("flippable", [&healthy] {
    return healthy.load() ? eea::common::Status::OK()
                          : eea::common::Status::Unavailable("draining");
  });
  ASSERT_TRUE(admin.Start().ok());
  const std::string up = Get(admin.port(), "/healthz");
  EXPECT_EQ(StatusOf(up), 200);
  EXPECT_NE(BodyOf(up).find("ok"), std::string::npos);
  healthy.store(false);
  const std::string down = Get(admin.port(), "/healthz");
  EXPECT_EQ(StatusOf(down), 503);
  EXPECT_NE(BodyOf(down).find("flippable"), std::string::npos);
  admin.Stop();
}

TEST(AdminServer, CoreEndpointsServe) {
  AdminServer admin;
  admin.AddStatusLine("custom.line", [] { return std::string("42"); });
  ASSERT_TRUE(admin.Start().ok());
  const uint16_t port = admin.port();
  EXPECT_NE(BodyOf(Get(port, "/")).find("/metrics"), std::string::npos);
  const std::string metrics = Get(port, "/metrics");
  EXPECT_EQ(StatusOf(metrics), 200);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(BodyOf(metrics).find("# TYPE"), std::string::npos);
  const std::string statusz = BodyOf(Get(port, "/statusz"));
  EXPECT_NE(statusz.find("uptime"), std::string::npos);
  EXPECT_NE(statusz.find("custom.line:"), std::string::npos);
  EXPECT_NE(statusz.find("42"), std::string::npos);
  EXPECT_EQ(StatusOf(Get(port, "/slowqueryz")), 200);
  EXPECT_EQ(StatusOf(Get(port, "/tracez")), 200);
  // trace_id validation only applies when the recorder is on (a disabled
  // recorder short-circuits with a hint instead).
  eea::common::EventRecorder::Default().set_enabled(true);
  EXPECT_EQ(StatusOf(Get(port, "/tracez?trace_id=bogus")), 400);
  eea::common::EventRecorder::Default().set_enabled(false);
  admin.Stop();
}

TEST(AdminServer, ServeHooksWireTenantzAndBrokerProbe) {
  eea::strabon::GeoStore store;
  for (int i = 0; i < 16; ++i) {
    store.AddFeature("http://x/p" + std::to_string(i),
                     eea::geo::Geometry(
                         eea::geo::Point{static_cast<double>(i), 0.0}));
  }
  ASSERT_TRUE(store.Build().ok());
  eea::serve::QueryBroker broker;
  broker.set_store(&store);
  eea::serve::TenantOptions topt;
  topt.quota_rps = 1e9;
  topt.quota_burst = 1e6;
  const auto alpha = broker.RegisterTenant("alpha", topt);
  eea::serve::SloTracker slo;
  broker.set_slo_tracker(&slo);
  std::vector<eea::serve::Offered> wave;
  wave.push_back({alpha, eea::serve::Request::SpatialSelect(
                             eea::geo::Box{0.0, -1.0, 20.0, 1.0})});
  const auto responses = broker.ExecuteWave(wave, kSec);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].status.ok());

  AdminServer admin;
  eea::serve::RegisterServeAdminHooks(&admin, &broker, &slo,
                                      [] { return 2 * kSec; });
  ASSERT_TRUE(admin.Start().ok());
  const uint16_t port = admin.port();

  const std::string tenantz = BodyOf(Get(port, "/tenantz"));
  EXPECT_NE(tenantz.find("alpha"), std::string::npos);
  const std::string metrics = BodyOf(Get(port, "/metrics"));
  EXPECT_NE(metrics.find("serve_slo_burn_rate{tenant=\"alpha\""),
            std::string::npos);
  EXPECT_EQ(StatusOf(Get(port, "/healthz")), 200);

  // Draining: the broker readiness probe must flip /healthz to 503 so a
  // load balancer stops sending traffic before the process exits.
  broker.BeginShutdown();
  const std::string draining = Get(port, "/healthz");
  EXPECT_EQ(StatusOf(draining), 503);
  EXPECT_NE(draining.find("serve.broker"), std::string::npos);
  admin.Stop();
}

}  // namespace
