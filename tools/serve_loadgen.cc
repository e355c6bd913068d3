// serve_loadgen — command-line driver for the serving-layer load
// generator (the same engine bench_e17_serving wraps, without the
// google-benchmark harness), for interactive capacity exploration:
//
//   serve_loadgen                             closed loop, defaults
//   serve_loadgen --mode=open --rps=200000    open loop at 200k virtual rps
//   serve_loadgen --users=1000000 --tenants=32 --concurrency=512
//   serve_loadgen --seed=7 --waves=200 --no-batching
//
// Prints the LoadGenReport summary plus a per-tenant table (offered / ok
// / shed / cache hits / batched), so quota skew and fairness are visible
// at a glance. Deterministic: the same flags reproduce the same counters
// (latency columns are wall clock).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/query_profile.h"
#include "common/trace.h"
#include "common/windowed.h"
#include "obs/admin.h"
#include "repl/admin_hooks.h"
#include "repl/replicated_store.h"
#include "serve/admin_hooks.h"
#include "serve/broker.h"
#include "serve/loadgen.h"
#include "serve/slo.h"
#include "strabon/workload.h"

namespace {

namespace eea = exearth;

struct CliOptions {
  uint64_t seed = 42;
  std::string mode = "closed";
  uint64_t users = 100000;
  int tenants = 8;
  size_t concurrency = 64;
  size_t waves = 100;
  double rps = 100000.0;
  size_t requests = 10000;  // open-loop arrivals
  int64_t features = 20000;
  size_t threads = 1;
  bool batching = true;
  size_t cache_capacity = 4096;
  int admin_port = -1;     // -1 = no admin server; 0 = ephemeral
  int admin_linger_s = 0;  // keep the admin server up after the run
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  --seed=N            workload seed (default 42)\n"
      "  --mode=closed|open  arrival mode (default closed)\n"
      "  --users=N           simulated user population (default 100000)\n"
      "  --tenants=N         registered tenants (default 8)\n"
      "  --concurrency=N     closed-loop in-flight requests (default 64)\n"
      "  --waves=N           closed-loop waves (default 100)\n"
      "  --rps=R             open-loop arrival rate (default 100000)\n"
      "  --requests=N        open-loop arrivals (default 10000)\n"
      "  --features=N        GeoStore features (default 20000)\n"
      "  --threads=N         broker worker threads (default 1)\n"
      "  --cache=N           result-cache capacity (default 4096; 0 off)\n"
      "  --no-batching       one traversal per select (max_batch = 1)\n"
      "  --admin_port=N      serve admin endpoints (/metrics /healthz\n"
      "                      /tenantz ...) on 127.0.0.1:N (0 = ephemeral;\n"
      "                      enables the trace recorder, slow-query log,\n"
      "                      windowed sampler and SLO tracker)\n"
      "  --admin_linger_s=N  keep the admin server up N seconds after\n"
      "                      the run so it can be scraped (default 0)\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, CliOptions* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name, std::string* out) {
      const std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = arg.substr(prefix.size());
      return true;
    };
    std::string v;
    if (arg == "--no-batching") {
      opt->batching = false;
    } else if (value("seed", &v)) {
      opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("mode", &v)) {
      if (v != "closed" && v != "open") return false;
      opt->mode = v;
    } else if (value("users", &v)) {
      opt->users = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("tenants", &v)) {
      opt->tenants = std::atoi(v.c_str());
      if (opt->tenants < 1) return false;
    } else if (value("concurrency", &v)) {
      opt->concurrency = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("waves", &v)) {
      opt->waves = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("rps", &v)) {
      opt->rps = std::atof(v.c_str());
      if (opt->rps <= 0) return false;
    } else if (value("requests", &v)) {
      opt->requests = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("features", &v)) {
      opt->features = std::atoll(v.c_str());
      if (opt->features < 1) return false;
    } else if (value("threads", &v)) {
      opt->threads = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("cache", &v)) {
      opt->cache_capacity = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("admin_port", &v)) {
      opt->admin_port = std::atoi(v.c_str());
      if (opt->admin_port < 0 || opt->admin_port > 65535) return false;
    } else if (value("admin_linger_s", &v)) {
      opt->admin_linger_s = std::atoi(v.c_str());
      if (opt->admin_linger_s < 0) return false;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    Usage(argv[0]);
    return 1;
  }

  constexpr double kWorldSize = 1000.0;
  eea::strabon::GeoWorkloadOptions wopt;
  wopt.num_features = cli.features;
  wopt.kind = eea::strabon::GeoWorkloadOptions::GeometryKind::kPoint;
  wopt.with_thematic = false;
  wopt.world_size = kWorldSize;
  wopt.seed = 17;
  eea::strabon::GeoStore store = eea::strabon::MakeGeoWorkload(wopt);

  eea::serve::BrokerOptions bopt;
  if (!cli.batching) bopt.max_batch = 1;  // the unbatched ablation
  bopt.cache_capacity = cli.cache_capacity;
  bopt.num_threads = cli.threads;
  eea::serve::QueryBroker broker(bopt);
  broker.set_store(&store);

  std::vector<eea::serve::TenantId> ids;
  for (int i = 0; i < cli.tenants; ++i) {
    eea::serve::TenantOptions t;
    if (i == 0) {
      t.weight = 4;
      t.quota_rps = 20000.0;
      t.quota_burst = 200.0;
      t.priority = eea::common::Priority::kInteractive;
    } else {
      t.weight = (i % 3 == 1) ? 2 : 1;
      t.quota_rps = 4000.0;
      t.quota_burst = 50.0;
      t.priority = (i % 2 == 0) ? eea::common::Priority::kBestEffort
                                : eea::common::Priority::kBatch;
    }
    ids.push_back(broker.RegisterTenant("tenant" + std::to_string(i), t));
  }

  // Admin mode: live introspection over the run — trace recorder and
  // slow-query log feed /tracez and /slowqueryz, the windowed sampler
  // puts *_rate10s gauges on /metrics, the SLO tracker (fed by the
  // broker with the waves' virtual timestamps) drives the burn-rate
  // gauges and the /tenantz SLO table.
  std::unique_ptr<eea::obs::AdminServer> admin;
  std::unique_ptr<eea::common::WindowedSampler> sampler;
  std::unique_ptr<eea::repl::ReplicatedKvStore> repl_store;
  eea::serve::SloTracker slo({.availability = 0.999,
                              .latency_threshold_us = 5000.0,
                              .latency_goal = 0.99,
                              .window_us = 60'000'000});
  // The loadgen drives the broker on a virtual clock; SLO evaluation has
  // to read the same timeline (steady_clock would place "now" outside
  // every recorded bucket). Updated once the run's report is in.
  auto virtual_now = std::make_shared<std::atomic<int64_t>>(0);
  if (cli.admin_port >= 0) {
    eea::common::EventRecorder::Default().set_enabled(true);
    eea::common::SlowQueryLog::Default().Configure(32, 0.0);
    broker.set_slo_tracker(&slo);
    eea::common::WindowedOptions wopts;
    wopts.sample_period_us = 500'000;
    sampler = std::make_unique<eea::common::WindowedSampler>(
        &eea::common::MetricsRegistry::Default(), wopts);
    sampler->Start();
    eea::obs::AdminServerOptions aopts;
    aopts.port = static_cast<uint16_t>(cli.admin_port);
    admin = std::make_unique<eea::obs::AdminServer>(aopts);
    admin->AddReadinessProbe("strabon.geostore",
                             [&store] { return store.CheckReady(); });
    eea::serve::RegisterServeAdminHooks(
        admin.get(), &broker, &slo, [virtual_now] {
          return virtual_now->load(std::memory_order_relaxed);
        });
    // A small volatile replicated store (2 shards x 2 followers) backs
    // /shardz and the repl_* Prometheus families, so the admin-smoke CI
    // job exercises the replication surface end to end.
    eea::repl::ReplOptions ropt;
    ropt.num_shards = 2;
    ropt.followers_per_shard = 2;
    auto repl_opened = eea::repl::ReplicatedKvStore::Open(ropt);
    if (!repl_opened.ok()) {
      std::fprintf(stderr, "repl store: %s\n",
                   repl_opened.status().ToString().c_str());
      return 1;
    }
    repl_store = std::move(repl_opened).value();
    for (int i = 0; i < 64; ++i) {
      const eea::common::Status put = repl_store->Put(
          "loadgen|row" + std::to_string(i), "v" + std::to_string(i));
      if (!put.ok()) {
        std::fprintf(stderr, "repl store put: %s\n", put.ToString().c_str());
        return 1;
      }
    }
    eea::repl::RegisterReplAdminHooks(admin.get(), repl_store.get());
    const eea::common::Status started = admin->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "--admin_port: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("admin server: http://127.0.0.1:%u/\n",
                static_cast<unsigned>(admin->port()));
    std::fflush(stdout);
  }

  eea::serve::LoadGenOptions load;
  load.seed = cli.seed;
  load.mode = cli.mode == "open" ? eea::serve::ArrivalMode::kOpen
                                 : eea::serve::ArrivalMode::kClosed;
  load.concurrency = cli.concurrency;
  load.waves = cli.waves;
  load.arrival_rps = cli.rps;
  load.total_requests = cli.requests;
  load.num_users = cli.users;
  load.world = {0.0, 0.0, kWorldSize, kWorldSize};
  load.box_extent = 25.0;

  eea::serve::LoadGenReport report =
      eea::serve::RunLoadGen(&broker, ids, load);
  // Evaluate SLO windows at the end of the virtual timeline (never 0, so
  // a zero-duration run still covers virtual second 0).
  virtual_now->store(std::max<int64_t>(report.virtual_duration_us, 1),
                     std::memory_order_relaxed);
  std::printf("%s\n\n", report.Summary().c_str());
  std::printf("%-12s %9s %9s %9s %9s %9s %9s %9s\n", "tenant", "offered",
              "ok", "q_shed", "a_shed", "errors", "hits", "batched");
  for (const auto& t : report.tenants) {
    std::printf("%-12s %9llu %9llu %9llu %9llu %9llu %9llu %9llu\n",
                t.name.c_str(),
                static_cast<unsigned long long>(t.offered),
                static_cast<unsigned long long>(t.ok),
                static_cast<unsigned long long>(t.quota_shed),
                static_cast<unsigned long long>(t.admission_shed),
                static_cast<unsigned long long>(t.errors),
                static_cast<unsigned long long>(t.cache_hits),
                static_cast<unsigned long long>(t.batched));
  }
  if (admin != nullptr && cli.admin_linger_s > 0) {
    std::printf("\nadmin server lingering %ds (ctrl-c to stop early)\n",
                cli.admin_linger_s);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(cli.admin_linger_s));
  }
  if (admin != nullptr) admin->Stop();
  if (sampler != nullptr) sampler->Stop();
  return 0;
}
