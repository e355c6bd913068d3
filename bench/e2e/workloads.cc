#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "pipeline.h"
#include "serve/broker.h"

namespace eebench {

namespace {

using eea::common::Rng;
using eea::common::StrFormat;
using eea::serve::Offered;
using eea::serve::QueryBroker;
using eea::serve::Response;
using eea::serve::TenantId;

// ------------------------------------------------------------ parameters

struct Sizes {
  int setup_repeats;       // setup_s is the median of these
  int bootstrap_products;  // archived + published by every setup
  int train_scene;         // classifier training scene side, pixels
  int train_epochs;
  int64_t hot_points;      // serve_hot / mixed bulk features
  int64_t cold_polygons;   // serve_cold bulk features
  double warmup_s;         // open-loop schedule served before measuring
  size_t verify_samples;   // served selects re-run by full scan
  // mixed: schedule time between publishes. A second, not half of one: the
  // backlog behind a publish then covers a tenth of the cycle instead of a
  // third, and the query p50 no longer sits on its edge, where a slower
  // machine moved it twice as far as it slowed.
  int64_t publish_every_us;
};

constexpr Sizes kFullSizes{3, 16, 64, 3, 50000, 40000, 1.0, 64, 1000000};
constexpr Sizes kSmokeSizes{1, 2, 24, 1, 2000, 2000, 0.05, 8, 50000};

// Open-loop rates are constants, so the schedule, and with it what gets
// served, depends only on the seed. They sit at 30-40% of the capacity
// measured on a 4-core x86-64 VM (README, "Calibration and noise"),
// not 50%: that VM has spells in which the same code runs 1.5x
// slower, and at half capacity the backlog grows during them.
constexpr double kHotQueryRate = 1200000.0;  // queries/s
constexpr double kColdQueryRate = 12000.0;   // queries/s
// Lower than serve_hot's: every publish stalls the waves and empties the
// cache, and at serve_hot's rate the backlog would reach the next publish.
constexpr double kMixedQueryRate = 50000.0;  // queries/s
constexpr double kMixedProductRate = 20.0;   // products/s
constexpr double kIngestProductsPerSecond = 110.0;  // of --seconds
constexpr double kHotSloMs = 5.0;
constexpr double kColdSloMs = 50.0;
constexpr double kMixedSloMs = 20.0;

constexpr int kIngestWorkers = 3;  // + the publisher: 4 threads
constexpr size_t kServeThreads = 3;  // broker pool + the main thread
constexpr size_t kMixedServeThreads = 2;  // + main + ingest thread
constexpr size_t kHotPoolPages = 1024;   // 4 MiB: the hot index fits
constexpr size_t kColdPoolPages = 128;   // 512 KiB: the cold index does not
constexpr int kTenants = 16;
constexpr uint64_t kUsers = 1000000;
constexpr double kUserZipf = 1.1;
constexpr size_t kHotBoxes = 256;
constexpr double kBoxZipf = 1.2;
constexpr size_t kCacheEntries = 4096;
constexpr double kBoxSide = 1000.0;  // metres
constexpr int64_t kTickUs = 1000;
// Latency quantiles are taken per window of schedule and the median over
// windows reported, so a short stall of the machine moves one window only.
constexpr int64_t kWindowTicks = 1000;
constexpr size_t kRecoveryQueries = 32;

const Sizes& SizesFor(const RunConfig& cfg) {
  return cfg.smoke ? kSmokeSizes : kFullSizes;
}

int64_t Ticks(double seconds) {
  return std::max<int64_t>(1, std::llround(seconds * 1e6 / kTickUs));
}

// ------------------------------------------------------------ the platform

enum class Bulk { kNone, kPoints, kMultiPolygons };

/// Everything setup builds. Members are destroyed in reverse order, so
/// the data directory goes last.
struct Platform {
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<Classifier> classifier;
  std::unique_ptr<Archive> archive;
  std::unique_ptr<Catalogue> catalogue;
  std::vector<ArchivedProduct> archived;
};

/// Counts the layer metrics are derived from, filled as the run goes.
struct Tally {
  std::map<std::string, uint64_t> counters_before;
  double setup_s = 0.0;
  uint64_t products_mapped = 0;
  uint64_t triples_mapped = 0;
  uint64_t queries_ok = 0;
  uint64_t query_results = 0;
  uint64_t geo_queries = 0;
  uint64_t geo_nodes = 0;
  uint64_t geo_candidates = 0;
  uint64_t geo_results = 0;
  std::vector<double> wave_ms;
  std::vector<double> queue_wait_ms;
  double late_ms_max = 0.0;
};

Platform SetUpOnce(const RunConfig& cfg, Bulk bulk, size_t pool_pages,
                   Tally* tally) {
  const Sizes& sz = SizesFor(cfg);
  ScopedSpan span("setup");
  Platform p;
  p.dir = std::make_unique<TempDir>(cfg.tmp_root);
  {
    ScopedSpan train("ml.train");
    p.classifier =
        Classifier::Train(cfg.seed, sz.train_scene, sz.train_epochs);
  }
  p.archive = Archive::Open(p.dir->path(), cfg.seed);
  p.catalogue = std::make_unique<Catalogue>(p.dir->path(), pool_pages);
  {
    ScopedSpan load("strabon.add_bulk");
    if (bulk == Bulk::kPoints) {
      p.catalogue->AddPoints(sz.hot_points, Scramble(cfg.seed ^ 0x70));
    } else if (bulk == Bulk::kMultiPolygons) {
      p.catalogue->AddMultiPolygons(sz.cold_polygons,
                                    Scramble(cfg.seed ^ 0x71));
    }
  }
  eea::dfs::HopsFsNameNode nn(p.archive->cluster());
  std::vector<std::string> ids;
  for (int i = 0; i < sz.bootstrap_products; ++i) {
    auto product = IngestProduct(MakeProductSpec(cfg.seed, i),
                                 p.classifier.get(), &nn);
    EEA_CHECK_OK(product.status());
    ids.push_back(product->id);
    p.archived.push_back(std::move(product).value());
  }
  auto triples = p.catalogue->MapProducts(&nn, ids);
  EEA_CHECK_OK(triples.status());
  EEA_CHECK_OK(p.catalogue->Build());
  EEA_CHECK_OK(p.catalogue->Freeze());
  EEA_CHECK_OK(p.catalogue->LoadIndex());
  tally->products_mapped += ids.size();
  tally->triples_mapped += *triples;
  return p;
}

/// Sets the platform up `setup_repeats` times and keeps the last; spans
/// and counter baselines cover only that last setup and what follows.
Platform SetUp(const RunConfig& cfg, Bulk bulk, size_t pool_pages,
               Tally* tally) {
  const Sizes& sz = SizesFor(cfg);
  std::vector<double> seconds;
  for (int r = 1; r < sz.setup_repeats; ++r) {
    Tally scratch;
    const int64_t t0 = NowNs();
    Platform discarded = SetUpOnce(cfg, bulk, pool_pages, &scratch);
    seconds.push_back(MsBetween(t0, NowNs()) / 1e3);
  }
  SpanLog::Get().Clear();
  tally->counters_before = CounterSnapshot();
  const int64_t t0 = NowNs();
  Platform p = SetUpOnce(cfg, bulk, pool_pages, tally);
  seconds.push_back(MsBetween(t0, NowNs()) / 1e3);
  tally->setup_s = Quantile(seconds, 0.5);
  return p;
}

// ---------------------------------------------------------------- serving

std::unique_ptr<QueryBroker> MakeBroker(const eea::strabon::GeoStore* store,
                                        size_t threads,
                                        std::vector<TenantId>* tenants) {
  eea::serve::BrokerOptions opt;
  // Nothing is shed: every offered query is answered, so failures mean
  // errors, never admission control.
  opt.admission.max_depth = size_t{1} << 20;
  opt.cache_capacity = kCacheEntries;
  opt.num_threads = threads;
  auto broker = std::make_unique<QueryBroker>(opt);
  broker->set_store(store);
  tenants->clear();
  for (int i = 0; i < kTenants; ++i) {
    eea::serve::TenantOptions t;
    t.weight = i == 0 ? 4 : (i % 3 == 1 ? 2 : 1);
    t.quota_rps = 1e12;
    t.quota_burst = 1e12;
    tenants->push_back(
        broker->RegisterTenant(StrFormat("tenant%02d", i), t));
  }
  return broker;
}

/// Inverse-CDF sampler over ranks [0, n) with P(k) ~ (k + 1)^-s.
class ZipfTable {
 public:
  explicit ZipfTable(std::vector<double> weights) : cdf_(std::move(weights)) {
    double sum = 0.0;
    for (double& w : cdf_) w = (sum += w);
    for (double& w : cdf_) w /= sum;
  }
  static ZipfTable Ranks(size_t n, double s) {
    std::vector<double> w(n);
    for (size_t k = 0; k < n; ++k) w[k] = std::pow(double(k + 1), -s);
    return ZipfTable(std::move(w));
  }
  size_t Sample(Rng* rng) const {
    const auto it =
        std::upper_bound(cdf_.begin(), cdf_.end(), rng->NextDouble());
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Tenant shares of a Zipf(kUserZipf) population of kUsers users mapped
/// onto tenants round-robin.
ZipfTable TenantTable() {
  std::vector<double> w(kTenants, 0.0);
  for (uint64_t u = 0; u < kUsers; ++u) {
    w[u % kTenants] += std::pow(double(u + 1), -kUserZipf);
  }
  return ZipfTable(std::move(w));
}

/// The open-loop arrival schedule: Poisson arrivals at `rate`, quantized
/// to 1 ms ticks; tick k's arrivals form one wave due at (k + 1) ms. A
/// tick's wave is a pure function of (seed, k), so it is generated just
/// before it is due instead of held in memory for the whole run.
class WaveGen {
 public:
  WaveGen(uint64_t seed, double rate, bool hot_pool,
          std::vector<TenantId> tenants)
      : seed_(seed),
        per_tick_(rate * kTickUs / 1e6),
        hot_pool_(hot_pool),
        tenants_(std::move(tenants)),
        tenant_table_(TenantTable()),
        box_table_(ZipfTable::Ranks(kHotBoxes, kBoxZipf)) {
    Rng rng(Scramble(seed ^ 0xb0c5));
    for (size_t i = 0; i < kHotBoxes; ++i) {
      boxes_.push_back(RandomBox(kBoxSide, &rng));
    }
  }

  void Fill(int64_t tick, std::vector<Offered>* wave) const {
    wave->clear();
    Rng rng(Scramble(seed_ ^ Scramble(static_cast<uint64_t>(tick) + 1)));
    const int64_t n = rng.Poisson(per_tick_);
    for (int64_t i = 0; i < n; ++i) {
      Offered o;
      o.tenant = tenants_[tenant_table_.Sample(&rng)];
      o.request = eea::serve::Request::SpatialSelect(
          hot_pool_ ? boxes_[box_table_.Sample(&rng)]
                    : RandomBox(kBoxSide, &rng));
      wave->push_back(std::move(o));
    }
  }

  double per_tick() const { return per_tick_; }

 private:
  uint64_t seed_;
  double per_tick_;
  bool hot_pool_;
  std::vector<TenantId> tenants_;
  ZipfTable tenant_table_;
  ZipfTable box_table_;
  std::vector<eea::geo::Box> boxes_;
};

/// A served select kept for verification against a full scan.
struct Sample {
  eea::geo::Box box;
  std::vector<uint64_t> ids;
  int publishes = 0;  // publishes visible when it was served
};

/// Drives a broker through a WaveGen schedule and accounts every answer.
class OpenLoop {
 public:
  OpenLoop(QueryBroker* broker, const Catalogue* catalogue,
           const WaveGen* gen, uint64_t seed, double slo_ms,
           uint64_t sample_every, size_t max_samples)
      : broker_(broker),
        catalogue_(catalogue),
        gen_(gen),
        seed_(seed),
        slo_ms_(slo_ms),
        sample_every_(std::max<uint64_t>(1, sample_every)),
        max_samples_(max_samples) {}

  /// Serves ticks [0, end) of the schedule in real time from `start_ns`;
  /// waves due from tick `measure_from` on count towards the latency and
  /// capacity metrics. `before_wave(due_us)` runs ahead of each wave.
  void Run(int64_t end, int64_t start_ns, int64_t measure_from,
           const std::function<void(int64_t)>& before_wave, Tally* tally) {
    std::vector<Offered> wave;
    for (int64_t k = 0; k < end; ++k) {
      gen_->Fill(k, &wave);
      if (wave.empty()) continue;
      const int64_t due_us = (k + 1) * kTickUs;
      const int64_t due_ns = start_ns + due_us * 1000;
      if (before_wave) before_wave(due_us);
      if (NowNs() < due_ns) {
        const double late_ms =
            static_cast<double>(SleepUntilNs(due_ns)) / 1e6;
        tally->late_ms_max = std::max(tally->late_ms_max, late_ms);
      }
      const int64_t issue_ns = NowNs();
      std::vector<Response> responses;
      {
        ScopedSpan span("serve.wave", k);
        responses = broker_->ExecuteWave(wave, due_us);
      }
      const int64_t done_ns = NowNs();
      const bool measured = k >= measure_from;
      const double latency = MsBetween(due_ns, done_ns);
      const uint64_t ok =
          Account(k, wave, responses, measured && latency <= slo_ms_, tally);
      if (measured) {
        const auto w = static_cast<size_t>((k - measure_from) / kWindowTicks);
        if (windows_.size() <= w) windows_.resize(w + 1);
        windows_[w].emplace_back(latency, responses.size());
        busy_ms_ += MsBetween(issue_ns, done_ns);
        measured_ok_ += ok;
        tally->wave_ms.push_back(MsBetween(issue_ns, done_ns));
        tally->queue_wait_ms.push_back(
            std::max(0.0, MsBetween(due_ns, issue_ns)));
        measured_offered_ += responses.size();
      }
    }
  }

  void set_publishes(int publishes) { publishes_ = publishes; }

  /// Median over windows of each window's request-weighted quantile.
  double LatencyQuantileMs(double q) const {
    std::vector<double> per_window;
    for (const auto& w : windows_) {
      if (!w.empty()) per_window.push_back(WeightedQuantile(w, q));
    }
    return Quantile(per_window, 0.5);
  }
  /// OK answers per second of broker busy time: the rate at which waves
  /// issued back to back would leave the broker no idle time, so the
  /// highest rate served without a growing backlog.
  double CapacityQps() const {
    return Ratio(static_cast<double>(measured_ok_), busy_ms_ / 1e3);
  }
  double SloRatio() const {
    return Ratio(static_cast<double>(within_slo_),
                 static_cast<double>(measured_offered_));
  }
  uint64_t offered() const { return offered_; }
  uint64_t failed() const { return offered_ - ok_; }
  uint64_t hash() const { return hash_.value(); }
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  /// Hashes and samples a wave's answers; returns how many were OK.
  uint64_t Account(int64_t k, const std::vector<Offered>& wave,
                   const std::vector<Response>& responses, bool in_slo,
                   Tally* tally) {
    const uint64_t ok_before = ok_;
    for (size_t i = 0; i < responses.size(); ++i) {
      const Response& r = responses[i];
      ++offered_;
      if (!r.status.ok()) {
        hash_.Mix(~uint64_t{0});
        continue;
      }
      ++ok_;
      if (in_slo) ++within_slo_;
      ++tally->queries_ok;
      tally->query_results += r.ids.size();
      hash_.Mix(catalogue_->ResultHash(r.ids));
      const uint64_t pick =
          Scramble(seed_ ^ Scramble(static_cast<uint64_t>(k) * 1024 + i));
      if (samples_.size() < max_samples_ && pick % sample_every_ == 0) {
        samples_.push_back({wave[i].request.box, r.ids, publishes_});
      }
    }
    return ok_ - ok_before;
  }

  QueryBroker* broker_;
  const Catalogue* catalogue_;
  const WaveGen* gen_;
  uint64_t seed_;
  double slo_ms_;
  uint64_t sample_every_;
  size_t max_samples_;
  int publishes_ = 0;
  // Per window of kWindowTicks: (latency ms, requests) of each wave.
  std::vector<std::vector<std::pair<double, uint64_t>>> windows_;
  double busy_ms_ = 0.0;  // measured waves' time in ExecuteWave
  uint64_t measured_ok_ = 0;
  uint64_t offered_ = 0;
  uint64_t ok_ = 0;
  uint64_t measured_offered_ = 0;
  uint64_t within_slo_ = 0;
  Hasher hash_;
  std::vector<Sample> samples_;
};

// ----------------------------------------------------------- verification

/// Re-runs every sample through the full-scan baseline against the state
/// it was served from (`visible(id, publishes)` says whether a feature
/// had been published by then) and records the index-path work of the
/// same queries for the geo.* metrics.
void VerifySamples(const Catalogue& catalogue,
                   const std::vector<Sample>& samples,
                   const std::function<bool(uint64_t, int)>& visible,
                   Report* report, Tally* tally) {
  const auto& store = catalogue.store();
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    auto scan = store.SpatialSelect(
        s.box, eea::strabon::SpatialRelation::kIntersects, /*use_index=*/false);
    report->Check(scan.ok(), "full scan failed: " + scan.status().ToString());
    if (!scan.ok()) continue;
    std::vector<uint64_t> expected;
    for (uint64_t id : *scan) {
      if (visible(id, s.publishes)) expected.push_back(id);
    }
    report->Check(expected == s.ids,
                  StrFormat("served select %zu differs from the full scan "
                            "(%zu vs %zu ids)",
                            i, s.ids.size(), expected.size()));
    eea::strabon::SpatialQueryStats stats;
    auto indexed = store.SpatialSelect(
        s.box, eea::strabon::SpatialRelation::kIntersects, /*use_index=*/true,
        &stats);
    if (indexed.ok()) {
      ++tally->geo_queries;
      tally->geo_nodes += stats.nodes_visited;
      tally->geo_candidates += stats.candidates;
      tally->geo_results += stats.results;
    }
  }
}

/// Every acknowledged file must read back byte for byte.
void VerifyArchive(Archive* archive,
                   const std::vector<ArchivedProduct>& archived,
                   Report* report, Hasher* hash) {
  eea::dfs::HopsFsNameNode nn(archive->cluster());
  std::vector<const ArchivedProduct*> sorted;
  for (const ArchivedProduct& p : archived) sorted.push_back(&p);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->id < b->id; });
  for (const ArchivedProduct* p : sorted) {
    for (const ArchivedFile& f : p->files) {
      auto bytes = nn.ReadFile(f.path);
      report->Check(bytes.ok() && bytes->size() == f.size &&
                        eea::common::Fnv1a(*bytes) == f.hash,
                    "acked file does not read back: " + f.path);
      hash->MixString(f.path);
      hash->Mix(f.hash);
    }
  }
}

uint64_t ArchivedBytes(const std::vector<ArchivedProduct>& archived) {
  uint64_t bytes = 0;
  for (const ArchivedProduct& p : archived) {
    for (const ArchivedFile& f : p.files) bytes += f.size;
  }
  return bytes;
}

// ---------------------------------------------------------------- metrics

void AddLayerMetrics(const RunConfig& cfg, const Platform& p,
                     const Tally& t, Report* r) {
  const auto after = CounterSnapshot();
  auto delta = [&](const char* name) {
    return static_cast<double>(CounterDelta(t.counters_before, after, name));
  };
  if (cfg.traced) {
    const std::vector<Span> spans = SpanLog::Get().Snapshot();
    auto q = [&](const char* name, double quantile) {
      return Quantile(SpanDurationsMs(spans, name), quantile);
    };
    double build_ms = 0.0;
    for (double ms : SpanDurationsMs(spans, "strabon.build")) build_ms += ms;
    r->Layer("raster.simulate_ms", q("raster.simulate", 0.5), "ms");
    r->Layer("ml.classify_ms", q("ml.classify", 0.5), "ms");
    r->Layer("dfs.archive_ms_p50", q("dfs.archive", 0.5), "ms");
    r->Layer("dfs.archive_ms_p99", q("dfs.archive", 0.99), "ms");
    r->Layer("repl.open_ms", q("repl.open", 1.0), "ms");
    r->Layer("etl.map_ms", q("etl.map", 0.5), "ms");
    r->Layer("strabon.build_ms_p50", q("strabon.build", 0.5), "ms");
    r->Layer("strabon.build_ms_max", q("strabon.build", 1.0), "ms");
    r->Layer("strabon.build_us_per_feature",
             Ratio(build_ms * 1e3, static_cast<double>(
                                       p.catalogue->features_built())),
             "us");
    r->Layer("strabon.freeze_ms", q("strabon.freeze", 0.5), "ms");
    r->Layer("strabon.load_index_ms", q("strabon.load_index", 0.5), "ms");
    r->Layer("strabon.rebuild_ms", q("strabon.rebuild", 1.0), "ms");
  }
  r->Layer("dfs.txn_retries", delta("dfs.metadata.txn_retries"), "count");
  const double commits = delta("repl.commits_acked");
  r->Layer("repl.commits_acked", commits, "count");
  r->Layer("repl.frames_per_commit",
           Ratio(delta("repl.frames_shipped"), commits), "ratio");
  r->Layer("repl.catchup_records", delta("repl.catchup_records"), "count");
  r->Layer("storage.fsyncs_per_commit",
           Ratio(delta("storage.wal.fsyncs"), commits), "ratio");
  r->Layer("storage.wal_appends_per_commit",
           Ratio(delta("storage.wal.appends"), commits), "ratio");
  r->Layer("storage.wal_replayed_records",
           delta("storage.wal.replayed_records"), "count");
  const double hits = delta("storage.bufferpool.hits");
  r->Layer("storage.pool_hit_ratio",
           Ratio(hits, hits + delta("storage.bufferpool.misses")), "ratio");
  r->Layer("storage.page_reads", delta("storage.page.reads"), "count");
  r->Layer("storage.page_writes", delta("storage.page.writes"), "count");
  r->Layer("storage.disk_bytes",
           static_cast<double>(DirBytes(p.dir->path())), "bytes");
  r->Layer("etl.triples_per_product",
           Ratio(static_cast<double>(t.triples_mapped),
                 static_cast<double>(t.products_mapped)),
           "ratio");
  const double served = static_cast<double>(t.queries_ok);
  r->Layer("strabon.traversals_per_request",
           Ratio(delta("strabon.geostore.select_traversals"), served), "ratio");
  r->Layer("strabon.results_per_query",
           Ratio(static_cast<double>(t.query_results), served), "ratio");
  r->Layer("geo.nodes_visited_per_query",
           Ratio(static_cast<double>(t.geo_nodes),
                 static_cast<double>(t.geo_queries)),
           "ratio");
  r->Layer("geo.candidates_per_result",
           Ratio(static_cast<double>(t.geo_candidates),
                 static_cast<double>(t.geo_results)),
           "ratio");
  r->Layer("serve.wave_ms_p50", Quantile(t.wave_ms, 0.5), "ms");
  r->Layer("serve.wave_ms_p99", Quantile(t.wave_ms, 0.99), "ms");
  const double cache_hits = delta("serve.cache.hits");
  r->Layer("serve.cache_hit_ratio",
           Ratio(cache_hits, cache_hits + delta("serve.cache.misses")),
           "ratio");
  r->Layer("serve.cache_invalidated", delta("serve.cache.invalidated"),
           "count");
  r->Layer("serve.batch_mean_size",
           Ratio(delta("serve.batch.batched_requests"),
                 delta("serve.batch.groups")),
           "ratio");
  r->Layer("serve.shed",
           delta("serve.quota.shed") + delta("admission.serve.shed"), "count");
  r->Layer("serve.queue_wait_ms_p99", Quantile(t.queue_wait_ms, 0.99), "ms");
  r->Layer("bench.generator_late_ms_max", t.late_ms_max, "ms");
}

void AddCommonMetrics(const Tally& t, Report* r) {
  r->EndToEnd("setup_s", t.setup_s, "s");
  r->EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  r->EndToEnd("op_failed_ratio",
              Ratio(static_cast<double>(r->failed),
                    static_cast<double>(r->attempted)),
              "ratio");
}

bool AlwaysVisible(uint64_t, int) { return true; }

// ------------------------------------------------------- serve_hot / _cold

Report RunServe(const RunConfig& cfg, bool hot) {
  const Sizes& sz = SizesFor(cfg);
  Report report;
  Tally tally;
  Platform p = SetUp(cfg, hot ? Bulk::kPoints : Bulk::kMultiPolygons,
                     hot ? kHotPoolPages : kColdPoolPages, &tally);
  std::vector<TenantId> tenants;
  auto broker = MakeBroker(&p.catalogue->store(), kServeThreads, &tenants);
  const double rate = hot ? kHotQueryRate : kColdQueryRate;
  const double slo_ms = hot ? kHotSloMs : kColdSloMs;
  WaveGen gen(cfg.seed, rate, hot, tenants);
  const int64_t warm = Ticks(sz.warmup_s);
  const int64_t end = warm + Ticks(cfg.seconds);
  const double expected = gen.per_tick() * static_cast<double>(end);
  OpenLoop loop(broker.get(), p.catalogue.get(), &gen, cfg.seed, slo_ms,
                static_cast<uint64_t>(expected / sz.verify_samples),
                sz.verify_samples);
  loop.Run(end, NowNs(), warm, nullptr, &tally);

  VerifySamples(*p.catalogue, loop.samples(), AlwaysVisible, &report, &tally);
  Hasher hash;
  hash.Mix(loop.hash());
  hash.Mix(p.catalogue->ContentHash());
  VerifyArchive(p.archive.get(), p.archived, &report, &hash);
  report.result_hash = hash.value();
  report.attempted = loop.offered();
  report.failed = loop.failed();

  report.EndToEnd("query_p50_ms", loop.LatencyQuantileMs(0.5), "ms");
  report.EndToEnd("query_p99_ms", loop.LatencyQuantileMs(0.99), "ms");
  report.EndToEnd("query_slo_ratio", loop.SloRatio(), "ratio");
  report.EndToEnd("query_capacity_qps", loop.CapacityQps(), "1/s");
  AddCommonMetrics(tally, &report);
  AddLayerMetrics(cfg, p, tally, &report);
  return report;
}

// ------------------------------------------------------------------ mixed

Report RunMixed(const RunConfig& cfg) {
  const Sizes& sz = SizesFor(cfg);
  Report report;
  Tally tally;
  Platform p = SetUp(cfg, Bulk::kPoints, kHotPoolPages, &tally);
  std::vector<TenantId> tenants;
  auto broker =
      MakeBroker(&p.catalogue->store(), kMixedServeThreads, &tenants);
  WaveGen gen(cfg.seed, kMixedQueryRate, /*hot_pool=*/true, tenants);
  const int64_t warm = Ticks(sz.warmup_s);
  const int64_t end = warm + Ticks(cfg.seconds);
  const double expected = gen.per_tick() * static_cast<double>(end);
  OpenLoop loop(broker.get(), p.catalogue.get(), &gen, cfg.seed, kMixedSloMs,
                static_cast<uint64_t>(expected / sz.verify_samples),
                sz.verify_samples);

  // Product arrivals: Poisson at kMixedProductRate over the schedule.
  struct Arrival {
    ProductSpec spec;
    int64_t due_us = 0;
  };
  std::vector<Arrival> arrivals;
  {
    Rng rng(Scramble(cfg.seed ^ 0xa77));
    const double horizon_us = static_cast<double>(end * kTickUs);
    double t = 0.0;
    while ((t += rng.Exponential(kMixedProductRate / 1e6)) < horizon_us) {
      arrivals.push_back(
          {MakeProductSpec(cfg.seed, sz.bootstrap_products +
                                         static_cast<int64_t>(arrivals.size())),
           static_cast<int64_t>(t)});
    }
  }

  // Ingest thread -> main thread hand-off.
  std::mutex mu;
  std::condition_variable cv;
  size_t finished = 0;  // arrivals [0, finished) are acked or failed
  std::vector<char> acked(arrivals.size(), 0);
  std::vector<ArchivedProduct> ingested(arrivals.size());
  std::vector<double> ingest_ms;
  uint64_t ingest_failed = 0;

  const int64_t start_ns = NowNs() + 2'000'000;  // let the thread start
  std::thread ingest([&] {
    auto classifier = p.classifier->Clone();
    eea::dfs::HopsFsNameNode nn(p.archive->cluster());
    for (size_t j = 0; j < arrivals.size(); ++j) {
      SleepUntilNs(start_ns + arrivals[j].due_us * 1000);
      const int64_t t0 = NowNs();
      auto product = IngestProduct(arrivals[j].spec, classifier.get(), &nn);
      const int64_t t1 = NowNs();
      std::lock_guard<std::mutex> lock(mu);
      if (product.ok()) {
        acked[j] = 1;
        ingested[j] = std::move(product).value();
        ingest_ms.push_back(MsBetween(t0, t1));
      } else {
        ++ingest_failed;
      }
      finished = j + 1;
      cv.notify_all();
    }
  });

  // Publishes run on the main thread between waves: at each publish point of
  // the schedule, everything due by then is mapped, built and frozen.
  eea::dfs::HopsFsNameNode publisher(p.archive->cluster());
  std::unordered_map<std::string, int> published_at;  // product id -> publish
  std::vector<double> freshness_ms;
  int publishes = 0;
  size_t published_upto = 0;
  int64_t next_publish_us = sz.publish_every_us;
  const int64_t run_end_us = end * kTickUs;
  auto before_wave = [&](int64_t due_us) {
    while (next_publish_us < due_us && next_publish_us <= run_end_us) {
      SleepUntilNs(start_ns + next_publish_us * 1000);
      size_t due = published_upto;
      while (due < arrivals.size() && arrivals[due].due_us <= next_publish_us) {
        ++due;
      }
      std::vector<std::string> ids;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return finished >= due; });
        for (size_t j = published_upto; j < due; ++j) {
          if (acked[j]) ids.push_back(arrivals[j].spec.id);
        }
      }
      if (!ids.empty()) {
        auto published = p.catalogue->Publish(&publisher, ids);
        EEA_CHECK_OK(published.status());
        const int64_t visible_ns = NowNs();
        ++publishes;
        loop.set_publishes(publishes);
        tally.products_mapped += ids.size();
        tally.triples_mapped += *published;
        for (size_t j = published_upto; j < due; ++j) {
          if (!acked[j]) continue;
          published_at[arrivals[j].spec.id] = publishes;
          freshness_ms.push_back(
              MsBetween(start_ns + arrivals[j].due_us * 1000, visible_ns));
        }
      }
      published_upto = due;
      next_publish_us += sz.publish_every_us;
    }
  };
  loop.Run(end, start_ns, warm, before_wave, &tally);
  ingest.join();

  // A feature is visible to a query served after `publishes` publishes
  // when it was bulk-loaded, bootstrapped, or published by then.
  const auto& dict = p.catalogue->store().triples().dict();
  const std::string product_prefix = "http://extremeearth.eu/product/";
  auto visible = [&](uint64_t id, int served_after) {
    const std::string& iri = dict.Decode(id).value;
    if (iri.rfind(product_prefix, 0) != 0) return true;
    const std::string pid = iri.substr(
        product_prefix.size(),
        iri.find('/', product_prefix.size()) - product_prefix.size());
    const auto it = published_at.find(pid);
    return it == published_at.end() || it->second <= served_after;
  };
  VerifySamples(*p.catalogue, loop.samples(), visible, &report, &tally);
  for (size_t j = 0; j < arrivals.size(); ++j) {
    if (acked[j]) p.archived.push_back(std::move(ingested[j]));
  }
  Hasher hash;
  hash.Mix(loop.hash());
  hash.Mix(p.catalogue->ContentHash());
  VerifyArchive(p.archive.get(), p.archived, &report, &hash);
  report.result_hash = hash.value();
  report.attempted = loop.offered() + arrivals.size();
  report.failed = loop.failed() + ingest_failed;

  report.EndToEnd("query_p50_ms", loop.LatencyQuantileMs(0.5), "ms");
  report.EndToEnd("query_p99_ms", loop.LatencyQuantileMs(0.99), "ms");
  report.EndToEnd("query_slo_ratio", loop.SloRatio(), "ratio");
  report.EndToEnd("query_capacity_qps", loop.CapacityQps(), "1/s");
  report.EndToEnd("ingest_p50_ms", Quantile(ingest_ms, 0.5), "ms");
  report.EndToEnd("ingest_p99_ms", Quantile(ingest_ms, 0.99), "ms");
  report.EndToEnd("freshness_p50_ms", Quantile(freshness_ms, 0.5), "ms");
  report.EndToEnd("freshness_p99_ms", Quantile(freshness_ms, 0.99), "ms");
  report.EndToEnd("disk_bytes_per_user_byte",
                  Ratio(static_cast<double>(DirBytes(p.dir->path())),
                        static_cast<double>(ArchivedBytes(p.archived))),
                  "ratio");
  AddCommonMetrics(tally, &report);
  AddLayerMetrics(cfg, p, tally, &report);
  return report;
}

// ----------------------------------------------------------------- ingest

std::vector<std::string> SortedIris(const Catalogue& catalogue,
                                    const std::vector<uint64_t>& ids) {
  std::vector<std::string> out;
  for (uint64_t id : ids) {
    out.push_back(catalogue.store().triples().dict().Decode(id).value);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Report RunIngest(const RunConfig& cfg) {
  const Sizes& sz = SizesFor(cfg);
  Report report;
  Tally tally;
  Platform p = SetUp(cfg, Bulk::kNone, kHotPoolPages, &tally);
  const int64_t count = std::max<int64_t>(
      1, std::llround(kIngestProductsPerSecond * cfg.seconds));
  const int64_t first = sz.bootstrap_products;

  // Closed loop: workers take the next product as soon as they finish one;
  // the publisher publishes whatever has been archived since its last
  // round.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ArchivedProduct> ready;
  int workers_done = 0;
  std::vector<int64_t> start_ns(static_cast<size_t>(count), 0);
  std::vector<double> ingest_ms;
  int64_t last_ack_ns = 0;
  uint64_t failed = 0;
  std::atomic<int64_t> next{0};

  const int64_t t0 = NowNs();
  std::vector<std::thread> workers;
  for (int w = 0; w < kIngestWorkers; ++w) {
    workers.emplace_back([&] {
      auto classifier = p.classifier->Clone();
      eea::dfs::HopsFsNameNode nn(p.archive->cluster());
      for (int64_t j; (j = next.fetch_add(1)) < count;) {
        const int64_t s = NowNs();
        auto product = IngestProduct(MakeProductSpec(cfg.seed, first + j),
                                     classifier.get(), &nn);
        const int64_t e = NowNs();
        std::lock_guard<std::mutex> lock(mu);
        start_ns[static_cast<size_t>(j)] = s;
        if (product.ok()) {
          ingest_ms.push_back(MsBetween(s, e));
          last_ack_ns = std::max(last_ack_ns, e);
          ready.push_back(std::move(product).value());
        } else {
          ++failed;
        }
        cv.notify_all();
      }
      std::lock_guard<std::mutex> lock(mu);
      ++workers_done;
      cv.notify_all();
    });
  }
  std::vector<double> freshness_ms;
  for (;;) {
    std::vector<ArchivedProduct> batch;
    bool last_round = false;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] {
        return !ready.empty() || workers_done == kIngestWorkers;
      });
      batch.swap(ready);
      last_round = workers_done == kIngestWorkers;
    }
    if (!batch.empty()) {
      std::vector<std::string> ids;
      for (const ArchivedProduct& a : batch) ids.push_back(a.id);
      eea::dfs::HopsFsNameNode publisher(p.archive->cluster());
      auto published = p.catalogue->Publish(&publisher, ids);
      EEA_CHECK_OK(published.status());
      const int64_t visible_ns = NowNs();
      tally.products_mapped += ids.size();
      tally.triples_mapped += *published;
      std::lock_guard<std::mutex> lock(mu);
      for (ArchivedProduct& a : batch) {
        freshness_ms.push_back(MsBetween(
            start_ns[static_cast<size_t>(a.index - first)], visible_ns));
        p.archived.push_back(std::move(a));
      }
    }
    if (last_round && batch.empty()) break;
  }
  for (std::thread& w : workers) w.join();
  const double products_per_s = static_cast<double>(ingest_ms.size()) /
                                (MsBetween(t0, last_ack_ns) / 1e3);
  const double disk_ratio =
      Ratio(static_cast<double>(DirBytes(p.dir->path())),
            static_cast<double>(ArchivedBytes(p.archived)));

  // The queries recovery must answer exactly as the pre-crash store does:
  // boxes around archived products, so every one has answers.
  std::vector<eea::geo::Box> queries;
  std::vector<std::vector<std::string>> expected;
  {
    Rng rng(Scramble(cfg.seed ^ 0x9e7));
    for (size_t i = 0; i < kRecoveryQueries; ++i) {
      const ProductSpec around = MakeProductSpec(
          cfg.seed, static_cast<int64_t>(rng.Uniform(
                        static_cast<uint64_t>(first + count))));
      queries.push_back(eea::geo::Box::Of(
          around.origin_x - kBoxSide / 2, around.origin_y - kBoxSide,
          around.origin_x + kBoxSide / 2, around.origin_y));
      auto scan = p.catalogue->store().SpatialSelect(
          queries.back(), eea::strabon::SpatialRelation::kIntersects,
          /*use_index=*/false);
      EEA_CHECK_OK(scan.status());
      expected.push_back(SortedIris(*p.catalogue, *scan));
    }
  }
  const uint64_t content_before = p.catalogue->ContentHash();

  // Crash drill (E19's): the next commit kills the shard leader after its
  // local append and before shipping, so that product is never acked.
  auto& injector = eea::common::FaultInjector::Default();
  injector.Reset();
  injector.set_seed(cfg.seed);
  eea::common::FaultRule rule;
  rule.fail_calls = {1};
  injector.Program("repl.leader.crash", rule);
  const ProductSpec doomed = MakeProductSpec(cfg.seed, first + count);
  {
    eea::dfs::HopsFsNameNode nn(p.archive->cluster());
    auto classifier = p.classifier->Clone();
    const auto crashed = IngestProduct(doomed, classifier.get(), &nn);
    report.Check(!crashed.ok() && crashed.status().IsUnavailable(),
                 "the injected leader crash did not refuse the commit");
  }
  injector.Reset();
  std::vector<std::string> lost_wals;
  for (const auto& shard : p.archive->store()->StatusSnapshot()) {
    for (const auto& replica : shard.replicas) {
      if (replica.down) {
        lost_wals.push_back(
            p.archive->ReplicaWalPath(shard.shard, replica.replica));
      }
    }
  }
  report.Check(lost_wals.size() == 1, "expected exactly one crashed replica");
  p.archive.reset();
  // A crashed replica is a permanent node loss: its WAL holds the
  // unacked commit and must not come back.
  for (const std::string& wal : lost_wals) std::filesystem::remove(wal);

  // Recovery: reopen the store, re-publish every archived product, and
  // answer the first query correctly.
  const int64_t r0 = NowNs();
  p.archive = Archive::Open(p.dir->path(), cfg.seed);
  eea::dfs::HopsFsNameNode nn(p.archive->cluster());
  auto listed = nn.List("/products");
  EEA_CHECK_OK(listed.status());
  std::vector<std::string> ids;
  for (const std::string& name : *listed) {
    ids.push_back(name.substr(0, name.size() - std::string(".SAFE").size()));
  }
  std::sort(ids.begin(), ids.end());
  Catalogue recovered(p.dir->path() + "/recovered", kHotPoolPages);
  auto republished = recovered.MapProducts(&nn, ids);
  EEA_CHECK_OK(republished.status());
  EEA_CHECK_OK(recovered.Build("strabon.rebuild"));
  std::vector<TenantId> tenants;
  auto broker = MakeBroker(&recovered.store(), 1, &tenants);
  std::vector<Offered> wave{
      {tenants[0], eea::serve::Request::SpatialSelect(queries[0])}};
  std::vector<Response> first_answer;
  {
    ScopedSpan span("serve.wave", 0);
    first_answer = broker->ExecuteWave(wave, kTickUs);
  }
  const bool first_ok =
      first_answer[0].status.ok() &&
      SortedIris(recovered, first_answer[0].ids) == expected[0];
  const double recovery_s = MsBetween(r0, NowNs()) / 1e3;
  report.Check(first_ok, "first query after recovery was wrong");

  // Untimed: the other queries through the broker, the store contents,
  // and the archive.
  Hasher hash;
  std::vector<Sample> samples;
  for (size_t i = 0; i < queries.size(); i += 8) {
    wave.clear();
    for (size_t j = i; j < std::min(i + 8, queries.size()); ++j) {
      wave.push_back({tenants[j % tenants.size()],
                      eea::serve::Request::SpatialSelect(queries[j])});
    }
    const int64_t s = NowNs();
    std::vector<Response> answers;
    {
      ScopedSpan span("serve.wave", static_cast<int64_t>(i / 8 + 1));
      answers =
          broker->ExecuteWave(wave, static_cast<int64_t>(i + 2) * kTickUs);
    }
    tally.wave_ms.push_back(MsBetween(s, NowNs()));
    for (size_t j = 0; j < answers.size(); ++j) {
      const bool ok = answers[j].status.ok();
      report.Check(ok && SortedIris(recovered, answers[j].ids) ==
                             expected[i + j],
                   StrFormat("query %zu after recovery was wrong", i + j));
      if (!ok) continue;
      ++tally.queries_ok;
      tally.query_results += answers[j].ids.size();
      hash.Mix(recovered.ResultHash(answers[j].ids));
      samples.push_back({queries[i + j], answers[j].ids, 0});
    }
  }
  VerifySamples(recovered, samples, AlwaysVisible, &report, &tally);
  report.Check(recovered.ContentHash() == content_before,
               "re-published store differs from the pre-crash store");
  report.Check(
      !nn.GetFileInfo(Archive::ProductDir(doomed.id)).ok(),
      "the refused product became visible after recovery");
  report.Check(ids.size() == p.archived.size(),
               StrFormat("%zu products listed after recovery, %zu acked",
                         ids.size(), p.archived.size()));
  hash.Mix(content_before);
  VerifyArchive(p.archive.get(), p.archived, &report, &hash);
  report.result_hash = hash.value();
  tally.products_mapped += ids.size();
  tally.triples_mapped += *republished;
  report.attempted = static_cast<uint64_t>(count) + queries.size();
  report.failed = failed;

  report.EndToEnd("ingest_products_per_s", products_per_s, "1/s");
  report.EndToEnd("ingest_p50_ms", Quantile(ingest_ms, 0.5), "ms");
  report.EndToEnd("ingest_p99_ms", Quantile(ingest_ms, 0.99), "ms");
  report.EndToEnd("freshness_p50_ms", Quantile(freshness_ms, 0.5), "ms");
  report.EndToEnd("freshness_p99_ms", Quantile(freshness_ms, 0.99), "ms");
  report.EndToEnd("recovery_s", recovery_s, "s");
  report.EndToEnd("disk_bytes_per_user_byte", disk_ratio, "ratio");
  AddCommonMetrics(tally, &report);
  AddLayerMetrics(cfg, p, tally, &report);
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ingest", "serve_hot",
                                                 "serve_cold", "mixed"};
  return names;
}

std::string WorkloadConfigJson(const RunConfig& cfg) {
  const Sizes& sz = SizesFor(cfg);
  const std::string common = StrFormat(
      "\"setup_repeats\": %d, \"bootstrap_products\": %d, "
      "\"threads\": 4, \"tenants\": %d, \"users\": %llu, "
      "\"cache_entries\": %zu",
      sz.setup_repeats, sz.bootstrap_products, kTenants,
      static_cast<unsigned long long>(kUsers), kCacheEntries);
  if (cfg.workload == "ingest") {
    return StrFormat(
        "{%s, \"loop\": \"closed\", \"products\": %lld, \"workers\": %d, "
        "\"shards\": 1, \"followers\": 2, \"write_quorum\": 1, "
        "\"pool_pages\": %zu}",
        common.c_str(),
        static_cast<long long>(
            std::llround(kIngestProductsPerSecond * cfg.seconds)),
        kIngestWorkers, kHotPoolPages);
  }
  const bool hot = cfg.workload != "serve_cold";
  const bool mixed = cfg.workload == "mixed";
  std::string out = StrFormat(
      "{%s, \"loop\": \"open\", \"tick_ms\": 1, \"query_rate\": %.0f, "
      "\"slo_ms\": %.0f, \"features\": %lld, \"geometry\": \"%s\", "
      "\"box_m\": %.0f, \"box_pool\": \"%s\", \"pool_pages\": %zu, "
      "\"warmup_s\": %.2f",
      common.c_str(),
      mixed ? kMixedQueryRate : (hot ? kHotQueryRate : kColdQueryRate),
      mixed ? kMixedSloMs : (hot ? kHotSloMs : kColdSloMs),
      static_cast<long long>(hot ? sz.hot_points : sz.cold_polygons),
      hot ? "point" : "multipolygon", kBoxSide,
      hot ? "zipf 1.2 over 256" : "uniform, never repeats",
      hot ? kHotPoolPages : kColdPoolPages, sz.warmup_s);
  if (mixed) {
    out += StrFormat(", \"product_rate\": %.0f, \"publish_every_ms\": %lld",
                     kMixedProductRate,
                     static_cast<long long>(sz.publish_every_us / 1000));
  }
  return out + "}";
}

Report RunWorkload(const RunConfig& cfg) {
  if (cfg.workload == "ingest") return RunIngest(cfg);
  if (cfg.workload == "serve_hot") return RunServe(cfg, /*hot=*/true);
  if (cfg.workload == "serve_cold") return RunServe(cfg, /*hot=*/false);
  EEA_CHECK(cfg.workload == "mixed") << "unknown workload " << cfg.workload;
  return RunMixed(cfg);
}

}  // namespace eebench
