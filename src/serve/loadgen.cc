#include "serve/loadgen.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"

namespace exearth::serve {

namespace {

double Percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double rank = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// Precomputed query shapes: popular ranks repeat, which is what exercises
// the result cache and same-box batch dedup.
struct QueryPool {
  std::vector<Request> requests;

  static QueryPool Build(const LoadGenOptions& opt, common::Rng* rng) {
    QueryPool pool;
    pool.requests.reserve(opt.query_pool);
    const double w = opt.world.max_x - opt.world.min_x;
    const double h = opt.world.max_y - opt.world.min_y;
    for (size_t i = 0; i < opt.query_pool; ++i) {
      double ext_x = rng->UniformDouble(0.1, std::min(opt.box_extent, w));
      double ext_y = rng->UniformDouble(0.1, std::min(opt.box_extent, h));
      double x = rng->UniformDouble(opt.world.min_x, opt.world.max_x - ext_x);
      double y = rng->UniformDouble(opt.world.min_y, opt.world.max_y - ext_y);
      pool.requests.push_back(Request::SpatialSelect(
          geo::Box{x, y, x + ext_x, y + ext_y}));
    }
    return pool;
  }
};

class Generator {
 public:
  Generator(const LoadGenOptions& opt, const std::vector<TenantId>& tenants)
      : opt_(opt), tenants_(tenants), rng_(opt.seed) {
    pool_ = QueryPool::Build(opt_, &rng_);
  }

  Offered NextRequest() {
    Offered o;
    // Zipf skew over the simulated user population; users map to tenants
    // round-robin, so low-rank (popular) users pile onto the first
    // tenants and the tail trickles across the rest.
    uint64_t user = rng_.Zipf(std::max<uint64_t>(opt_.num_users, 1), opt_.zipf_s);
    o.tenant = tenants_[user % tenants_.size()];
    // A draw the request does not use: it keeps the seeded offered stream
    // (tenants, query ranks, arrival times) that the E17 counters and
    // result hashes are pinned to.
    rng_.NextDouble();
    size_t idx = static_cast<size_t>(
        rng_.Zipf(pool_.requests.size(), opt_.query_zipf_s));
    o.request = pool_.requests[idx];
    return o;
  }

  double NextInterarrivalUs() {
    return rng_.Exponential(opt_.arrival_rps / 1e6);
  }

 private:
  const LoadGenOptions& opt_;
  const std::vector<TenantId>& tenants_;
  common::Rng rng_;
  QueryPool pool_;
};

}  // namespace

std::string LoadGenReport::Summary() const {
  std::ostringstream os;
  os << "offered=" << offered << " ok=" << ok << " errors=" << errors
     << " shed(quota=" << quota_shed << ",admission=" << admission_shed << ")"
     << " cache_hits=" << cache_hits << " batched=" << batched_requests
     << " waves=" << waves << " vtime_ms=" << virtual_duration_us / 1000
     << " hash=" << result_hash << "\n"
     << "throughput=" << static_cast<uint64_t>(throughput_rps)
     << " req/s  latency_us p50=" << static_cast<uint64_t>(p50_us)
     << " p95=" << static_cast<uint64_t>(p95_us)
     << " p99=" << static_cast<uint64_t>(p99_us)
     << " max=" << static_cast<uint64_t>(max_us);
  return os.str();
}

LoadGenReport RunLoadGen(QueryBroker* broker,
                         const std::vector<TenantId>& tenants,
                         const LoadGenOptions& options) {
  EEA_CHECK(broker != nullptr);
  EEA_CHECK(!tenants.empty()) << "loadgen needs at least one tenant";

  Generator gen(options, tenants);
  LoadGenReport report;
  report.tenants.resize(broker->num_tenants());
  for (size_t i = 0; i < report.tenants.size(); ++i) {
    report.tenants[i].name = broker->tenant_name(static_cast<TenantId>(i));
  }
  std::vector<double> latencies;

  auto run_wave = [&](const std::vector<Offered>& wave, int64_t now_us) {
    std::vector<Response> responses = broker->ExecuteWave(wave, now_us);
    ++report.waves;
    for (size_t i = 0; i < responses.size(); ++i) {
      const Response& r = responses[i];
      TenantLoadStats& ts = report.tenants[wave[i].tenant];
      ++report.offered;
      ++ts.offered;
      if (r.shed == ShedStage::kQuota) {
        ++report.quota_shed;
        ++ts.quota_shed;
      } else if (r.shed == ShedStage::kAdmission) {
        ++report.admission_shed;
        ++ts.admission_shed;
      } else if (!r.status.ok()) {
        ++report.errors;
        ++ts.errors;
      } else {
        ++report.ok;
        ++ts.ok;
        report.result_hash += r.result_hash;  // order-independent sum
        if (r.cache_hit) {
          ++report.cache_hits;
          ++ts.cache_hits;
        }
        if (r.batch_size > 1) {
          ++report.batched_requests;
          ++ts.batched;
        }
        latencies.push_back(r.latency_us);
      }
    }
  };

  common::Stopwatch wall;
  if (options.mode == ArrivalMode::kClosed) {
    std::vector<Offered> wave;
    wave.reserve(options.concurrency);
    for (size_t w = 0; w < options.waves; ++w) {
      wave.clear();
      for (size_t i = 0; i < options.concurrency; ++i) {
        wave.push_back(gen.NextRequest());
      }
      int64_t now_us = static_cast<int64_t>(w + 1) * options.wave_virtual_us;
      run_wave(wave, now_us);
      report.virtual_duration_us = now_us;
    }
  } else {
    // Open loop: Poisson arrivals on the virtual clock; everything that
    // lands inside one tick window is concurrently in flight.
    std::vector<Offered> wave;
    double arrival_us = 0.0;
    size_t generated = 0;
    int64_t tick_end_us = options.tick_us;
    while (generated < options.total_requests) {
      arrival_us += gen.NextInterarrivalUs();
      while (static_cast<int64_t>(arrival_us) >= tick_end_us) {
        if (!wave.empty()) {
          run_wave(wave, tick_end_us);
          wave.clear();
        }
        tick_end_us += options.tick_us;
      }
      wave.push_back(gen.NextRequest());
      ++generated;
    }
    if (!wave.empty()) run_wave(wave, tick_end_us);
    report.virtual_duration_us = tick_end_us;
  }
  double wall_s = static_cast<double>(wall.ElapsedMicros()) / 1e6;

  report.throughput_rps =
      wall_s > 0 ? static_cast<double>(report.ok) / wall_s : 0.0;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    report.p50_us = Percentile(latencies, 0.50);
    report.p95_us = Percentile(latencies, 0.95);
    report.p99_us = Percentile(latencies, 0.99);
    report.max_us = latencies.back();
    double sum = 0.0;
    for (double v : latencies) sum += v;
    report.mean_us = sum / static_cast<double>(latencies.size());
  }
  return report;
}

}  // namespace exearth::serve
