#include "serve/slo.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/prometheus.h"

namespace exearth::serve {

using common::StrFormat;

namespace {

size_t RingSize(const SloTarget& target) {
  const int64_t seconds = std::max<int64_t>(1, target.window_us / 1'000'000);
  return static_cast<size_t>(seconds) + 1;
}

double Burn(uint64_t bad, uint64_t total, double goal) {
  if (total == 0) return 0.0;
  const double budget = 1.0 - goal;
  if (budget <= 0.0) return bad > 0 ? 1e9 : 0.0;  // zero-budget objective
  return (static_cast<double>(bad) / static_cast<double>(total)) / budget;
}

}  // namespace

SloTracker::SloTracker(SloTarget target) : default_target_(target) {}

void SloTracker::SetTarget(const std::string& tenant, SloTarget target) {
  std::lock_guard<std::mutex> lock(mu_);
  Ring& ring = rings_[tenant];
  ring.target = target;
  ring.buckets.assign(RingSize(target), Bucket{});
  ring.newest_second = -1;
}

SloTracker::Ring* SloTracker::RingFor(const std::string& tenant) {
  auto [it, inserted] = rings_.try_emplace(tenant);
  if (inserted) {
    it->second.target = default_target_;
    it->second.buckets.assign(RingSize(default_target_), Bucket{});
  }
  return &it->second;
}

void SloTracker::Record(const std::string& tenant, bool ok, double latency_us,
                        int64_t now_us) {
  if (now_us < 0) return;
  const int64_t second = now_us / 1'000'000;
  std::lock_guard<std::mutex> lock(mu_);
  Ring* ring = RingFor(tenant);
  // A second older than what the ring has already cycled past would land
  // in a bucket now holding newer data; drop it rather than corrupt.
  if (ring->newest_second >= 0 &&
      second + static_cast<int64_t>(ring->buckets.size()) <=
          ring->newest_second) {
    return;
  }
  ring->newest_second = std::max(ring->newest_second, second);
  Bucket& b = ring->buckets[static_cast<size_t>(
      second % static_cast<int64_t>(ring->buckets.size()))];
  if (b.second != second) b = Bucket{second, 0, 0, 0};
  ++b.total;
  if (!ok) {
    ++b.errors;
  } else if (latency_us > ring->target.latency_threshold_us) {
    ++b.slow;
  }
}

SloBurn SloTracker::EvaluateRing(const std::string& name, const Ring& ring,
                                 int64_t now_us) const {
  SloBurn burn;
  burn.tenant = name;
  const int64_t now_second = now_us / 1'000'000;
  const int64_t window_seconds =
      std::max<int64_t>(1, ring.target.window_us / 1'000'000);
  for (const Bucket& b : ring.buckets) {
    if (b.second < 0) continue;
    if (b.second > now_second || b.second <= now_second - window_seconds) {
      continue;
    }
    burn.total += b.total;
    burn.errors += b.errors;
    burn.slow += b.slow;
  }
  burn.availability_burn =
      Burn(burn.errors, burn.total, ring.target.availability);
  burn.latency_burn = Burn(burn.slow, burn.total, ring.target.latency_goal);
  return burn;
}

std::vector<SloBurn> SloTracker::Evaluate(int64_t now_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloBurn> out;
  out.reserve(rings_.size());
  for (const auto& [name, ring] : rings_) {
    out.push_back(EvaluateRing(name, ring, now_us));
  }
  return out;
}

std::string SloTracker::PrometheusText(int64_t now_us) const {
  std::string out = "# TYPE serve_slo_burn_rate gauge\n";
  for (const SloBurn& b : Evaluate(now_us)) {
    const std::string tenant = obs::EscapeLabelValue(b.tenant);
    out += StrFormat(
        "serve_slo_burn_rate{tenant=\"%s\",slo=\"availability\"} %g\n",
        tenant.c_str(), b.availability_burn);
    out += StrFormat(
        "serve_slo_burn_rate{tenant=\"%s\",slo=\"latency\"} %g\n",
        tenant.c_str(), b.latency_burn);
  }
  return out;
}

std::string SloTracker::TableText(int64_t now_us) const {
  std::string out =
      StrFormat("%-16s %10s %8s %8s %12s %12s\n", "tenant", "window_reqs",
                "errors", "slow", "avail_burn", "latency_burn");
  for (const SloBurn& b : Evaluate(now_us)) {
    out += StrFormat("%-16s %10llu %8llu %8llu %12.3f %12.3f\n",
                     b.tenant.c_str(),
                     static_cast<unsigned long long>(b.total),
                     static_cast<unsigned long long>(b.errors),
                     static_cast<unsigned long long>(b.slow),
                     b.availability_burn, b.latency_burn);
  }
  return out;
}

}  // namespace exearth::serve
