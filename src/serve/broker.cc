#include "serve/broker.h"

#include <algorithm>
#include <deque>

#include "common/deadline.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "serve/slo.h"

namespace exearth::serve {

using common::Status;

namespace {

// Cached metric handles (see common/metrics.h: registration locks,
// increments are relaxed atomics).
struct ServeMetrics {
  common::Counter* requests;
  common::Counter* ok;
  common::Counter* errors;
  common::Counter* quota_shed;
  common::Counter* cache_hits;
  common::Counter* cache_misses;
  common::Counter* cache_invalidated;
  common::Counter* cache_evicted;
  common::Counter* batch_groups;
  common::Counter* batch_batched_requests;
  common::Gauge* tenants;
  common::Gauge* batch_max_size;
  common::Histogram* request_latency_us;

  static const ServeMetrics& Get() {
    static ServeMetrics m = [] {
      auto& reg = common::MetricsRegistry::Default();
      return ServeMetrics{
          reg.GetCounter("serve.requests"),
          reg.GetCounter("serve.ok"),
          reg.GetCounter("serve.errors"),
          reg.GetCounter("serve.quota.shed"),
          reg.GetCounter("serve.cache.hits"),
          reg.GetCounter("serve.cache.misses"),
          reg.GetCounter("serve.cache.invalidated"),
          reg.GetCounter("serve.cache.evicted"),
          reg.GetCounter("serve.batch.groups"),
          reg.GetCounter("serve.batch.batched_requests"),
          reg.GetGauge("serve.tenants"),
          reg.GetGauge("serve.batch.max_size"),
          reg.GetHistogram("serve.request_latency_us"),
      };
    }();
    return m;
  }
};

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvU64(uint64_t h, uint64_t v) { return FnvBytes(h, &v, sizeof(v)); }

uint64_t FnvDouble(uint64_t h, double v) { return FnvBytes(h, &v, sizeof(v)); }

uint64_t HashIds(const std::vector<uint64_t>& ids) {
  uint64_t h = kFnvOffset;
  for (uint64_t id : ids) h = FnvU64(h, id);
  return h;
}

}  // namespace

Request Request::SpatialSelect(const geo::Box& box,
                               strabon::SpatialRelation rel) {
  Request r;
  r.box = box;
  r.relation = rel;
  return r;
}

uint64_t Request::Fingerprint() const {
  uint64_t h = kFnvOffset;
  h = FnvDouble(h, box.min_x);
  h = FnvDouble(h, box.min_y);
  h = FnvDouble(h, box.max_x);
  h = FnvDouble(h, box.max_y);
  return FnvU64(h, static_cast<uint64_t>(relation));
}

bool QueryBroker::TokenBucket::TryTake(int64_t now_us) {
  if (last_us < 0) last_us = now_us;
  if (now_us > last_us) {
    tokens = std::min(capacity,
                      tokens + static_cast<double>(now_us - last_us) * per_us);
    last_us = now_us;
  }
  if (tokens >= 1.0) {
    tokens -= 1.0;
    return true;
  }
  return false;
}

QueryBroker::QueryBroker(BrokerOptions options)
    : options_(std::move(options)), admission_("serve", options_.admission) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<common::ThreadPool>(options_.num_threads);
  }
}

QueryBroker::~QueryBroker() = default;

TenantId QueryBroker::RegisterTenant(std::string name, TenantOptions options) {
  EEA_CHECK(options.weight >= 1) << "tenant weight must be >= 1";
  auto t = std::make_unique<Tenant>();
  t->name = std::move(name);
  t->options = options;
  t->bucket.capacity = std::max(1.0, options.quota_burst);
  t->bucket.tokens = t->bucket.capacity;
  t->bucket.per_us = options.quota_rps / 1e6;
  tenants_.push_back(std::move(t));
  ServeMetrics::Get().tenants->Set(static_cast<double>(tenants_.size()));
  return static_cast<TenantId>(tenants_.size() - 1);
}

const std::string& QueryBroker::tenant_name(TenantId id) const {
  static const std::string kUnknown = "<unknown>";
  return id < tenants_.size() ? tenants_[id]->name : kUnknown;
}

QueryBroker::Tenant* QueryBroker::tenant(TenantId id) {
  return id < tenants_.size() ? tenants_[id].get() : nullptr;
}

std::vector<TenantStats> QueryBroker::TenantStatsSnapshot() const {
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) {
    TenantStats s;
    s.name = t->name;
    s.weight = t->options.weight;
    s.priority = t->options.priority;
    s.quota_rps = t->options.quota_rps;
    s.offered = t->offered.load(std::memory_order_relaxed);
    s.ok = t->ok.load(std::memory_order_relaxed);
    s.errors = t->errors.load(std::memory_order_relaxed);
    s.quota_shed = t->quota_shed.load(std::memory_order_relaxed);
    s.admission_shed = t->admission_shed.load(std::memory_order_relaxed);
    s.cache_hits = t->cache_hits.load(std::memory_order_relaxed);
    s.batched = t->batched.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

common::Status QueryBroker::CheckReady() const {
  if (shutting_down()) {
    return Status::Unavailable("serve: broker shutting down");
  }
  if (store_ == nullptr) {
    return Status::FailedPrecondition("serve: no backend registered");
  }
  return Status::OK();
}

uint64_t QueryBroker::DataEpoch() const {
  return store_ != nullptr ? store_->data_epoch() : 0;
}

size_t QueryBroker::cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_lru_.size();
}

bool QueryBroker::CacheGet(const CacheKey& key, Response* out) {
  if (options_.cache_capacity == 0) return false;
  const ServeMetrics& metrics = ServeMetrics::Get();
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_index_.find(key);
  if (it == cache_index_.end()) {
    metrics.cache_misses->Increment();
    return false;
  }
  if (it->second->epoch != DataEpoch()) {
    // Ingest moved the data epoch since this entry was filled: the entry
    // is stale, drop it so the request recomputes against fresh data.
    cache_lru_.erase(it->second);
    cache_index_.erase(it);
    metrics.cache_invalidated->Increment();
    metrics.cache_misses->Increment();
    return false;
  }
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  const CacheEntry& e = *it->second;
  out->status = Status::OK();
  out->ids = e.ids;
  out->result_hash = e.result_hash;
  out->cache_hit = true;
  metrics.cache_hits->Increment();
  return true;
}

void QueryBroker::CachePut(const CacheKey& key, const Response& resp) {
  if (options_.cache_capacity == 0 || !resp.status.ok()) return;
  const ServeMetrics& metrics = ServeMetrics::Get();
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    cache_lru_.erase(it->second);
    cache_index_.erase(it);
  }
  cache_lru_.push_front(
      CacheEntry{key, DataEpoch(), resp.ids, resp.result_hash});
  cache_index_[key] = cache_lru_.begin();
  while (cache_lru_.size() > options_.cache_capacity) {
    cache_index_.erase(cache_lru_.back().key);
    cache_lru_.pop_back();
    metrics.cache_evicted->Increment();
  }
}

void QueryBroker::ExecuteSelectGroup(
    const std::vector<const Request*>& requests,
    const std::vector<Response*>& responses) {
  const ServeMetrics& metrics = ServeMetrics::Get();
  const size_t n = requests.size();
  common::TraceRequest req("serve.batch");
  if (store_ == nullptr) {
    for (Response* r : responses) {
      r->status = Status::FailedPrecondition("serve: no GeoStore backend");
    }
    return;
  }
  std::vector<strabon::BatchSelectQuery> queries(n);
  for (size_t i = 0; i < n; ++i) {
    queries[i] = {requests[i]->box, requests[i]->relation};
  }
  auto res = store_->SpatialSelectBatch(queries);
  if (!res.ok()) {
    for (Response* r : responses) r->status = res.status();
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    responses[i]->ids = std::move((*res)[i]);
    responses[i]->result_hash = HashIds(responses[i]->ids);
    responses[i]->batch_size = n;
    responses[i]->status = Status::OK();
  }
  if (n > 1) {
    metrics.batch_groups->Increment();
    metrics.batch_batched_requests->Increment(n);
    metrics.batch_max_size->Max(static_cast<double>(n));
  }
}

std::vector<Response> QueryBroker::ExecuteWave(
    const std::vector<Offered>& offered, int64_t now_us) {
  const ServeMetrics& metrics = ServeMetrics::Get();
  const size_t n = offered.size();
  metrics.requests->Increment(n);
  std::vector<Response> responses(n);
  if (n == 0) return responses;

  if (shutting_down()) {
    for (size_t i = 0; i < n; ++i) {
      responses[i].status =
          Status::Unavailable("serve: broker shutting down");
      metrics.errors->Increment();
      Tenant* t = tenant(offered[i].tenant);
      if (t != nullptr) {
        t->offered.fetch_add(1, std::memory_order_relaxed);
        t->errors.fetch_add(1, std::memory_order_relaxed);
        if (slo_ != nullptr) slo_->Record(t->name, false, 0.0, now_us);
      }
    }
    return responses;
  }

  // 1. Weighted round-robin service order across the wave's tenants
  // (first-appearance tenant order; weight w => up to w consecutive slots
  // per cycle). Deterministic.
  std::vector<size_t> order;
  order.reserve(n);
  {
    std::vector<TenantId> seq;
    std::unordered_map<TenantId, std::deque<size_t>> queues;
    for (size_t i = 0; i < n; ++i) {
      auto [it, inserted] = queues.try_emplace(offered[i].tenant);
      if (inserted) seq.push_back(offered[i].tenant);
      it->second.push_back(i);
    }
    size_t remaining = n;
    while (remaining > 0) {
      for (TenantId tid : seq) {
        std::deque<size_t>& q = queues[tid];
        const Tenant* t =
            tid < tenants_.size() ? tenants_[tid].get() : nullptr;
        const uint32_t w = t != nullptr ? t->options.weight : 1;
        for (uint32_t k = 0; k < w && !q.empty(); ++k) {
          order.push_back(q.front());
          q.pop_front();
          --remaining;
        }
      }
    }
  }

  // 2. Quota -> admission -> cache, in service order. Cache hits within
  // the wave see the state before the wave executes (identical concurrent
  // misses are then answered by one shared traversal below).
  std::vector<common::AdmissionTicket> tickets(n);
  std::vector<char> execute(n, 0);
  std::vector<CacheKey> keys(n);
  for (size_t slot = 0; slot < order.size(); ++slot) {
    const size_t i = order[slot];
    Response& resp = responses[i];
    resp.service_slot = slot;
    Tenant* t = tenant(offered[i].tenant);
    if (t == nullptr) {
      resp.status = Status::InvalidArgument("serve: unknown tenant");
      metrics.errors->Increment();
      continue;
    }
    t->offered.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(t->mu);
      if (!t->bucket.TryTake(now_us)) {
        resp.status = Status::ResourceExhausted(
            "serve: tenant '" + t->name + "' over quota");
        resp.shed = ShedStage::kQuota;
        metrics.quota_shed->Increment();
        t->quota_shed.fetch_add(1, std::memory_order_relaxed);
        if (slo_ != nullptr) slo_->Record(t->name, false, 0.0, now_us);
        continue;
      }
    }
    Status admitted = admission_.TryAdmit(t->options.priority);
    if (!admitted.ok()) {
      resp.status = admitted;
      resp.shed = ShedStage::kAdmission;
      t->admission_shed.fetch_add(1, std::memory_order_relaxed);
      if (slo_ != nullptr) slo_->Record(t->name, false, 0.0, now_us);
      continue;
    }
    tickets[i] = common::AdmissionTicket(&admission_);
    keys[i] = CacheKey{offered[i].tenant, offered[i].request.Fingerprint()};
    if (CacheGet(keys[i], &resp)) {
      tickets[i].Release();
      metrics.ok->Increment();
      t->cache_hits.fetch_add(1, std::memory_order_relaxed);
      t->ok.fetch_add(1, std::memory_order_relaxed);
      if (slo_ != nullptr) slo_->Record(t->name, true, 0.0, now_us);
      continue;
    }
    execute[i] = 1;
  }

  // 3. Group the wave's executable selects into shared-traversal select
  // groups: service order, groups of <= max_batch.
  std::vector<std::vector<size_t>> groups;  // wave indices
  for (size_t slot = 0; slot < order.size(); ++slot) {
    const size_t i = order[slot];
    if (!execute[i]) continue;
    if (groups.empty() || groups.back().size() >= options_.max_batch) {
      groups.emplace_back();
    }
    groups.back().push_back(i);
  }

  // 4. Execute the groups — independent, so in parallel across the broker
  // pool when configured. Each group runs under the deadline of its
  // leader's tenant (its first member in service order) and stamps its
  // members with its own wall time.
  auto run_group = [&](size_t g) {
    const std::vector<size_t>& members = groups[g];
    const Tenant& leader = *tenants_[offered[members[0]].tenant];
    common::RequestContext rctx;
    if (leader.options.deadline_us > 0) {
      rctx.deadline = common::Deadline::FromNowUs(leader.options.deadline_us);
    }
    common::ScopedRequestContext scope(rctx);
    common::Stopwatch sw;
    std::vector<const Request*> reqs;
    std::vector<Response*> resps;
    reqs.reserve(members.size());
    resps.reserve(members.size());
    for (size_t i : members) {
      reqs.push_back(&offered[i].request);
      resps.push_back(&responses[i]);
    }
    ExecuteSelectGroup(reqs, resps);
    const double us = sw.ElapsedMicros();
    for (size_t i : members) responses[i].latency_us = us;
  };
  if (pool_ != nullptr && groups.size() > 1) {
    pool_->ParallelFor(groups.size(), run_group);
  } else {
    for (size_t g = 0; g < groups.size(); ++g) run_group(g);
  }

  // 5. Account + fill the cache in service order (deterministic LRU), and
  // release the admission slots.
  for (size_t slot = 0; slot < order.size(); ++slot) {
    const size_t i = order[slot];
    if (!execute[i]) continue;
    Response& resp = responses[i];
    metrics.request_latency_us->Observe(resp.latency_us);
    Tenant* t = tenant(offered[i].tenant);
    if (resp.status.ok()) {
      CachePut(keys[i], resp);
      metrics.ok->Increment();
      t->ok.fetch_add(1, std::memory_order_relaxed);
      if (resp.batch_size > 1) {
        t->batched.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      metrics.errors->Increment();
      t->errors.fetch_add(1, std::memory_order_relaxed);
    }
    if (slo_ != nullptr) {
      slo_->Record(t->name, resp.status.ok(), resp.latency_us, now_us);
    }
    tickets[i].Release();
  }
  return responses;
}

}  // namespace exearth::serve
