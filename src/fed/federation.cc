#include "fed/federation.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>
#include <thread>

#include "common/deadline.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace exearth::fed {

using common::Result;
using common::Status;

namespace {

// Cached handles for the mediator's fan-out hot path.
struct FedMetrics {
  common::Counter* queries;
  common::Counter* subqueries;
  common::Counter* rows_transferred;
  common::Counter* endpoint_failures;
  common::Counter* endpoint_retries;
  common::Counter* deadline_exceeded;
  common::Counter* breaker_rejects;
  common::Counter* partial_results;
  common::Counter* query_deadline_exceeded;
  common::Counter* query_cancelled;
  common::Counter* shed;
  common::Histogram* query_latency_us;
  common::Histogram* endpoint_call_latency_us;

  static const FedMetrics& Get() {
    static FedMetrics m = [] {
      auto& reg = common::MetricsRegistry::Default();
      return FedMetrics{
          reg.GetCounter("fed.queries"),
          reg.GetCounter("fed.subqueries"),
          reg.GetCounter("fed.rows_transferred"),
          reg.GetCounter("fed.endpoint_failures"),
          reg.GetCounter("fed.endpoint_retries"),
          reg.GetCounter("fed.deadline_exceeded"),
          reg.GetCounter("fed.breaker_rejects"),
          reg.GetCounter("fed.partial_results"),
          reg.GetCounter("fed.query_deadline_exceeded"),
          reg.GetCounter("fed.query_cancelled"),
          reg.GetCounter("fed.shed"),
          reg.GetHistogram("fed.query_latency_us"),
          reg.GetHistogram("fed.endpoint_call_latency_us"),
      };
    }();
    return m;
  }
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint64_t HashName(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Endpoint::Endpoint(std::string name, rdf::TripleStore store)
    : name_(std::move(name)),
      trace_label_("endpoint:" + name_),
      fault_point_("fed.endpoint.call:" + name_),
      store_(std::move(store)) {
  store_.Build();
  for (const auto& [pred_id, count] : store_.PredicateStats()) {
    const rdf::Term& term = store_.dict().Decode(pred_id);
    summary_[term.value] = count;
  }
}

Result<std::vector<std::map<std::string, rdf::Term>>> Endpoint::ExecutePattern(
    const rdf::TriplePattern& pattern) const {
  // The fault boundary: programmed rules fire here (error status and/or
  // injected latency), before the endpoint does any work — exactly where
  // a network/endpoint failure would surface.
  EEA_RETURN_NOT_OK(common::fault::MaybeFail(fault_point_.c_str()));
  calls_served_.fetch_add(1, std::memory_order_relaxed);
  rdf::QueryEngine engine(&store_);
  rdf::Query q;
  q.where.push_back(pattern);
  auto rows = engine.Execute(q);
  std::vector<std::map<std::string, rdf::Term>> out;
  if (!rows.ok()) return out;
  out.reserve(rows->size());
  for (const rdf::Binding& b : *rows) {
    std::map<std::string, rdf::Term> row;
    for (const auto& [var, id] : b) {
      row.emplace(var, store_.dict().Decode(id));
    }
    out.push_back(std::move(row));
  }
  return out;
}

void FederationEngine::Register(const Endpoint* endpoint) {
  endpoints_.push_back(endpoint);
  breakers_.emplace(endpoint, std::make_unique<common::CircuitBreaker>());
}

common::CircuitBreaker* FederationEngine::breaker(
    const Endpoint* endpoint) const {
  auto it = breakers_.find(endpoint);
  return it == breakers_.end() ? nullptr : it->second.get();
}

void FederationEngine::ConfigureAdmission(common::AdmissionOptions options) {
  admission_ = std::make_unique<common::AdmissionController>("fed", options);
}

void FederationEngine::set_num_threads(size_t n) {
  num_threads_ = std::max<size_t>(1, n);
  if (num_threads_ > 1) {
    if (pool_ == nullptr || pool_->num_threads() != num_threads_) {
      pool_ = std::make_unique<common::ThreadPool>(num_threads_);
    }
  } else {
    pool_.reset();
  }
}

std::vector<const Endpoint*> FederationEngine::SelectSources(
    const rdf::TriplePattern& pattern,
    const FederationOptions& options) const {
  if (!options.source_selection || pattern.p.is_var ||
      !pattern.p.term.IsIri()) {
    return endpoints_;
  }
  std::vector<const Endpoint*> out;
  for (const Endpoint* e : endpoints_) {
    if (e->Advertises(pattern.p.term.value)) out.push_back(e);
  }
  return out;
}

uint64_t FederationEngine::EstimateCardinality(
    const rdf::TriplePattern& pattern,
    const FederationOptions& options) const {
  uint64_t total = 0;
  for (const Endpoint* e : SelectSources(pattern, options)) {
    if (!pattern.p.is_var && pattern.p.term.IsIri()) {
      auto it = e->summary().find(pattern.p.term.value);
      if (it != e->summary().end()) total += it->second;
    } else {
      for (const auto& [pred, count] : e->summary()) total += count;
    }
  }
  // Bound subject/object slots make the pattern more selective; halve the
  // estimate per bound slot (a crude but standard heuristic).
  if (!pattern.s.is_var) total /= 2;
  if (!pattern.o.is_var) total /= 2;
  return total;
}

namespace {

// Variables of a pattern.
std::vector<std::string> PatternVars(const rdf::TriplePattern& p) {
  std::vector<std::string> vars;
  for (const rdf::PatternSlot* slot : {&p.s, &p.p, &p.o}) {
    if (slot->is_var) vars.push_back(slot->var);
  }
  return vars;
}

// Substitutes variables bound in `row` into `pattern` as constants.
rdf::TriplePattern BindPattern(const rdf::TriplePattern& pattern,
                               const FedBinding& row) {
  rdf::TriplePattern out = pattern;
  for (rdf::PatternSlot* slot : {&out.s, &out.p, &out.o}) {
    if (!slot->is_var) continue;
    auto it = row.find(slot->var);
    if (it != row.end()) {
      slot->is_var = false;
      slot->term = it->second;
      slot->var.clear();
    }
  }
  return out;
}

// Key for memoizing identical bound subqueries.
std::string PatternKey(const rdf::TriplePattern& p) {
  auto slot_key = [](const rdf::PatternSlot& s) {
    if (s.is_var) return "?" + s.var;
    return s.term.ToString();
  };
  return slot_key(p.s) + " " + slot_key(p.p) + " " + slot_key(p.o);
}

// Outcome of one endpoint's retried subquery: rows on success, the final
// status on failure, plus the attempt bookkeeping merged into the stats
// after the fan-out joins (workers never touch shared counters).
struct CallOutcome {
  Status status;
  std::vector<FedBinding> rows;
  uint64_t failures = 0;      // failed attempts
  uint64_t retries = 0;       // re-attempts after a failure
  bool breaker_rejected = false;
  /// The *request* died (cancelled / request deadline), as opposed to the
  /// endpoint failing: fatal even under partial_ok — there is no caller
  /// left to hand a partial answer to.
  bool request_aborted = false;
};

}  // namespace

Result<std::vector<FedBinding>> FederationEngine::Execute(
    const rdf::Query& query, const FederationOptions& options,
    const std::vector<FedFilter>& filters, common::QueryProfile* profile,
    FederationStats* stats) const {
  const FedMetrics& metrics = FedMetrics::Get();
  common::TraceRequest req("fed.Execute", metrics.query_latency_us);
  common::ProfileScope pscope;
  const bool profiling =
      profile != nullptr ||
      (pscope.is_root() && common::SlowQueryLog::Default().enabled());
  const auto query_start = std::chrono::steady_clock::now();
  metrics.queries->Increment();
  FederationStats st;
  std::set<std::string> degraded;
  auto publish = [&]() {
    st.degraded_sources.assign(degraded.begin(), degraded.end());
    if (stats != nullptr) *stats = st;
  };
  // Profile for queries that end before (or instead of) producing rows:
  // shed at admission, cancelled, or out of deadline. The status lands in
  // the profile and the slow-query log, so overload is visible there.
  auto record_failed_profile = [&](const Status& s) {
    if (!profiling) return;
    common::QueryProfile failed;
    failed.query = "fed.Execute";
    failed.trace_id = req.trace_id();
    failed.total_us = SecondsSince(query_start) * 1e6;
    failed.status = common::StatusCodeToString(s.code());
    if (profile != nullptr) *profile = failed;
    if (pscope.is_root()) {
      common::SlowQueryLog::Default().Record(std::move(failed));
    }
  };
  auto count_abort = [&](const Status& s) {
    if (s.IsCancelled()) {
      metrics.query_cancelled->Increment();
    } else if (s.IsDeadlineExceeded()) {
      metrics.query_deadline_exceeded->Increment();
    }
  };

  // Admission: shed at the door when the mediator's queue is full for
  // this query's priority class — before any endpoint work happens.
  common::AdmissionTicket ticket;
  if (admission_ != nullptr) {
    Status admitted = admission_->TryAdmit(options.priority);
    if (!admitted.ok()) {
      metrics.shed->Increment();
      publish();
      record_failed_profile(admitted);
      return admitted;
    }
    ticket = common::AdmissionTicket(admission_.get());
  }

  const common::RequestContext rctx = common::CurrentRequestContext();
  {
    Status entry = rctx.Check("fed.Execute");
    if (!entry.ok()) {
      count_abort(entry);
      publish();
      record_failed_profile(entry);
      return entry;
    }
  }

  if (query.where.empty()) {
    publish();
    return Status::InvalidArgument("empty basic graph pattern");
  }
  if (endpoints_.empty()) {
    publish();
    return Status::FailedPrecondition("no endpoints registered");
  }
  if (options.breaker_failure_threshold > 0) {
    const common::CircuitBreaker::Options bopt{
        options.breaker_failure_threshold, options.breaker_cooldown_calls};
    for (const auto& [ep, breaker] : breakers_) breaker->Configure(bopt);
  }

  // Join order.
  std::vector<size_t> order(query.where.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (options.join_reordering) {
    // Greedy: smallest-estimate connected pattern next.
    std::vector<uint64_t> est(query.where.size());
    for (size_t i = 0; i < query.where.size(); ++i) {
      est[i] = EstimateCardinality(query.where[i], options);
    }
    std::vector<bool> used(query.where.size(), false);
    std::set<std::string> bound;
    std::vector<size_t> greedy;
    for (size_t step = 0; step < query.where.size(); ++step) {
      size_t best = query.where.size();
      uint64_t best_est = std::numeric_limits<uint64_t>::max();
      bool best_connected = false;
      for (size_t i = 0; i < query.where.size(); ++i) {
        if (used[i]) continue;
        bool connected = step == 0;
        for (const std::string& v : PatternVars(query.where[i])) {
          if (bound.count(v)) connected = true;
        }
        if ((connected && !best_connected) ||
            (connected == best_connected && est[i] < best_est)) {
          best = i;
          best_est = est[i];
          best_connected = connected;
        }
      }
      used[best] = true;
      greedy.push_back(best);
      for (const std::string& v : PatternVars(query.where[best])) {
        bound.insert(v);
      }
    }
    order = std::move(greedy);
  }

  std::set<const Endpoint*> contacted;
  // Memo of bound-pattern results within this query execution. Under
  // partial_ok a memoized entry holds the surviving sources' merge.
  std::unordered_map<std::string, std::vector<FedBinding>> memo;

  // One endpoint subquery with retry/backoff, deadline and breaker.
  // Runs on a pool worker under parallel fan-out; touches only its own
  // CallOutcome (the breaker is internally synchronized). Retry decisions
  // and backoff jitter are deterministic per (endpoint, call number).
  auto call_endpoint = [&](const Endpoint* ep,
                           const rdf::TriplePattern& pattern) -> CallOutcome {
    CallOutcome out;
    common::CircuitBreaker* breaker =
        options.breaker_failure_threshold > 0 ? this->breaker(ep) : nullptr;
    const uint64_t salt = HashName(ep->name());
    for (int attempt = 1; attempt <= options.retry.max_attempts; ++attempt) {
      // Is the request itself still worth working for?
      Status request = rctx.Check("fed.endpoint_call");
      if (!request.ok()) {
        out.status = request;
        out.request_aborted = true;
        break;
      }
      if (breaker != nullptr && !breaker->Allow()) {
        out.status = Status::Unavailable("circuit open: " + ep->name());
        out.breaker_rejected = true;
        metrics.breaker_rejects->Increment();
        break;  // an open breaker fails fast; retrying would burn cooldown
      }
      // Per-endpoint deadline: the configured per-call budget, tightened
      // to whatever remains of the request deadline at this attempt.
      uint64_t effective_deadline_us = options.endpoint_deadline_us;
      if (!rctx.deadline.is_infinite()) {
        const int64_t remaining = rctx.deadline.remaining_us();
        const uint64_t rem =
            remaining > 0 ? static_cast<uint64_t>(remaining) : 1;
        effective_deadline_us = effective_deadline_us == 0
                                    ? rem
                                    : std::min(effective_deadline_us, rem);
      }
      common::TraceSpan call_span(ep->trace_label(),
                                  metrics.endpoint_call_latency_us);
      const auto call_start = std::chrono::steady_clock::now();
      auto r = ep->ExecutePattern(pattern);
      Status s = r.ok() ? Status::OK() : r.status();
      if (s.ok() && effective_deadline_us > 0) {
        const double elapsed_us = SecondsSince(call_start) * 1e6;
        if (elapsed_us > static_cast<double>(effective_deadline_us)) {
          s = Status::DeadlineExceeded(ep->name() + " exceeded " +
                                       std::to_string(effective_deadline_us) +
                                       "us deadline");
          metrics.deadline_exceeded->Increment();
        }
      }
      if (breaker != nullptr) {
        s.ok() ? breaker->RecordSuccess() : breaker->RecordFailure();
      }
      if (s.ok()) {
        out.status = Status::OK();
        out.rows = std::move(*r);
        return out;
      }
      out.status = s;
      ++out.failures;
      metrics.endpoint_failures->Increment();
      // Distinguish "this endpoint blew its per-call budget" from "the
      // request itself is out of time": the latter is fatal even under
      // partial_ok (there is no caller left to hand a partial answer to),
      // and must be flagged on the final attempt too, not just before a
      // retry.
      if (!rctx.deadline.is_infinite() && rctx.deadline.remaining_us() <= 0) {
        out.status = Status::DeadlineExceeded(
            "request deadline exceeded during " + ep->name() + " call");
        out.request_aborted = true;
        break;
      }
      if (attempt < options.retry.max_attempts) {
        uint64_t backoff_us =
            common::BackoffUs(options.retry, attempt, options.retry_seed,
                              salt);
        if (!rctx.deadline.is_infinite()) {
          const int64_t remaining = rctx.deadline.remaining_us();
          if (remaining <= 0) {
            out.status = Status::DeadlineExceeded(
                "request deadline exceeded before retrying " + ep->name());
            out.request_aborted = true;
            break;
          }
          // Never sleep past the request deadline.
          backoff_us =
              std::min(backoff_us, static_cast<uint64_t>(remaining));
        }
        ++out.retries;
        metrics.endpoint_retries->Increment();
        if (backoff_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
        }
      }
    }
    return out;
  };

  Status fetch_error;  // first fatal fan-out error (non-partial mode)
  auto fetch = [&](const rdf::TriplePattern& pattern)
      -> const std::vector<FedBinding>* {
    const std::string key = PatternKey(pattern);
    auto it = memo.find(key);
    if (it != memo.end()) return &it->second;
    const std::vector<const Endpoint*> sources =
        SelectSources(pattern, options);
    // Per-source result slots: the fan-out runs on the pool (one task per
    // endpoint) but the merge below walks slots in SelectSources order, so
    // results are deterministic regardless of completion order.
    std::vector<CallOutcome> slots(sources.size());
    auto call_one = [&](size_t i) {
      slots[i] = call_endpoint(sources[i], pattern);
    };
    if (pool_ != nullptr && sources.size() > 1) {
      std::vector<std::future<void>> pending;
      pending.reserve(sources.size());
      for (size_t i = 0; i < sources.size(); ++i) {
        pending.push_back(pool_->Submit([&call_one, i] { call_one(i); }));
      }
      for (auto& f : pending) f.get();
    } else {
      for (size_t i = 0; i < sources.size(); ++i) call_one(i);
    }
    std::vector<FedBinding> rows;
    for (size_t i = 0; i < sources.size(); ++i) {
      st.endpoint_failures += slots[i].failures;
      st.retries += slots[i].retries;
      if (slots[i].breaker_rejected) ++st.breaker_rejects;
      if (!slots[i].status.ok()) {
        // A dead *request* is fatal even under partial_ok — there is no
        // caller left to hand a partial answer to.
        if (slots[i].request_aborted || !options.partial_ok) {
          fetch_error = slots[i].status;
          return nullptr;
        }
        ++st.endpoints_skipped;
        st.partial = true;
        degraded.insert(sources[i]->name());
        metrics.partial_results->Increment();
        continue;
      }
      ++st.subqueries_sent;
      metrics.subqueries->Increment();
      contacted.insert(sources[i]);
      st.rows_transferred += slots[i].rows.size();
      metrics.rows_transferred->Increment(slots[i].rows.size());
      for (auto& row : slots[i].rows) rows.push_back(std::move(row));
    }
    return &memo.emplace(key, std::move(rows)).first->second;
  };

  common::QueryProfile prof;
  std::vector<FedBinding> current = {FedBinding{}};
  for (size_t oi : order) {
    const rdf::TriplePattern& pattern = query.where[oi];
    // Cooperative cancellation between join steps: a doomed query stops
    // before fanning out the next pattern.
    {
      Status step_check = rctx.Check("fed.Execute");
      if (!step_check.ok()) {
        count_abort(step_check);
        st.endpoints_contacted = contacted.size();
        publish();
        record_failed_profile(step_check);
        return step_check;
      }
    }
    const auto step_start = std::chrono::steady_clock::now();
    const uint64_t subqueries_before = st.subqueries_sent;
    const size_t rows_in = current.size();
    std::vector<FedBinding> next;
    size_t row_index = 0;
    for (const FedBinding& row : current) {
      // Bound subqueries fan out once per input row, so poll the context
      // at row granularity too (each fetch can be a full endpoint round).
      if ((row_index++ % 64) == 0) {
        Status row_check = rctx.Check("fed.Execute");
        if (!row_check.ok()) {
          count_abort(row_check);
          st.endpoints_contacted = contacted.size();
          publish();
          record_failed_profile(row_check);
          return row_check;
        }
      }
      rdf::TriplePattern bound_pattern = BindPattern(pattern, row);
      const std::vector<FedBinding>* fetched = fetch(bound_pattern);
      if (fetched == nullptr) {
        count_abort(fetch_error);
        st.endpoints_contacted = contacted.size();
        publish();
        record_failed_profile(fetch_error);
        return fetch_error;
      }
      for (const FedBinding& fetched_row : *fetched) {
        FedBinding merged = row;
        bool ok = true;
        for (const auto& [var, term] : fetched_row) {
          auto it = merged.find(var);
          if (it == merged.end()) {
            merged.emplace(var, term);
          } else if (!(it->second == term)) {
            ok = false;
            break;
          }
        }
        if (ok) next.push_back(std::move(merged));
      }
    }
    current = std::move(next);
    if (profiling) {
      common::OperatorProfile op;
      op.name = "join " + PatternKey(pattern);
      op.wall_us = SecondsSince(step_start) * 1e6;
      op.rows_in = rows_in;
      op.rows_out = current.size();
      op.chunks = st.subqueries_sent - subqueries_before;
      op.threads = pool_ != nullptr ? num_threads_ : 1;
      prof.operators.push_back(std::move(op));
    }
    if (current.empty()) break;
  }

  // Term-level filters.
  if (!filters.empty()) {
    const auto filter_start = std::chrono::steady_clock::now();
    const size_t rows_in = current.size();
    std::vector<FedBinding> kept;
    for (FedBinding& row : current) {
      bool ok = true;
      for (const FedFilter& f : filters) {
        if (!f(row)) {
          ok = false;
          break;
        }
      }
      if (ok) kept.push_back(std::move(row));
    }
    current = std::move(kept);
    if (profiling) {
      common::OperatorProfile op;
      op.name = "filter";
      op.wall_us = SecondsSince(filter_start) * 1e6;
      op.rows_in = rows_in;
      op.rows_out = current.size();
      prof.operators.push_back(std::move(op));
    }
  }

  const size_t rows_before_project = current.size();
  if (query.limit > 0 && current.size() > query.limit) {
    current.resize(query.limit);
  }
  if (!query.select.empty()) {
    for (FedBinding& row : current) {
      FedBinding projected;
      for (const std::string& v : query.select) {
        auto it = row.find(v);
        if (it != row.end()) projected.insert(*it);
      }
      row = std::move(projected);
    }
  }
  st.endpoints_contacted = contacted.size();
  st.results = current.size();
  publish();
  if (profiling) {
    if (query.limit > 0 || !query.select.empty()) {
      common::OperatorProfile op;
      op.name = "project_limit";
      op.rows_in = rows_before_project;
      op.rows_out = current.size();
      prof.operators.push_back(std::move(op));
    }
    prof.query = "fed.Execute";
    prof.trace_id = req.trace_id();
    prof.total_us = SecondsSince(query_start) * 1e6;
    if (profile != nullptr) *profile = prof;
    if (pscope.is_root()) {
      common::SlowQueryLog::Default().Record(std::move(prof));
    }
  }
  return current;
}

}  // namespace exearth::fed
