// Semagrow-style federated SPARQL processing (Challenge C3, experiment
// E11): endpoints with predicate summaries, source selection, per-pattern
// decomposition and cardinality-ordered joins over term-level rows.
//
// Endpoints are autonomous stores with private dictionaries, so federated
// join keys are materialized Terms (exactly the mediator situation
// Semagrow faces); per-endpoint subqueries still run on the endpoint's own
// id-level engine.
//
// Failure semantics (see README "Robustness"): every remote subquery
// passes the `fed.endpoint.call:<name>` fault-injection point. The
// mediator retries failed calls with capped exponential backoff and
// deterministic seeded jitter, enforces an optional per-endpoint call
// deadline, and routes every endpoint through a per-endpoint circuit
// breaker. With `partial_ok` a query survives dead endpoints: the merged
// result of the surviving sources is returned and FederationStats records
// exactly which sources were skipped or degraded.
//
// Overload semantics: Execute honors the ambient common::RequestContext —
// the per-endpoint deadline becomes min(endpoint_deadline_us, remaining
// request deadline), join steps poll for cancellation, and retry backoff
// never sleeps past the request deadline. With ConfigureAdmission() the
// mediator sheds queries at the door (ResourceExhausted) when its bounded
// queue is full for the query's priority class.

#ifndef EXEARTH_FED_FEDERATION_H_
#define EXEARTH_FED_FEDERATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/admission.h"
#include "common/fault.h"
#include "common/query_profile.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "rdf/query.h"
#include "rdf/triple_store.h"

namespace exearth::fed {

/// A federation member: a named store plus its advertised summary.
class Endpoint {
 public:
  Endpoint(std::string name, rdf::TripleStore store);

  const std::string& name() const { return name_; }
  const rdf::TripleStore& store() const { return store_; }

  /// Predicate IRI -> triple count (the Semagrow "summary").
  const std::unordered_map<std::string, uint64_t>& summary() const {
    return summary_;
  }

  /// True if the endpoint advertises `predicate_iri`.
  bool Advertises(const std::string& predicate_iri) const {
    return summary_.count(predicate_iri) > 0;
  }

  /// Executes a single-pattern subquery, returning term-level rows.
  /// Counts one remote call. Safe to call concurrently (the mediator
  /// fans out to endpoints in parallel). Passes the
  /// `fed.endpoint.call:<name>` injection point first, so programmed
  /// faults surface here as error statuses (or injected latency).
  common::Result<std::vector<std::map<std::string, rdf::Term>>>
  ExecutePattern(const rdf::TriplePattern& pattern) const;

  uint64_t calls_served() const {
    return calls_served_.load(std::memory_order_relaxed);
  }

  /// Stable span name for this endpoint's remote calls ("endpoint:name");
  /// outlives any query, so it is safe as a TraceSpan name.
  const char* trace_label() const { return trace_label_.c_str(); }

  /// Stable injection-point name ("fed.endpoint.call:name").
  const char* fault_point() const { return fault_point_.c_str(); }

 private:
  std::string name_;
  std::string trace_label_;
  std::string fault_point_;
  rdf::TripleStore store_;
  std::unordered_map<std::string, uint64_t> summary_;
  mutable std::atomic<uint64_t> calls_served_{0};
};

/// A federated solution row: variable -> term.
using FedBinding = std::map<std::string, rdf::Term>;

struct FederationOptions {
  /// Use predicate summaries to skip irrelevant endpoints. Off = broadcast
  /// every pattern to every endpoint (the naive baseline).
  bool source_selection = true;
  /// Order pattern joins by estimated cardinality from the summaries.
  /// Off = execute in query order.
  bool join_reordering = true;

  // --- Failure handling ---------------------------------------------------

  /// Per-endpoint retry policy. The default (max_attempts = 1) keeps the
  /// pre-fault fail-fast behavior; raise max_attempts to mask transient
  /// endpoint failures with backoff between attempts.
  common::RetryPolicy retry{.max_attempts = 1,
                            .initial_backoff_us = 50,
                            .backoff_multiplier = 2.0,
                            .max_backoff_us = 5000,
                            .jitter = 0.5};
  /// Seed for the deterministic backoff jitter.
  uint64_t retry_seed = 1;
  /// Per-call wall-clock deadline; a call exceeding it counts as failed
  /// (Status::DeadlineExceeded). 0 = no deadline.
  uint64_t endpoint_deadline_us = 0;
  /// Return the merged rows of the surviving endpoints instead of failing
  /// the whole query when an endpoint stays down after retries (or its
  /// breaker is open). Skipped sources land in FederationStats.
  bool partial_ok = false;
  /// Consecutive failures that open an endpoint's circuit breaker;
  /// 0 disables circuit breaking.
  int breaker_failure_threshold = 0;
  /// Rejected calls an open breaker absorbs before half-opening with a
  /// probe (call-count cooldown: deterministic).
  int breaker_cooldown_calls = 8;

  // --- Overload handling --------------------------------------------------

  /// Priority class for admission control (see ConfigureAdmission);
  /// lower classes are shed earlier under overload.
  common::Priority priority = common::Priority::kInteractive;
};

struct FederationStats {
  uint64_t subqueries_sent = 0;
  uint64_t endpoints_contacted = 0;  // distinct endpoints with >= 1 call
  uint64_t rows_transferred = 0;     // rows shipped from endpoints
  uint64_t results = 0;
  // Failure handling.
  uint64_t endpoint_failures = 0;  // failed call attempts (incl. deadline)
  uint64_t retries = 0;            // re-attempts after a failure
  uint64_t breaker_rejects = 0;    // calls short-circuited by open breakers
  uint64_t endpoints_skipped = 0;  // subqueries abandoned under partial_ok
  bool partial = false;            // true if any source was skipped
  /// Names of endpoints whose results are missing from a partial answer
  /// (deduplicated, sorted).
  std::vector<std::string> degraded_sources;
};

/// The mediator.
class FederationEngine {
 public:
  /// Registers an endpoint (not owned) and creates its circuit breaker.
  void Register(const Endpoint* endpoint);

  size_t num_endpoints() const { return endpoints_.size(); }

  /// Readiness probe for the admin /healthz endpoint: the mediator can
  /// answer queries only with at least one registered endpoint.
  common::Status CheckReady() const {
    if (endpoints_.empty()) {
      return common::Status::FailedPrecondition(
          "fed: no endpoints registered");
    }
    return common::Status::OK();
  }

  /// A term-level filter over a federated row.
  using FedFilter = std::function<bool(const FedBinding&)>;

  /// Worker threads for the per-pattern endpoint fan-out; n <= 1 calls
  /// endpoints serially. Not safe to call concurrently with Execute.
  void set_num_threads(size_t n);
  size_t num_threads() const { return num_threads_; }

  /// The circuit breaker guarding `endpoint` (nullptr if unregistered).
  /// Exposed for tests; state persists across Execute calls.
  common::CircuitBreaker* breaker(const Endpoint* endpoint) const;

  /// Installs an admission gate (metrics prefix "admission.fed.*"): every
  /// Execute must win a queue slot for its options.priority or it is shed
  /// with ResourceExhausted before any endpoint is contacted. Not safe to
  /// call concurrently with Execute.
  void ConfigureAdmission(common::AdmissionOptions options);
  /// The installed gate (nullptr when admission control is off). Exposed
  /// so tests and benches can pre-load the queue deterministically.
  common::AdmissionController* admission() const { return admission_.get(); }

  /// Evaluates a BGP (+projection/limit) across the federation.
  /// `query.filters` (id-level) are ignored — pass term-level filters via
  /// `filters` instead, since ids are endpoint-private. Opens a
  /// common::TraceRequest, so endpoint calls (including those made on
  /// pool workers) trace under one request; a per-join-step operator
  /// breakdown is written to `profile` when non-null and fed to the
  /// SlowQueryLog when that is enabled. Per-query execution statistics
  /// are written to `stats` when non-null (on success *and* on error —
  /// there is no racy last_stats() accessor; stats are per call).
  common::Result<std::vector<FedBinding>> Execute(
      const rdf::Query& query, const FederationOptions& options,
      const std::vector<FedFilter>& filters = {},
      common::QueryProfile* profile = nullptr,
      FederationStats* stats = nullptr) const;

 private:
  /// Endpoints that may contribute to `pattern` under the options.
  std::vector<const Endpoint*> SelectSources(
      const rdf::TriplePattern& pattern,
      const FederationOptions& options) const;

  /// Estimated result size of a pattern across selected sources.
  uint64_t EstimateCardinality(const rdf::TriplePattern& pattern,
                               const FederationOptions& options) const;

  std::vector<const Endpoint*> endpoints_;
  // One breaker per endpoint, keyed by identity; state survives queries
  // (a breaker that opened stays open for the next Execute). The map is
  // only mutated by Register, so concurrent Executes read it safely.
  std::unordered_map<const Endpoint*, std::unique_ptr<common::CircuitBreaker>>
      breakers_;
  size_t num_threads_ = 1;
  std::unique_ptr<common::ThreadPool> pool_;
  std::unique_ptr<common::AdmissionController> admission_;
};

}  // namespace exearth::fed

#endif  // EXEARTH_FED_FEDERATION_H_
