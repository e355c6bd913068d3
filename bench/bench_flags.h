// Shared flags for the bench_e* binaries, parsed by bench_main.cc before
// google-benchmark sees argv.
//
//   --smoke                     fast CI mode: minimal measurement time,
//                               one repetition
//   --metrics_out=<path>        metrics snapshot destination (default:
//                               <binary>.metrics.json next to argv[0])
//   --trace_out=<path>          enable the span EventRecorder and write a
//                               Chrome trace_event JSON (load it in
//                               chrome://tracing or Perfetto), plus its
//                               flame trees as text next to it (".json"
//                               -> ".txt")
//   --threads=N                 worker-thread override for the parallel
//                               query paths; N >= 1. Benchmark rows whose
//                               `threads` argument is > 1 use this value
//                               instead when set; rows with threads=1 stay
//                               single-threaded so the baseline column
//                               survives. Recorded in the metrics JSON
//                               snapshot ("config": {"threads": N}).
//   --slowlog=N                 enable the slow-query log, keeping the N
//                               worst requests; N >= 1. Their plan tables,
//                               worst first, go next to the snapshot
//                               (".json" -> ".slow_queries.txt")
//   --slowlog_threshold_us=T    only log requests at or above T
//                               microseconds (default 0 = everything)
//   --fault_spec=SPEC           program the process-wide FaultInjector
//                               before the benchmarks run (see
//                               common/fault.h for the grammar, e.g.
//                               "endpoint:0.3" = 30% endpoint failures);
//                               recorded in the metrics JSON config
//   --fault_seed=N              seed for the injector's deterministic
//                               decisions (default 1); the same
//                               (spec, seed) pair reproduces the exact
//                               fault sequence, so two runs diff clean.
//                               Negative or overflowing values are
//                               rejected with a usage message, and the
//                               --fault_spec grammar is validated at
//                               parse time (typos fail before any
//                               benchmark runs)
//   --deadline_us=N             per-query deadline in microseconds for
//                               benchmark rows that honor it (e.g. the
//                               E16 overload rows); 0/absent = none.
//                               Recorded in the metrics JSON config
//   --seed=N                    master seed for benchmark rows with a
//                               seeded stochastic workload (e.g. the E17
//                               serving load generator); the same seed
//                               reproduces the exact offered request
//                               stream. Default 42. Recorded in the
//                               metrics JSON config so determinism gates
//                               can diff it
//   --admin_port=N              start the embedded admin HTTP server
//                               (obs::AdminServer — /metrics /healthz
//                               /statusz /slowqueryz /tracez) on
//                               127.0.0.1:N for the duration of the run;
//                               N=0 picks an ephemeral port (printed).
//                               Implies windowed-metrics sampling so
//                               /metrics carries *_rate10s gauges
//   --metrics_interval_ms=N     sample the registry every N ms and
//                               append one windowed JSON line per sample
//                               to <metrics_out>l (".json" -> ".jsonl"),
//                               so long runs leave a rate/percentile
//                               timeline, not just a final snapshot
//   --page_cache_mb=N           buffer-pool capacity for benchmark rows
//                               that exercise the paged storage layer
//                               (E18); MiB, N >= 1 (0/absent = the row's
//                               default, 4 MiB). Recorded in the metrics
//                               JSON config ("page_cache_mb")
//   --simd=scalar|avx2          pin the geo::simd kernel variant for the
//                               run (default: runtime CPU dispatch; see
//                               README "Performance"). --simd=avx2 fails
//                               if the binary/CPU lacks the AVX2 kernels.
//                               The variant actually active is recorded
//                               in the metrics JSON config ("simd"), so
//                               cross-variant gates can assert both what
//                               ran and that results match
//
// Unknown --flags (other than --benchmark_*) are rejected with a usage
// message so typos fail loudly instead of silently running a default
// configuration.

#ifndef EXEARTH_BENCH_BENCH_FLAGS_H_
#define EXEARTH_BENCH_BENCH_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace exearth::bench {

/// Parsed values of the shared bench flags.
struct BenchFlags {
  bool smoke = false;
  std::string metrics_out;
  std::string trace_out;
  int threads = 0;  // 0 = flag not given
  int slowlog = 0;  // 0 = slow-query log disabled
  double slowlog_threshold_us = 0.0;
  std::string fault_spec;   // empty = no faults
  uint64_t fault_seed = 1;  // injector seed when fault_spec is given
  uint64_t deadline_us = 0;  // 0 = no per-query deadline
  uint64_t seed = 42;        // master seed for seeded workload rows
  std::string simd;          // "" = runtime dispatch, else scalar|avx2
  int admin_port = -1;       // -1 = no admin server; 0 = ephemeral port
  int64_t metrics_interval_ms = 0;  // 0 = no periodic windowed snapshots
  uint64_t page_cache_mb = 0;  // 0 = row default (4 MiB)
};

/// Parses and strips the exearth flags from argv. argv[0] and every
/// google-benchmark argument (--benchmark_*) land in `passthrough`.
/// Returns false on a malformed value (e.g. --threads=0) or an unknown
/// --flag, with a one-line description in `error`; the caller should
/// print it with BenchUsage() and exit non-zero. Side effect on success:
/// the global threads override is set for EffectiveThreads().
bool ParseBenchFlags(int argc, char** argv, BenchFlags* flags,
                     std::vector<std::string>* passthrough,
                     std::string* error);

/// Usage text listing the shared bench flags.
std::string BenchUsage(const char* argv0);

/// Value of --threads, or 0 when the flag was not given.
int ThreadsFlag();
void SetThreadsFlag(int n);

/// Value of --deadline_us, or 0 when the flag was not given. Benchmark
/// rows that honor deadlines read this to build their RequestContext.
uint64_t DeadlineUsFlag();
void SetDeadlineUsFlag(uint64_t us);

/// Value of --seed (default 42). Benchmark rows with seeded stochastic
/// workloads (E17 serving load) read this as their master seed.
uint64_t SeedFlag();
void SetSeedFlag(uint64_t seed);

/// Value of --page_cache_mb, or 0 when the flag was not given. Storage
/// benchmark rows (E18) size their BufferPool from this.
uint64_t PageCacheMbFlag();
void SetPageCacheMbFlag(uint64_t mb);

/// The thread count a benchmark row should actually run with: the row's
/// own `threads` argument, overridden by --threads for parallel rows.
inline int EffectiveThreads(int row_threads) {
  return row_threads > 1 && ThreadsFlag() > 0 ? ThreadsFlag() : row_threads;
}

}  // namespace exearth::bench

#endif  // EXEARTH_BENCH_BENCH_FLAGS_H_
