#include "bench_flags.h"

#include <cerrno>
#include <cstdlib>

#include "common/fault.h"
#include "geo/simd.h"

namespace exearth::bench {

namespace {

int g_threads = 0;
uint64_t g_deadline_us = 0;
uint64_t g_seed = 42;
uint64_t g_page_cache_mb = 0;

// Strict integer parse: the whole value must be digits (an optional
// leading '-' is accepted so "-3" reports "out of range", not "not a
// number"). Overflowing values (ERANGE) are rejected rather than
// silently clamped to LONG_MAX/LONG_MIN.
bool ParseInt(const std::string& value, long* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = parsed;
  return true;
}

bool ParseUint64(const std::string& value, unsigned long long* out) {
  if (value.empty() || value[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = parsed;
  return true;
}

bool ParseDouble(const std::string& value, double* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = parsed;
  return true;
}

// Splits "--name=value"; returns true if arg is exactly "--name=...".
bool FlagValue(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int ThreadsFlag() { return g_threads; }
void SetThreadsFlag(int n) { g_threads = n; }

uint64_t DeadlineUsFlag() { return g_deadline_us; }
void SetDeadlineUsFlag(uint64_t us) { g_deadline_us = us; }

uint64_t SeedFlag() { return g_seed; }
void SetSeedFlag(uint64_t seed) { g_seed = seed; }

uint64_t PageCacheMbFlag() { return g_page_cache_mb; }
void SetPageCacheMbFlag(uint64_t mb) { g_page_cache_mb = mb; }

std::string BenchUsage(const char* argv0) {
  return std::string("usage: ") + argv0 +
         " [--smoke] [--metrics_out=PATH] [--trace_out=PATH]\n"
         "       [--threads=N] [--slowlog=N] [--slowlog_threshold_us=T]\n"
         "       [--benchmark_* flags passed to google-benchmark]\n"
         "\n"
         "  --smoke                   minimal measurement time, one "
         "repetition\n"
         "  --metrics_out=PATH        metrics snapshot destination\n"
         "  --trace_out=PATH          record spans, write Chrome trace "
         "JSON and flame-tree text\n"
         "  --threads=N               override worker threads for "
         "parallel rows (N >= 1)\n"
         "  --slowlog=N               keep the N worst requests (N >= 1), "
         "write their plans as text\n"
         "  --slowlog_threshold_us=T  only log requests >= T us (T >= "
         "0)\n"
         "  --fault_spec=SPEC         program the fault injector "
         "(common/fault.h grammar)\n"
         "  --fault_seed=N            injector seed for deterministic "
         "fault sequences (N >= 0)\n"
         "  --deadline_us=N           per-query deadline for rows that "
         "honor it (N >= 1; 0 = off)\n"
         "  --seed=N                  master seed for seeded workload "
         "rows (default 42)\n"
         "  --simd=scalar|avx2        pin the geo batch-kernel variant "
         "(default: CPU dispatch)\n"
         "  --admin_port=N            serve admin endpoints on "
         "127.0.0.1:N during the run (0 = ephemeral)\n"
         "  --metrics_interval_ms=N   append windowed metric snapshots "
         "to <metrics_out>l every N ms\n"
         "  --page_cache_mb=N         buffer-pool size for the storage "
         "rows (MiB, N >= 1; default 4)\n";
}

bool ParseBenchFlags(int argc, char** argv, BenchFlags* flags,
                     std::vector<std::string>* passthrough,
                     std::string* error) {
  passthrough->emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--smoke") {
      flags->smoke = true;
    } else if (FlagValue(arg, "metrics_out", &value)) {
      if (value.empty()) {
        *error = "--metrics_out needs a path";
        return false;
      }
      flags->metrics_out = value;
    } else if (FlagValue(arg, "trace_out", &value)) {
      if (value.empty()) {
        *error = "--trace_out needs a path";
        return false;
      }
      flags->trace_out = value;
    } else if (FlagValue(arg, "threads", &value)) {
      long n = 0;
      if (!ParseInt(value, &n)) {
        *error = "--threads=" + value + ": not an integer";
        return false;
      }
      if (n < 1) {
        *error = "--threads=" + value + ": want N >= 1";
        return false;
      }
      flags->threads = static_cast<int>(n);
    } else if (FlagValue(arg, "slowlog", &value)) {
      long n = 0;
      if (!ParseInt(value, &n)) {
        *error = "--slowlog=" + value + ": not an integer";
        return false;
      }
      if (n < 1) {
        *error = "--slowlog=" + value + ": want N >= 1";
        return false;
      }
      flags->slowlog = static_cast<int>(n);
    } else if (FlagValue(arg, "slowlog_threshold_us", &value)) {
      double t = 0.0;
      if (!ParseDouble(value, &t) || t < 0.0) {
        *error = "--slowlog_threshold_us=" + value + ": want T >= 0";
        return false;
      }
      flags->slowlog_threshold_us = t;
    } else if (FlagValue(arg, "fault_spec", &value)) {
      if (value.empty()) {
        *error = "--fault_spec needs a spec (see common/fault.h)";
        return false;
      }
      // Validate the grammar now, against a scratch injector, so a typo
      // fails at the command line instead of after the benchmark suite
      // has already started.
      common::FaultInjector scratch;
      common::Status parsed = scratch.ProgramSpec(value);
      if (!parsed.ok()) {
        *error = "--fault_spec=" + value + ": " + parsed.message();
        return false;
      }
      flags->fault_spec = value;
    } else if (FlagValue(arg, "fault_seed", &value)) {
      unsigned long long n = 0;
      if (!ParseUint64(value, &n)) {
        *error = "--fault_seed=" + value +
                 ": not an unsigned integer (negative seeds are invalid)";
        return false;
      }
      flags->fault_seed = static_cast<uint64_t>(n);
    } else if (FlagValue(arg, "deadline_us", &value)) {
      unsigned long long n = 0;
      if (!ParseUint64(value, &n) || n == 0) {
        *error = "--deadline_us=" + value + ": want an integer >= 1";
        return false;
      }
      flags->deadline_us = static_cast<uint64_t>(n);
    } else if (FlagValue(arg, "seed", &value)) {
      unsigned long long n = 0;
      if (!ParseUint64(value, &n)) {
        *error = "--seed=" + value +
                 ": not an unsigned integer (negative seeds are invalid)";
        return false;
      }
      flags->seed = static_cast<uint64_t>(n);
    } else if (FlagValue(arg, "simd", &value)) {
      geo::simd::KernelVariant variant;
      if (value == "scalar") {
        variant = geo::simd::KernelVariant::kScalar;
      } else if (value == "avx2") {
        variant = geo::simd::KernelVariant::kAvx2;
      } else {
        *error = "--simd=" + value + ": want scalar or avx2";
        return false;
      }
      if (!geo::simd::VariantAvailable(variant)) {
        *error = "--simd=" + value +
                 ": variant not available in this build/CPU (build with "
                 "-DEXEARTH_SIMD=native or avx2 on x86-64)";
        return false;
      }
      geo::simd::SetVariant(variant);
      flags->simd = value;
    } else if (FlagValue(arg, "admin_port", &value)) {
      long n = 0;
      if (!ParseInt(value, &n) || n < 0 || n > 65535) {
        *error = "--admin_port=" + value + ": want a port in [0, 65535]";
        return false;
      }
      flags->admin_port = static_cast<int>(n);
    } else if (FlagValue(arg, "metrics_interval_ms", &value)) {
      long n = 0;
      if (!ParseInt(value, &n) || n < 1) {
        *error = "--metrics_interval_ms=" + value + ": want N >= 1";
        return false;
      }
      flags->metrics_interval_ms = static_cast<int64_t>(n);
    } else if (FlagValue(arg, "page_cache_mb", &value)) {
      unsigned long long n = 0;
      if (!ParseUint64(value, &n) || n == 0) {
        *error = "--page_cache_mb=" + value + ": want an integer >= 1";
        return false;
      }
      flags->page_cache_mb = static_cast<uint64_t>(n);
    } else if (arg.rfind("--benchmark_", 0) == 0 || arg.rfind("--", 0) != 0) {
      // google-benchmark's own flags (and any non-flag argument) pass
      // through untouched.
      passthrough->push_back(arg);
    } else {
      *error = "unknown flag: " + arg;
      return false;
    }
  }
  SetThreadsFlag(flags->threads);
  SetDeadlineUsFlag(flags->deadline_us);
  SetSeedFlag(flags->seed);
  SetPageCacheMbFlag(flags->page_cache_mb);
  return true;
}

}  // namespace exearth::bench
