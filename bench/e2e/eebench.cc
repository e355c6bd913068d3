// eebench: one end-to-end benchmark of the Copernicus pipeline (raster ->
// ml -> dfs on repl/kv/storage -> etl -> strabon/geo -> serve), one
// workload per process. See README.md in this directory.
//
//   eebench --workload=serve_hot [--seed=42] [--seconds=10]
//           [--tmp_root=DIR] [--trace_out=PATH] [--smoke]
//
// stdout: a header line recording the run's configuration, then one JSON
// result line. The run checks its own outputs after each timed phase; on
// any mismatch it prints the failures to stderr, reports no metrics and
// exits 1.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/logging.h"
#include "common/metrics.h"  // JsonEscape
#include "common/string_util.h"
#include "geo/simd.h"
#include "harness.h"
#include "workloads.h"

#ifndef EEBENCH_BUILD_TYPE
#define EEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using exearth::common::JsonEscape;
using exearth::common::StrFormat;

constexpr char kUsage[] =
    "usage: eebench --workload=ingest|serve_hot|serve_cold|mixed "
    "[--seed=N] [--seconds=S] [--tmp_root=DIR] [--trace_out=PATH] "
    "[--smoke]\n";

struct Flags {
  eebench::RunConfig run;
  std::string trace_out;
};

bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error) {
  flags->run.tmp_root = "eebench_tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    int64_t n = 0;
    double d = 0.0;
    if (key == "--workload") {
      flags->run.workload = value;
    } else if (key == "--seed" && exearth::common::ParseInt64(value, &n) &&
               n >= 0) {
      flags->run.seed = static_cast<uint64_t>(n);
    } else if (key == "--seconds" &&
               exearth::common::ParseDouble(value, &d) && d > 0 && d <= 600) {
      flags->run.seconds = d;
    } else if (key == "--tmp_root" && !value.empty()) {
      flags->run.tmp_root = value;
    } else if (key == "--trace_out" && !value.empty()) {
      flags->trace_out = value;
      flags->run.traced = true;
    } else if (arg == "--smoke") {
      flags->run.smoke = true;
    } else {
      *error = "bad flag: " + arg;
      return false;
    }
  }
  const auto& names = eebench::WorkloadNames();
  if (std::find(names.begin(), names.end(), flags->run.workload) ==
      names.end()) {
    *error = "unknown --workload '" + flags->run.workload + "'";
    return false;
  }
  return true;
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

std::string HeaderJson(const Flags& f) {
  return StrFormat(
      "{\"eebench\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"smoke\": %s, \"traced\": %s, \"build_type\": \"%s\", "
      "\"ndebug\": %s, \"simd\": \"%s\", \"nproc\": %u, "
      "\"flush_policy\": \"WAL fsync on every commit, on the leader and "
      "each follower\", \"tmp_root\": \"%s\", \"config\": %s}}",
      JsonEscape(f.run.workload).c_str(),
      static_cast<unsigned long long>(f.run.seed), f.run.seconds,
      f.run.smoke ? "true" : "false", f.run.traced ? "true" : "false",
      JsonEscape(EEBENCH_BUILD_TYPE).c_str(), kNdebug ? "true" : "false",
      exearth::geo::simd::ActiveVariantName(),
      std::thread::hardware_concurrency(),
      JsonEscape(f.run.tmp_root).c_str(),
      eebench::WorkloadConfigJson(f.run).c_str());
}

std::string MetricsJson(const std::vector<eebench::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", JsonEscape(metrics[i].name).c_str(),
                     metrics[i].value, JsonEscape(metrics[i].unit).c_str());
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  exearth::common::InitLoggingFromEnv();
  Flags flags;
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "%s\n%s", error.c_str(), kUsage);
    return 2;
  }
  if (!kNdebug && !flags.run.smoke) {
    std::fprintf(stderr,
                 "eebench: this build lacks NDEBUG; timings come only from "
                 "Release builds (use --smoke to check correctness)\n");
    return 2;
  }
  std::printf("%s\n", HeaderJson(flags).c_str());
  std::fflush(stdout);

  eebench::SpanLog::Get().set_enabled(flags.run.traced);
  const eebench::Report report = eebench::RunWorkload(flags.run);
  if (!flags.trace_out.empty()) {
    std::ofstream out(flags.trace_out);
    out << eebench::SpanLog::Get().ToJson();
    if (!out) {
      std::fprintf(stderr, "eebench: cannot write %s\n",
                   flags.trace_out.c_str());
      return 1;
    }
  }
  if (!report.errors.empty()) {
    for (const std::string& e : report.errors) {
      std::fprintf(stderr, "eebench: verification failed: %s\n", e.c_str());
    }
    return 1;
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"verified\": true, "
      "\"result_hash\": \"%016llx\", \"attempted\": %llu, \"failed\": %llu, "
      "\"end_to_end\": %s, \"per_layer\": %s}\n",
      JsonEscape(flags.run.workload).c_str(),
      static_cast<unsigned long long>(flags.run.seed),
      static_cast<unsigned long long>(report.result_hash),
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      MetricsJson(report.end_to_end).c_str(),
      MetricsJson(report.per_layer).c_str());
  return 0;
}
