// Shared main() for every bench_e* binary (replaces BENCHMARK_MAIN).
//
// Extra flags, stripped (and validated) before google-benchmark sees
// argv — see bench_flags.h for the list. After the benchmarks run, the
// process-wide MetricsRegistry and slow-query log are dumped as one JSON
// document so every bench run leaves a machine-diffable record of what
// the instrumented subsystems did (see README "Observability" for the
// schema). Human-readable copies come from the renderers the admin
// server uses:
//   --trace_out=X.json  Chrome trace_event JSON of every recorded request
//                       span, plus X.txt, its flame trees (/tracez)
//   --slowlog=N         the snapshot's "slow_queries", plus
//                       <metrics_out minus .json>.slow_queries.txt, each
//                       logged profile's plan table, worst first
//                       (/slowqueryz)

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/query_profile.h"
#include "common/trace.h"
#include "common/windowed.h"
#include "geo/simd.h"
#include "obs/admin.h"

namespace {

bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "failed to open output %s\n", path.c_str());
    return false;
  }
  out << body;
  return static_cast<bool>(out);
}

// `path` without a trailing ".json", plus `suffix`.
std::string Beside(const std::string& path, const std::string& suffix) {
  return (path.ends_with(".json") ? path.substr(0, path.size() - 5) : path) +
         suffix;
}

}  // namespace

int main(int argc, char** argv) {
  exearth::common::InitLoggingFromEnv();

  exearth::bench::BenchFlags flags;
  std::vector<std::string> args;
  std::string error;
  if (!exearth::bench::ParseBenchFlags(argc, argv, &flags, &args, &error)) {
    std::fprintf(stderr, "%s\n%s", error.c_str(),
                 exearth::bench::BenchUsage(argv[0]).c_str());
    return 1;
  }
  if (flags.smoke) {
    // benchmark 1.7 takes min_time as seconds; with 1ms each benchmark
    // case settles after a handful of iterations.
    args.push_back("--benchmark_min_time=0.001");
    args.push_back("--benchmark_repetitions=1");
  }
  if (!flags.trace_out.empty()) {
    exearth::common::EventRecorder::Default().set_enabled(true);
  }
  if (flags.slowlog > 0) {
    exearth::common::SlowQueryLog::Default().Configure(
        static_cast<size_t>(flags.slowlog), flags.slowlog_threshold_us);
  }
  if (!flags.fault_spec.empty()) {
    auto& injector = exearth::common::FaultInjector::Default();
    injector.set_seed(flags.fault_seed);
    const exearth::common::Status programmed =
        injector.ProgramSpec(flags.fault_spec);
    if (!programmed.ok()) {
      std::fprintf(stderr, "--fault_spec: %s\n%s",
                   programmed.ToString().c_str(),
                   exearth::bench::BenchUsage(argv[0]).c_str());
      return 1;
    }
  }

  if (flags.metrics_out.empty()) {
    flags.metrics_out = std::string(argv[0]) + ".metrics.json";
  }
  // Windowed sampling runs only when asked for: derived gauges are
  // wall-clock-dependent and must not leak into determinism-gated runs.
  std::unique_ptr<exearth::common::WindowedSampler> sampler;
  if (flags.metrics_interval_ms > 0 || flags.admin_port >= 0) {
    exearth::common::WindowedOptions wopts;
    if (flags.metrics_interval_ms > 0) {
      wopts.sample_period_us = flags.metrics_interval_ms * 1000;
      wopts.stream_path = flags.metrics_out + "l";  // .json -> .jsonl
    }
    sampler = std::make_unique<exearth::common::WindowedSampler>(
        &exearth::common::MetricsRegistry::Default(), wopts);
    sampler->Start();
  }
  std::unique_ptr<exearth::obs::AdminServer> admin;
  if (flags.admin_port >= 0) {
    exearth::obs::AdminServerOptions aopts;
    aopts.port = static_cast<uint16_t>(flags.admin_port);
    admin = std::make_unique<exearth::obs::AdminServer>(aopts);
    const exearth::common::Status started = admin->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "--admin_port: %s\n", started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "admin server: http://127.0.0.1:%u/\n",
                 static_cast<unsigned>(admin->port()));
  }

  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (admin != nullptr) admin->Stop();
  if (sampler != nullptr) {
    sampler->Stop();
    if (flags.metrics_interval_ms > 0) {
      std::fprintf(stderr, "windowed snapshots: %sl (%zu samples)\n",
                   flags.metrics_out.c_str(), sampler->num_samples());
    }
  }
  const std::string json =
      "{\n\"config\": {\"threads\": " + std::to_string(flags.threads) +
      ", \"fault_spec\": \"" + exearth::common::JsonEscape(flags.fault_spec) +
      "\", \"fault_seed\": " + std::to_string(flags.fault_seed) +
      ", \"deadline_us\": " + std::to_string(flags.deadline_us) +
      ", \"seed\": " + std::to_string(flags.seed) +
      ", \"page_cache_mb\": " + std::to_string(flags.page_cache_mb) +
      ", \"simd\": \"" +
      exearth::geo::simd::ActiveVariantName() +
      "\"},\n\"metrics\": " +
      exearth::common::MetricsRegistry::Default().ToJson() +
      ",\n\"slow_queries\": " +
      exearth::common::SlowQueryLog::Default().ToJson() + "\n}\n";
  if (!WriteFile(flags.metrics_out, json)) return 1;
  std::fprintf(stderr, "metrics snapshot: %s\n", flags.metrics_out.c_str());
  if (flags.slowlog > 0) {
    std::string text;
    for (const auto& profile :
         exearth::common::SlowQueryLog::Default().Snapshot()) {
      text += profile.ToText() + "\n";
    }
    const std::string path = Beside(flags.metrics_out, ".slow_queries.txt");
    if (!WriteFile(path, text)) return 1;
    std::fprintf(stderr, "slow queries: %s\n", path.c_str());
  }

  if (!flags.trace_out.empty()) {
    const auto& recorder = exearth::common::EventRecorder::Default();
    const std::string flame_path = Beside(flags.trace_out, ".txt");
    if (!WriteFile(flags.trace_out, recorder.ToChromeTraceJson()) ||
        !WriteFile(flame_path, recorder.ToFlameTreeText())) {
      return 1;
    }
    std::fprintf(stderr,
                 "chrome trace: %s (load in chrome://tracing), flame trees: "
                 "%s\n",
                 flags.trace_out.c_str(), flame_path.c_str());
  }
  return 0;
}
