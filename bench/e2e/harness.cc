#include "harness.h"

#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace eebench {

namespace {

thread_local int32_t t_current_span = -1;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

int64_t SleepUntilNs(int64_t deadline_ns) {
  // Sleep to 2 ms short of the deadline and spin the rest. Under a
  // hypervisor an idle vCPU gives its core away and can take milliseconds
  // to be scheduled again; an open-loop thread, whose waves are less than
  // a millisecond apart, so never idles its vCPU and starts every wave on
  // its tick.
  constexpr int64_t kSpinNs = 2000 * 1000;
  int64_t now = NowNs();
  if (deadline_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
  }
  while ((now = NowNs()) < deadline_ns) {
  }
  return now - deadline_ns;
}

// ------------------------------------------------------------------ spans

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

int32_t SpanLog::Open(const char* name, int64_t tag) {
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, 0, t_current_span, tag});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t id) {
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end;
}

void SpanLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanLog::ToJson() const {
  const std::vector<Span> spans = Snapshot();
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::string out = "{\"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += exearth::common::StrFormat(
        "%s\n[\"%s\", %.3f, %.3f, %d, %lld]", i == 0 ? "" : ",",
        exearth::common::JsonEscape(s.name).c_str(),
        static_cast<double>(s.start_ns - origin) / 1e3,
        static_cast<double>(s.end_ns - origin) / 1e3, s.parent,
        static_cast<long long>(s.tag));
  }
  out += "\n]}\n";
  return out;
}

ScopedSpan::ScopedSpan(const char* name, int64_t tag) {
  SpanLog& log = SpanLog::Get();
  if (!log.enabled()) return;
  id_ = log.Open(name, tag);
  saved_parent_ = t_current_span;
  t_current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (id_ < 0) return;
  SpanLog::Get().Close(id_);
  t_current_span = saved_parent_;
}

std::vector<double> SpanDurationsMs(const std::vector<Span>& spans,
                                    std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.end_ns != 0 && name == s.name) {
      out.push_back(MsBetween(s.start_ns, s.end_ns));
    }
  }
  return out;
}

// -------------------------------------------------------------- quantiles

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double WeightedQuantile(std::vector<std::pair<double, uint64_t>> values,
                        double q) {
  uint64_t total = 0;
  for (const auto& [v, w] : values) total += w;
  if (total == 0) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value whose cumulative weight reaches
  // ceil(q * total).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(total) + 0.999999));
  uint64_t seen = 0;
  for (const auto& [v, w] : values) {
    seen += w;
    if (seen >= rank) return v;
  }
  return values.back().first;
}

// -------------------------------------------------------- process probes

std::map<std::string, uint64_t> CounterSnapshot() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] :
       exearth::common::MetricsRegistry::Default().TakeSnapshot().counters) {
    out[name] = value;
  }
  return out;
}

uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

TempDir::TempDir(const std::string& root) {
  std::filesystem::create_directories(root);
  std::string tmpl = root + "/eebench_XXXXXX";
  EEA_CHECK(::mkdtemp(tmpl.data()) != nullptr)
      << "mkdtemp failed under " << root;
  path_ = tmpl;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

// ---------------------------------------------------------------- hashing

void Hasher::MixString(std::string_view s) {
  Mix(exearth::common::Fnv1a(s));
  Mix(s.size());
}

uint64_t Scramble(uint64_t v) {
  v ^= v >> 30;
  v *= 0xbf58476d1ce4e5b9ULL;
  v ^= v >> 27;
  v *= 0x94d049bb133111ebULL;
  return v ^ (v >> 31);
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace eebench
