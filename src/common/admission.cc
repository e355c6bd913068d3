#include "common/admission.h"

#include <algorithm>

#include "common/metrics.h"

namespace exearth::common {

const char* PriorityToString(Priority p) {
  switch (p) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
    case Priority::kBestEffort:
      return "best_effort";
  }
  return "unknown";
}

AdmissionController::AdmissionController(std::string name,
                                         AdmissionOptions options)
    : name_(std::move(name)), options_([&options] {
        options.max_depth = std::max<size_t>(1, options.max_depth);
        return options;
      }()) {
  auto& reg = MetricsRegistry::Default();
  const std::string prefix = "admission." + name_ + ".";
  admitted_ctr_ = reg.GetCounter(prefix + "admitted");
  shed_ctr_ = reg.GetCounter(prefix + "shed");
  depth_gauge_ = reg.GetGauge(prefix + "queue_depth");
  depth_peak_gauge_ = reg.GetGauge(prefix + "queue_depth_peak");
}

size_t AdmissionController::DepthLimit(Priority priority) const {
  switch (priority) {
    case Priority::kInteractive:
      return options_.max_depth;
    case Priority::kBatch:
      return static_cast<size_t>(static_cast<double>(options_.max_depth) *
                                 options_.batch_fraction);
    case Priority::kBestEffort:
      return static_cast<size_t>(static_cast<double>(options_.max_depth) *
                                 options_.best_effort_fraction);
  }
  return 0;
}

Status AdmissionController::TryAdmit(Priority priority) {
  const size_t limit = DepthLimit(priority);
  // CAS loop: admit only while depth < limit, so concurrent admits can
  // never overshoot the water line.
  size_t depth = depth_.load(std::memory_order_relaxed);
  while (true) {
    if (depth >= limit) {
      shed_ctr_->Increment();
      return Status::ResourceExhausted(
          "admission." + name_ + ": queue full for " +
          PriorityToString(priority) + " (depth " + std::to_string(depth) +
          " >= limit " + std::to_string(limit) + ")");
    }
    if (depth_.compare_exchange_weak(depth, depth + 1,
                                     std::memory_order_relaxed)) {
      break;
    }
  }
  admitted_ctr_->Increment();
  depth_gauge_->Set(static_cast<double>(depth + 1));
  depth_peak_gauge_->Max(static_cast<double>(depth + 1));
  return Status::OK();
}

void AdmissionController::Finish() {
  const size_t before = depth_.fetch_sub(1, std::memory_order_relaxed);
  depth_gauge_->Set(static_cast<double>(before - 1));
}

uint64_t AdmissionController::admitted() const {
  return admitted_ctr_->value();
}

uint64_t AdmissionController::shed() const { return shed_ctr_->value(); }

}  // namespace exearth::common
