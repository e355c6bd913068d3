// Admission control and load shedding for per-subsystem work queues.
//
// An AdmissionController fronts one subsystem's queue (federation queries,
// scheduler ready set, ingestion backlog, the serving broker). Work
// asks to enter with a priority class; the controller admits it while the
// queue has room for that class and sheds it with ResourceExhausted
// otherwise. Shedding at the door is the whole point: a request that
// would only time out in line is cheap to reject *now* and expensive to
// reject after it has held a worker for its full deadline.
//
// Priority classes carve the queue into nested water lines — interactive
// work may fill the whole queue, batch work only the first
// batch_fraction of it, best-effort work only the first
// best_effort_fraction. Under overload the low classes shed first while
// interactive traffic still gets through (fractions floor to whole
// slots, so a tiny queue can leave a low class with zero slots — that is
// strictness, not a bug).
//
//   AdmissionController ctrl("fed", {.max_depth = 64});
//   Status s = ctrl.TryAdmit(Priority::kInteractive);
//   if (!s.ok()) return s;          // shed: ResourceExhausted
//   AdmissionTicket ticket(&ctrl);  // releases the slot on scope exit
//   ... do the work ...
//
// Observable per controller: admission.<name>.queue_depth (gauge),
// .queue_depth_peak (gauge, high-water), .admitted / .shed (counters).
// All methods are thread-safe; the hot path is a couple of relaxed
// atomics.

#ifndef EXEARTH_COMMON_ADMISSION_H_
#define EXEARTH_COMMON_ADMISSION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace exearth::common {

class Counter;
class Gauge;

/// Priority class of a piece of work; lower classes shed earlier.
enum class Priority {
  kInteractive = 0,  // user-facing queries; shed last
  kBatch = 1,        // bulk analytics, reprocessing
  kBestEffort = 2,   // prefetch, speculative work; shed first
};

const char* PriorityToString(Priority p);

struct AdmissionOptions {
  /// Total queue slots (interactive water line). Must be >= 1.
  size_t max_depth = 256;
  /// Fractions of max_depth available to lower classes (floored).
  double batch_fraction = 0.75;
  double best_effort_fraction = 0.5;
};

/// Bounded-admission gate for one subsystem. `name` keys the metrics.
class AdmissionController {
 public:
  AdmissionController(std::string name, AdmissionOptions options);

  /// Admits or sheds: OK reserves one queue slot (release it with
  /// Finish(), or let an AdmissionTicket do it); ResourceExhausted means
  /// the queue is full for this priority class and the work was shed.
  Status TryAdmit(Priority priority);

  /// Releases one admitted slot.
  void Finish();

  size_t depth() const { return depth_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  const AdmissionOptions& options() const { return options_; }

  /// Queue slots available to `priority` (its water line).
  size_t DepthLimit(Priority priority) const;

  uint64_t admitted() const;
  uint64_t shed() const;

 private:
  const std::string name_;
  const AdmissionOptions options_;
  std::atomic<size_t> depth_{0};
  Counter* admitted_ctr_;
  Counter* shed_ctr_;
  Gauge* depth_gauge_;
  Gauge* depth_peak_gauge_;
};

/// RAII slot release for a successful TryAdmit.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  explicit AdmissionTicket(AdmissionController* ctrl) : ctrl_(ctrl) {}
  AdmissionTicket(AdmissionTicket&& other) noexcept : ctrl_(other.ctrl_) {
    other.ctrl_ = nullptr;
  }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept {
    if (this != &other) {
      Release();
      ctrl_ = other.ctrl_;
      other.ctrl_ = nullptr;
    }
    return *this;
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;
  ~AdmissionTicket() { Release(); }

  void Release() {
    if (ctrl_) {
      ctrl_->Finish();
      ctrl_ = nullptr;
    }
  }

 private:
  AdmissionController* ctrl_ = nullptr;
};

}  // namespace exearth::common

#endif  // EXEARTH_COMMON_ADMISSION_H_
