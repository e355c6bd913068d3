// Fixed-size thread pool with a parallel-for helper.
//
// Used by the multi-core experiments (meta-blocking E9, KV shards) and by
// data-parallel training.

#ifndef EXEARTH_COMMON_THREAD_POOL_H_
#define EXEARTH_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace exearth::common {

/// A fixed pool of worker threads executing submitted closures FIFO.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues `fn` for execution; the returned future completes when it
  /// ran. The submitter's TraceContext *and* RequestContext are captured
  /// at enqueue and adopted by the worker for the task's duration, so
  /// request-scoped spans recorded inside `fn` attach to the originating
  /// request and `fn` observes that request's deadline/cancellation.
  std::future<void> Submit(std::function<void()> fn);

  /// Runs fn(i) for i in [0, n), partitioned across the pool, and blocks
  /// until all iterations finished.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace exearth::common

#endif  // EXEARTH_COMMON_THREAD_POOL_H_
