#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/deadline.h"
#include "common/trace.h"

namespace exearth::common {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  // Capture the submitter's trace and request contexts so the task
  // attaches to the originating request (chunked refinement, fan-out,
  // ...) and observes its deadline/cancellation even though it runs on a
  // pool thread.
  std::packaged_task<void()> task(
      [ctx = CurrentTraceContext(), rctx = CurrentRequestContext(),
       fn = std::move(fn)] {
        ScopedTraceContext adopt(ctx);
        ScopedRequestContext adopt_request(rctx);
        fn();
      });
  std::future<void> fut = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t workers = std::min(n, threads_.size());
  std::atomic<size_t> next{0};
  std::vector<std::future<void>> futs;
  futs.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    futs.push_back(Submit([&] {
      while (true) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        fn(i);
      }
    }));
  }
  for (auto& f : futs) f.get();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace exearth::common
