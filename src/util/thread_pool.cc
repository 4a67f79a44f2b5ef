#include "util/thread_pool.h"

#include <algorithm>

#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace arraydb::util {

ThreadPool::ThreadPool(int num_threads) {
  const int count = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::SubmitBatch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ARRAYDB_CHECK(!stopping_);
    const int64_t now_ns = telemetry::MetricsNowNs();
    for (auto& task : tasks) {
      ARRAYDB_CHECK(task != nullptr);
      queue_.push_back(Task{std::move(task), now_ns});
    }
    TELEM_GAUGE_SET("util.thread_pool.queue_depth",
                    static_cast<int64_t>(queue_.size()));
  }
  if (tasks.size() == 1) {
    work_available_.notify_one();
  } else {
    work_available_.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Observe-only timing: start_ns is 0 (and nothing is recorded) when
    // telemetry is off, so the task always runs identically.
    const int64_t start_ns = telemetry::MetricsNowNs();
    if (start_ns > 0 && task.enqueue_ns > 0) {
      TELEM_HISTOGRAM_RECORD("util.thread_pool.queue_wait_us",
                             (start_ns - task.enqueue_ns) / 1000);
    }
    task.fn();
    TELEM_COUNTER_ADD("util.thread_pool.tasks_executed", 1);
    if (start_ns > 0) {
      TELEM_HISTOGRAM_RECORD("util.thread_pool.task_us",
                             (telemetry::MetricsNowNs() - start_ns) / 1000);
    }
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(ResolveThreadCount(0));
  return pool;
}

int ResolveThreadCount(int configured) {
  if (configured > 0) return configured;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace arraydb::util
