// A small fixed-size thread pool: the workers behind exec::MorselScheduler,
// the system's one parallel loop (placement prewarm, reorg copy loop,
// data-plane operators, joins and serving closures all run on it). The
// scheduler submits its helper tasks in one SubmitBatch call; this pool
// knows nothing of morsels, determinism or completion — those contracts
// live in exec/morsel.h.

#ifndef ARRAYDB_UTIL_THREAD_POOL_H_
#define ARRAYDB_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace arraydb::util {

class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues all of `tasks` under one lock acquisition and wakes enough
  /// workers for them (one lock/notify round-trip per fan-out, not per
  /// task). Queue order is the vector order.
  void SubmitBatch(std::vector<std::function<void()>> tasks);

  /// Process-wide pool sized to the hardware concurrency, started lazily.
  static ThreadPool& Shared();

 private:
  // Queued work item. The enqueue timestamp feeds the
  // util.thread_pool.queue_wait_us telemetry histogram; it is 0 (and the
  // wait is not recorded) when telemetry is inactive.
  struct Task {
    std::function<void()> fn;
    int64_t enqueue_ns = 0;
  };

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// The one place a configured thread-count knob is interpreted: a positive
/// value is taken verbatim; zero (or negative) means "auto" and resolves to
/// std::thread::hardware_concurrency(), clamped to at least 1 for platforms
/// that report 0. Every `*_threads` setting resolves through this helper:
/// exec::MorselScheduler resolves ExecContext::data_plane_threads, which the
/// placement prewarm fills from the ingest threads
/// (ElasticEngine::set_ingest_threads, IngestConfig::threads), the reorg
/// copy loop from reorg::ReorgOptions::copy_threads and the serving layer
/// from serve::ServerOptions::compute_threads.
int ResolveThreadCount(int configured);

}  // namespace arraydb::util

#endif  // ARRAYDB_UTIL_THREAD_POOL_H_
