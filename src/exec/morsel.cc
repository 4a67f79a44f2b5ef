#include "exec/morsel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace arraydb::exec {

void YieldPoint::Wait() const {
  if (depth_.load(std::memory_order_acquire) == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  open_.wait(lock, [this] {
    return depth_.load(std::memory_order_relaxed) == 0;
  });
}

void YieldPoint::Pause() const {
  std::lock_guard<std::mutex> lock(mu_);
  depth_.fetch_add(1, std::memory_order_release);
}

void YieldPoint::Resume() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int prev = depth_.fetch_sub(1, std::memory_order_release);
    ARRAYDB_CHECK_GT(prev, 0);
    if (prev != 1) return;
  }
  open_.notify_all();
}

MorselScheduler::MorselScheduler(const ExecContext& context)
    : threads_(util::ResolveThreadCount(context.data_plane_threads)),
      yield_(context.yield) {
  ARRAYDB_CHECK_GT(context.morsel_grain, 0);
}

std::vector<MorselRange> MorselScheduler::Carve(int64_t n, int64_t grain) {
  ARRAYDB_CHECK_GT(grain, 0);
  std::vector<MorselRange> morsels;
  if (n <= 0) return morsels;
  morsels.reserve(static_cast<size_t>((n + grain - 1) / grain));
  for (int64_t begin = 0; begin < n; begin += grain) {
    morsels.emplace_back(begin, std::min(begin + grain, n));
  }
  return morsels;
}

std::vector<MorselRange> MorselScheduler::CarveByWeight(
    const std::vector<int64_t>& weights, int64_t grain) {
  ARRAYDB_CHECK_GT(grain, 0);
  std::vector<MorselRange> morsels;
  const auto n = static_cast<int64_t>(weights.size());
  int64_t begin = 0;
  int64_t acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    acc += weights[static_cast<size_t>(i)];
    if (acc >= grain) {
      morsels.emplace_back(begin, i + 1);
      begin = i + 1;
      acc = 0;
    }
  }
  if (begin < n) morsels.emplace_back(begin, n);
  return morsels;
}

void MorselScheduler::Run(
    const std::vector<MorselRange>& morsels,
    const std::function<void(size_t, int64_t, int64_t)>& fn) const {
  const size_t count = morsels.size();
  if (count == 0) return;
  TELEM_SPAN("exec.morsel.run");
  // Counted identically on Reduce's inline path, so the totals are
  // thread-count invariant (the per-worker busy histogram below is the
  // one schedule-dependent observation, and is documented as such).
  TELEM_COUNTER_ADD("exec.morsel.runs", 1);
  TELEM_COUNTER_ADD("exec.morsel.morsels_dispatched",
                    static_cast<int64_t>(count));

  // Pickup and completion state, shared with the helper tasks. The caller
  // waits until every *morsel* has finished, not every helper: a helper
  // queued behind pool workers that are themselves blocked in an enclosing
  // Run may never start before the caller's own pump has drained the
  // counter. Such a helper starts late, finds no morsel, and returns
  // without touching `morsels` or `fn` on the caller's (gone) stack — only
  // this heap state, which it co-owns.
  struct Progress {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done;
    size_t finished = 0;  // Morsels completed; guarded by mu.
  };
  const auto progress = std::make_shared<Progress>();

  // Shared ascending pickup: whichever worker is free takes the next morsel
  // index, so pickup order is chunk-major and load balancing is dynamic.
  // `morsels`, `fn` and `yield` are only dereferenced after a successful
  // pickup, while the caller is still waiting for that morsel.
  const YieldPoint* yield = yield_;
  const auto pump = [progress, &morsels, &fn, count, yield] {
    size_t m = progress->next.fetch_add(1, std::memory_order_relaxed);
    if (m >= count) return;
    size_t ran = 0;
    {
      TELEM_SPAN("exec.morsel.worker");
      const int64_t busy_start_ns = telemetry::MetricsNowNs();
      for (; m < count;
           m = progress->next.fetch_add(1, std::memory_order_relaxed)) {
        // The pickup counter is the preemption boundary: a held yield gate
        // stalls the worker here, between morsels, never mid-morsel.
        if (yield != nullptr) yield->Wait();
        fn(m, morsels[m].first, morsels[m].second);
        ++ran;
      }
      if (busy_start_ns > 0) {
        TELEM_HISTOGRAM_RECORD(
            "exec.morsel.worker_busy_us",
            (telemetry::MetricsNowNs() - busy_start_ns) / 1000);
      }
    }
    const std::lock_guard<std::mutex> lock(progress->mu);
    progress->finished += ran;
    if (progress->finished == count) progress->done.notify_one();
  };

  const int helpers =
      static_cast<int>(
          std::min<size_t>(static_cast<size_t>(threads_), count)) -
      1;
  if (helpers > 0) {
    util::ThreadPool::Shared().SubmitBatch(
        std::vector<std::function<void()>>(static_cast<size_t>(helpers),
                                           pump));
  }
  // The calling thread is a full worker: with a 1-thread pool, a busy pool
  // or a nested Run it drains every morsel itself, so completion never
  // waits on pool capacity.
  pump();
  std::unique_lock<std::mutex> lock(progress->mu);
  progress->done.wait(
      lock, [&progress, count] { return progress->finished == count; });
}

}  // namespace arraydb::exec
