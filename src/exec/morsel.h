// Morsel-driven parallel operator execution (§6.2.2's per-node parallel
// scan work, brought to the real data-plane operators).
//
// A MorselScheduler carves a work domain — an array's sorted chunk list, a
// FilterBoxView's span set, a CellSpanView's global cell range — into
// cache-sized morsels and dispatches them on util::ThreadPool. Workers pick
// morsels off a shared atomic counter in ascending index order, so a worker
// that finishes early immediately steals the next morsel (dynamic load
// balancing) while pickup stays chunk-major: consecutive morsels cover
// consecutive runs of the columnar storage, so each worker streams
// contiguous memory.
//
// Determinism contract (the same one the ingest prewarm and the SIMD
// lane-accumulation honor):
//   * The morsel decomposition is a pure function of the work domain and
//     the grain size — never of the thread count or the schedule.
//   * Each morsel computes a partial state into its own slot; no shared
//     mutable state.
//   * Partials combine through a fixed-order reduction: ascending morsel
//     index on the calling thread, after all morsels complete. The combine
//     schedule depends only on the morsel count.
// Consequently every operator built on the scheduler is bit-identical to
// its sequential form (threads = 1 executes the same morsels in the same
// order inline) and invariant across thread counts. See src/exec/README.md.

#ifndef ARRAYDB_EXEC_MORSEL_H_
#define ARRAYDB_EXEC_MORSEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "telemetry/telemetry.h"
#include "util/thread_pool.h"

namespace arraydb::exec {

/// Default target cells per morsel (see MorselOptions::grain_cells).
inline constexpr int64_t kDefaultMorselGrainCells = 16384;

/// Cooperative preemption gate at the morsel pickup counter. While the
/// gate is held (Pause without matching Resume), morsel workers running
/// under an options set that carries the gate block in Wait() before
/// picking their next morsel; Resume releases them. The serving layer
/// holds the gate for batch-tier work whenever interactive queries are
/// pending, so long scans yield between morsels — never mid-morsel, and
/// never in a way that changes results (the gate delays pickup, it does
/// not reorder the decomposition or the combine).
///
/// Pause/Resume nest (a depth counter); Wait() is wait-free while the
/// gate is open (one relaxed atomic load). Safe for any number of
/// concurrent waiters and holders.
class YieldPoint {
 public:
  /// Blocks while the gate is held; returns immediately when open.
  void Wait() const;
  /// Holds the gate (nestable).
  void Pause() const;
  /// Releases one Pause; wakes all waiters when the depth reaches zero.
  void Resume() const;
  /// Whether the gate is currently held (advisory snapshot).
  bool paused() const {
    return depth_.load(std::memory_order_acquire) > 0;
  }

 private:
  mutable std::atomic<int> depth_{0};
  mutable std::mutex mu_;
  mutable std::condition_variable open_;
};

struct MorselOptions {
  /// Worker threads for data-plane operators. Positive = exact count,
  /// 0 = auto (hardware concurrency); interpreted by the single
  /// util::ResolveThreadCount convention. 1 is exactly the sequential path.
  int threads = 1;
  /// Target cells per morsel. ~16k cells keeps a morsel's touched columns
  /// (coords + one attribute + mask, ~33 B/cell at rank 3) inside a core's
  /// L2 slice while still amortizing dispatch overhead. Results never
  /// depend on the thread count, but they may depend on the grain (it fixes
  /// the reduction boundaries), so the grain is a stored option, not a
  /// per-call knob.
  int64_t grain_cells = kDefaultMorselGrainCells;
  /// Optional yield gate consulted at every morsel pickup (including the
  /// sequential inline path between morsels). Timing-only; not owned, and
  /// must outlive the operator call. Normally set through
  /// ExecContext::yield rather than directly.
  const YieldPoint* yield = nullptr;
};

/// Half-open [begin, end) range of work units (cells, chunks, positions).
using MorselRange = std::pair<int64_t, int64_t>;

class MorselScheduler {
 public:
  explicit MorselScheduler(MorselOptions options = MorselOptions());

  /// Resolved worker count (>= 1).
  int threads() const { return threads_; }
  const MorselOptions& options() const { return options_; }

  /// Carves [0, n) into contiguous morsels of ~`grain` units (the last
  /// morsel absorbs the remainder; n <= grain yields one morsel). Pure in
  /// (n, grain): identical at every thread count.
  static std::vector<MorselRange> Carve(int64_t n, int64_t grain);

  /// Carves item indices [0, weights.size()) into contiguous runs whose
  /// weight sums reach ~`grain` (for chunk lists: weights = cells per
  /// chunk, so a morsel is a cache-sized run of whole chunks). Pure in
  /// (weights, grain).
  static std::vector<MorselRange> CarveByWeight(
      const std::vector<int64_t>& weights, int64_t grain);

  /// Runs fn(morsel_index, begin, end) for every morsel; workers pick
  /// morsels in ascending index order; blocks until all complete. fn must
  /// only write state owned by its morsel index.
  void Run(const std::vector<MorselRange>& morsels,
           const std::function<void(size_t, int64_t, int64_t)>& fn) const;

  /// Parallel reduction with the fixed-order combine: every morsel m
  /// produces a State via morsel_fn(m, begin, end); partials combine as
  /// combine(acc, std::move(partial)) in ascending morsel order on the
  /// calling thread. Bit-identical at every thread count, including 1.
  template <typename State, typename MorselFn, typename CombineFn>
  State Reduce(const std::vector<MorselRange>& morsels, State init,
               MorselFn&& morsel_fn, CombineFn&& combine) const {
    State acc = std::move(init);
    if (morsels.size() <= 1 || threads_ <= 1) {
      // Inline path: same morsels, same combine order — the parallel
      // result is defined as exactly this computation. The morsel counters
      // mirror Run()'s exactly, so exec.morsel.* totals are invariant
      // across thread counts (the telemetry face of the determinism
      // contract).
      if (!morsels.empty()) {
        TELEM_COUNTER_ADD("exec.morsel.runs", 1);
        TELEM_COUNTER_ADD("exec.morsel.morsels_dispatched",
                          static_cast<int64_t>(morsels.size()));
      }
      for (size_t m = 0; m < morsels.size(); ++m) {
        if (options_.yield) options_.yield->Wait();
        combine(acc, morsel_fn(m, morsels[m].first, morsels[m].second));
      }
      return acc;
    }
    std::vector<State> partials(morsels.size());
    Run(morsels, [&partials, &morsel_fn](size_t m, int64_t begin,
                                         int64_t end) {
      partials[m] = morsel_fn(m, begin, end);
    });
    for (auto& partial : partials) combine(acc, std::move(partial));
    return acc;
  }

 private:
  MorselOptions options_;
  int threads_;
};

}  // namespace arraydb::exec

#endif  // ARRAYDB_EXEC_MORSEL_H_
