// ExecContext: the one execution-settings struct of the data plane —
// worker threads, morsel grain, join partition bits, and an optional
// cooperative yield gate. MorselScheduler, every operator in
// exec/operators.h and both joins in exec/join.h take it directly.
//
// Sessions thread an ExecContext through those entry points, so concurrent
// sessions with different settings are fully independent. There is no
// process-wide default to mutate: a call without a context runs with a
// default-constructed ExecContext (one thread, the default grain and
// partition bits, no gate).

#ifndef ARRAYDB_EXEC_EXEC_CONTEXT_H_
#define ARRAYDB_EXEC_EXEC_CONTEXT_H_

#include <cstdint>

namespace arraydb::exec {

class YieldPoint;  // exec/morsel.h

/// Default target cells per morsel (ExecContext::morsel_grain). ~16k cells
/// keeps a morsel's touched columns (coords + one attribute + mask,
/// ~33 B/cell at rank 3) inside a core's L2 slice while still amortizing
/// dispatch overhead.
inline constexpr int64_t kDefaultMorselGrainCells = 16384;

/// Default number of high rank bits selecting a join build partition (16
/// partitions): enough that every hardware thread owns private tables at
/// testbed scale while each partition's key list stays cache-friendly.
inline constexpr int kDefaultJoinPartitionBits = 4;

struct ExecContext {
  /// Worker threads for morsel-parallel execution. Positive = exact count,
  /// 0 = auto (util::ResolveThreadCount); 1 is exactly the sequential path.
  /// Results are bit-identical at every setting (morsel determinism
  /// contract).
  int data_plane_threads = 1;
  /// Radix partition bits for the rank-keyed hash joins; 0 = a single
  /// partition. Clamped to the key space's available rank bits. Results are
  /// bit-identical at every setting.
  int join_partition_bits = kDefaultJoinPartitionBits;
  /// Target cells per morsel. Fixes reduction boundaries: value-exact
  /// operators are grain-invariant, floating-point sums may differ in the
  /// last ULPs between grains (deterministically; see src/exec/README.md).
  int64_t morsel_grain = kDefaultMorselGrainCells;
  /// Optional cooperative preemption gate: morsel workers running under
  /// this context pause at the pickup counter while the gate is held (the
  /// serving layer holds it for batch-tier work whenever interactive
  /// queries are pending). Timing-only — never affects results. Not owned;
  /// must outlive every call using the context.
  const YieldPoint* yield = nullptr;
};

}  // namespace arraydb::exec

#endif  // ARRAYDB_EXEC_EXEC_CONTEXT_H_
