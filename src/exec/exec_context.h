// ExecContext: the explicit per-call execution settings of the data-plane
// operators and joins — worker threads, morsel grain, join partition bits,
// and an optional cooperative yield gate.
//
// Sessions thread an ExecContext through the operator and join entry
// points (exec/operators.h and exec/join.h carry ExecContext overloads), so
// concurrent sessions with different settings are fully independent. There
// is no process-wide default to mutate: the overloads without a context run
// with default-constructed MorselOptions / JoinOptions, which equal a
// default-constructed ExecContext.

#ifndef ARRAYDB_EXEC_EXEC_CONTEXT_H_
#define ARRAYDB_EXEC_EXEC_CONTEXT_H_

#include <cstdint>

#include "exec/join.h"

namespace arraydb::exec {

struct ExecContext {
  /// Worker threads for morsel-parallel operator execution (1 = sequential,
  /// 0 = auto via util::ResolveThreadCount). Results are bit-identical at
  /// every setting (morsel determinism contract).
  int data_plane_threads = 1;
  /// Radix partition bits for the rank-keyed hash joins. Results are
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
  /// must outlive every operator call using the context.
  const YieldPoint* yield = nullptr;

  /// The context expressed as operator / join options.
  MorselOptions morsel_options() const;
  JoinOptions join_options() const;
};

}  // namespace arraydb::exec

#endif  // ARRAYDB_EXEC_EXEC_CONTEXT_H_
