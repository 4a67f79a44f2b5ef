// Morsel-parallel radix-partitioned hash joins on Hilbert-rank keys.
//
// The join benchmarks (the paper's Fig. 6 MODIS vegetation-index join and
// the AIS vessel join) execute here on materialized arrays. Dimension
// joins key on the packed 64-bit Hilbert rank of each cell position
// (hilbert::HilbertCodec::RankPacked over the chunks' packed coordinate
// columns — no per-cell Coordinates allocation, no vector hashing), radix-
// partition the build side by the high rank bits into flat open-addressing
// key tables, and probe morsel-parallel through exec::MorselScheduler.
// Because chunks are Hilbert-ordered by the placement layer, co-located
// chunks share rank prefixes: radix partitions are placement-aligned for
// free.
//
// Determinism contract (same as the scan/aggregate operators, see
// src/exec/README.md "Join partitioning contract"): the partition
// decomposition is a pure function of the data, the grain, and the
// partition-bit count; per-morsel partials merge in fixed (partition,
// morsel) order; match counts are integers, so results are bit-identical
// across thread counts, morsel grains, AND partition-bit settings.

#ifndef ARRAYDB_EXEC_JOIN_H_
#define ARRAYDB_EXEC_JOIN_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "array/array.h"
#include "exec/morsel.h"

namespace arraydb::exec {

/// Default number of high rank bits selecting a build partition (16
/// partitions): enough that every hardware thread owns private tables at
/// testbed scale while each partition's key list stays cache-friendly.
inline constexpr int kDefaultJoinPartitionBits = 4;

struct JoinOptions {
  MorselOptions morsel;
  /// High rank bits selecting the radix partition; 0 = a single partition
  /// (the degenerate non-partitioned table). Clamped to the key space's
  /// available rank bits. Results never depend on this setting.
  int partition_bits = kDefaultJoinPartitionBits;
};

/// Flat open-addressing set of uint64 keys: power-of-two slot array, linear
/// probing, splitmix64-mixed hashing. Empty slots hold 0; a present zero
/// key is tracked out of band. No node allocation, no per-key indirection —
/// the build side of the radix join and the attribute key set.
class FlatKeySet {
 public:
  /// Sizes the slot array for `n` distinct keys at <= 50% load.
  void Reserve(size_t n);

  void Insert(uint64_t key);
  bool Contains(uint64_t key) const;

  /// Distinct keys inserted.
  size_t size() const { return size_; }

 private:
  void Grow();

  std::vector<uint64_t> slots_;  // 0 = empty; power-of-two length.
  size_t mask_ = 0;
  size_t size_ = 0;
  bool has_zero_ = false;
};

/// Join benchmark (MODIS): number of positions occupied in both arrays —
/// the size of the position join used for the vegetation index.
///
/// Multiplicity semantics (pinned by the invariance suite): the side with
/// fewer total cells builds (ties: `a` builds), the other side probes.
/// Duplicate build-side positions collapse into the key set and count
/// once; every probe-side cell whose position is present counts, so
/// duplicate probe-side positions each contribute a match. Arrays of
/// different rank never share a position: the join is empty.
///
/// Executes the radix-partitioned rank-key join when a common Hilbert key
/// space exists (rank <= the codec's 6-dim state tables and the joint
/// coordinate extents fit the 64-bit rank budget); otherwise falls back to
/// internal::DimJoinCountBySet with identical semantics.
int64_t DimJoinCount(const array::Array& a, const array::Array& b,
                     const JoinOptions& options = JoinOptions());

/// Join benchmark (AIS): cells of `array` whose attribute `attr` value
/// rounds (llround: nearest integer, ties away from zero) to a key in
/// `keys` — a hash join against the replicated vessel array. Non-finite
/// values and values outside the int64 range never match.
int64_t AttrJoinCount(const array::Array& array, int attr,
                      const std::unordered_set<int64_t>& keys,
                      const JoinOptions& options = JoinOptions());

/// Integer join key of an attribute value: nearest integer, ties away from
/// zero (std::llround). Returns false — the value can never match — for
/// non-finite values and values outside the int64 range.
bool AttrJoinKey(double value, int64_t* key);

namespace internal {

/// The retired unordered_set<Coordinates> dimension join, kept as the
/// executable multiplicity-semantics specification, as the fallback for
/// key spaces the rank codec cannot serve, and as the "seed" side of the
/// radix-vs-set comparison in bench_fig6_join.
int64_t DimJoinCountBySet(const array::Array& a, const array::Array& b);

}  // namespace internal

}  // namespace arraydb::exec

#endif  // ARRAYDB_EXEC_JOIN_H_
