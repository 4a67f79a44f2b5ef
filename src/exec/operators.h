// Reference implementations of the benchmark operators over materialized
// arrays (§3.3). These execute the actual algorithms — filtering, quantile,
// joins, group-by aggregation, windowed aggregates, k-means, kNN, regrid —
// on in-memory cell data. Tests and examples verify real answers here;
// exec::QueryEngine prices the same access patterns at paper scale.

#ifndef ARRAYDB_EXEC_OPERATORS_H_
#define ARRAYDB_EXEC_OPERATORS_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "array/array.h"
#include "exec/exec_context.h"
#include "exec/join.h"
#include "exec/morsel.h"
#include "util/status.h"

namespace arraydb::exec {

/// Axis-aligned box in logical cell space, inclusive on both ends.
struct CellBox {
  array::Coordinates lo;
  array::Coordinates hi;

  bool Contains(const array::Coordinates& pos) const;

  /// True if the box intersects [chunk_lo, chunk_hi] (both inclusive).
  bool Intersects(const array::Coordinates& box_lo,
                  const array::Coordinates& box_hi) const;
};

/// Span-based selection result: for each surviving chunk, the maximal runs
/// of consecutive matching cell indices. Large selections stay
/// allocation-free at the API boundary — no Cell values are materialized;
/// consumers iterate the spans against the chunks' columnar storage.
/// Holds pointers into `array`: valid only while the array outlives the
/// view unmodified.
class FilterBoxView {
 public:
  struct ChunkSpans {
    const array::Chunk* chunk = nullptr;
    /// Half-open [begin, end) runs of matching cell indices, ascending.
    std::vector<std::pair<uint32_t, uint32_t>> spans;
  };

  /// Surviving chunks in lexicographic coordinate order.
  const std::vector<ChunkSpans>& chunks() const { return chunks_; }
  int64_t num_cells() const { return num_cells_; }
  bool empty() const { return num_cells_ == 0; }

  /// Invokes fn(chunk, cell_index) for every selected cell — chunks in
  /// lexicographic order, cells in insertion order within a chunk.
  template <typename Fn>
  void ForEachCell(Fn&& fn) const {
    for (const auto& cs : chunks_) {
      for (const auto& [begin, end] : cs.spans) {
        for (uint32_t i = begin; i < end; ++i) {
          fn(*cs.chunk, static_cast<size_t>(i));
        }
      }
    }
  }

  /// Cell adapter for callers that need materialized values; sorted by
  /// position, identical to the legacy FilterBox result.
  std::vector<array::Cell> Materialize() const;

 private:
  friend FilterBoxView FilterBoxSpans(const array::Array& array,
                                      const CellBox& box,
                                      const MorselOptions& morsel);
  std::vector<ChunkSpans> chunks_;
  int64_t num_cells_ = 0;
};

// The scan/aggregate operators below execute morsel-parallel on
// exec::MorselScheduler (threads from `morsel`; the default options run
// sequentially on the calling thread). Results are
// bit-identical at every thread count: morsel boundaries depend only on
// the data and the grain, and partial states combine in fixed morsel
// order (see src/exec/README.md).

/// Selection without materialization: spans of matching cells per chunk.
/// Whole chunks are batch-pruned via their bounding boxes (the morsel
/// pre-filter); surviving chunks are carved into cache-sized morsels and
/// scanned linearly in columnar order with the SIMD predicate kernel.
FilterBoxView FilterBoxSpans(
    const array::Array& array, const CellBox& box,
    const MorselOptions& morsel = MorselOptions());

/// Selection: all cells inside `box`, sorted by position. Thin adapter over
/// FilterBoxSpans for callers that want value results.
std::vector<array::Cell> FilterBox(const array::Array& array,
                                   const CellBox& box);

/// Selection cardinality (COUNT(*) over the box): same pruning and
/// predicate kernel as FilterBoxSpans, with the mask reduced straight to a
/// per-morsel count (no span construction).
int64_t FilterBoxCount(const array::Array& array, const CellBox& box,
                       const MorselOptions& morsel = MorselOptions());

/// Sort benchmark: the q-quantile (0 <= q <= 1) of attribute `attr` over
/// all non-empty cells. Extreme quantiles are min/max kernel reductions;
/// interior quantiles gather morsel-parallel and select the two order
/// statistics with nth_element instead of a full sort.
util::StatusOr<double> AttrQuantile(
    const array::Array& array, int attr, double q,
    const MorselOptions& morsel = MorselOptions());

// The join benchmarks (DimJoinCount / AttrJoinCount) moved to exec/join.h
// — morsel-parallel radix-partitioned hash joins on Hilbert-rank keys,
// included above so existing callers keep compiling.

/// Statistics benchmark: sums attribute `attr` grouped by coarse bins of
/// size `bin[d]` cells along each dimension. Returns bin-origin -> sum.
/// Per-bin accumulation order is fixed by the morsel decomposition (chunks
/// in lexicographic order, morsel partials combined in order), so sums are
/// deterministic and thread-count invariant.
std::map<array::Coordinates, double> GroupBySum(
    const array::Array& array, const std::vector<int64_t>& bin, int attr,
    const MorselOptions& morsel = MorselOptions());

/// Complex projection benchmark: windowed average of `attr` in a Chebyshev
/// radius around `pos` (partially overlapping windows yield smooth images).
util::StatusOr<double> WindowAverageAt(const array::Array& array, int attr,
                                       const array::Coordinates& pos,
                                       int64_t radius);

/// Windowed average at every occupied cell; sorted by position. Positions
/// are enumerated deterministically and each output slot is computed by
/// exactly one morsel, so the field is thread-count invariant.
std::vector<std::pair<array::Coordinates, double>> WindowAverageAll(
    const array::Array& array, int attr, int64_t radius,
    const MorselOptions& morsel = MorselOptions());

/// Modeling benchmark (MODIS): Lloyd's k-means over arbitrary points.
struct KMeansResult {
  std::vector<std::vector<double>> centroids;
  std::vector<int> assignment;  // Cluster index per input point.
  int iterations = 0;
  double inertia = 0.0;  // Sum of squared distances to assigned centroid.
};
KMeansResult KMeans(const std::vector<std::vector<double>>& points, int k,
                    int max_iterations, uint64_t seed);

/// Modeling benchmark (AIS): average Euclidean distance (in cell space) to
/// the k nearest other cells, over `samples` cells drawn uniformly. The
/// sample draw stays sequential (one RNG stream); each sample's distance
/// scan fills a preallocated slot per cell morsel-parallel, so the
/// selection input — and the result — is identical at every thread count.
util::StatusOr<double> KnnAverageDistance(
    const array::Array& array, int k, int samples, uint64_t seed,
    const MorselOptions& morsel = MorselOptions());

/// Regridding: coarsens the array by integer `factors` per dimension,
/// producing an array with attributes (sum of `attr`, cell count).
util::StatusOr<array::Array> Regrid(const array::Array& array,
                                    const std::vector<int64_t>& factors,
                                    int attr);

// -- ExecContext entry points -------------------------------------------------
//
// Session-style overloads: one explicit context carries every execution
// setting (threads, grain, partition bits, yield gate), so concurrent
// sessions run the same operators with different settings without touching
// the process default. Results are independent of the context by the
// determinism contract (modulo the documented grain-boundary float
// caveat). See "Session contract" in src/exec/README.md.

inline FilterBoxView FilterBoxSpans(const array::Array& array,
                                    const CellBox& box,
                                    const ExecContext& context) {
  return FilterBoxSpans(array, box, context.morsel_options());
}

inline int64_t FilterBoxCount(const array::Array& array, const CellBox& box,
                              const ExecContext& context) {
  return FilterBoxCount(array, box, context.morsel_options());
}

inline util::StatusOr<double> AttrQuantile(const array::Array& array,
                                           int attr, double q,
                                           const ExecContext& context) {
  return AttrQuantile(array, attr, q, context.morsel_options());
}

inline std::map<array::Coordinates, double> GroupBySum(
    const array::Array& array, const std::vector<int64_t>& bin, int attr,
    const ExecContext& context) {
  return GroupBySum(array, bin, attr, context.morsel_options());
}

inline std::vector<std::pair<array::Coordinates, double>> WindowAverageAll(
    const array::Array& array, int attr, int64_t radius,
    const ExecContext& context) {
  return WindowAverageAll(array, attr, radius, context.morsel_options());
}

inline util::StatusOr<double> KnnAverageDistance(const array::Array& array,
                                                 int k, int samples,
                                                 uint64_t seed,
                                                 const ExecContext& context) {
  return KnnAverageDistance(array, k, samples, seed,
                            context.morsel_options());
}

inline int64_t DimJoinCount(const array::Array& a, const array::Array& b,
                            const ExecContext& context) {
  return DimJoinCount(a, b, context.join_options());
}

inline int64_t AttrJoinCount(const array::Array& array, int attr,
                             const std::unordered_set<int64_t>& keys,
                             const ExecContext& context) {
  return AttrJoinCount(array, attr, keys, context.join_options());
}

}  // namespace arraydb::exec

#endif  // ARRAYDB_EXEC_OPERATORS_H_
