// Seeded inputs of the three benchmark workloads. Everything the library
// receives is generated here from the --seed argument: the same seed gives
// the same inputs, byte for byte (Inputs::digest pins that).
//
// Every workload plays the same elastic cycle over the same query suite;
// what differs is the shape of the data, and with it which layer does most
// of the work (see README.md, "Workloads").
#ifndef ELASTICBENCH_INPUTS_H_
#define ELASTICBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "array/array.h"
#include "array/chunk.h"
#include "array/schema.h"
#include "core/partitioner_factory.h"

namespace ebench {

/// Every array here is 3-D: (time, x, y), one chunk per time step.
inline constexpr int kDims = 3;
/// Every workload starts on this many nodes.
inline constexpr int kInitialNodes = 2;

/// One cycle's materialized cells, in insertion order.
struct CellBatch {
  std::vector<int64_t> pos;     // kDims values per cell.
  std::vector<double> values;   // num_attrs values per cell.
  std::vector<int64_t> chunks;  // Distinct chunk coordinates, sorted.
};

/// One cycle's point reads against the routed array. For a materialized
/// array a hit is a stored cell; for a metadata-only catalog a hit is a
/// stored chunk.
struct LookupBatch {
  std::vector<int64_t> cell;   // kDims values per lookup.
  std::vector<int64_t> chunk;  // kDims values per lookup (chunk of `cell`).
  std::vector<uint8_t> expect_hit;
};

/// A spatial box as fractions of the x/y extents: [x0, x1) x [y0, y1).
struct Box {
  double x0 = 0.0, x1 = 1.0, y0 = 0.0, y1 = 1.0;
};

/// Query-suite parameters. The operator list is the same on every
/// workload; these set its sizes.
struct SuiteParams {
  Box corner;             // FilterBoxCount over every cycle so far.
  Box hot;                // FilterBoxSpans over every cycle so far, and
                          // WindowAverageAll over the newest slice.
  int quantile_attr = 1;
  double quantile = 0.5;  // AttrQuantile over the whole array.
  int64_t group_bin = 32; // GroupBySum spatial bin (cells) over the array.
  int64_t regrid_factor = 8;  // Regrid of the newest slice.
  int window_attr = 1;        // WindowAverageAll over the newest slice.
  int probes = 1;             // WindowAverageAt probes per cycle.
  bool probe_whole_array = false;  // Probe the whole array, not the slice.
  int attr_join_attr = 0;     // AttrJoinCount against `join_keys`.
  bool kmeans_on_positions = false;  // Cluster (x, y); else attrs 1 and 2.
  int kmeans_k = 4;
  int kmeans_points = 2048;   // Points sampled from the newest slice.
  int knn_samples = 16;
  bool knn_whole_array = false;  // kNN over the whole array, not the slice.
  int point_queries = 2;      // Interactive single-chunk queries per cycle.
};

struct Inputs {
  int cycles = 0;

  // Placement.
  arraydb::core::PartitionerKind partitioner =
      arraydb::core::PartitionerKind::kHilbertCurve;
  double node_capacity_gb = 1.0;
  std::vector<int> nodes_to_add;  // Per cycle, added before its ingest.
  int increments_per_plan = 8;    // Reorg increments a plan is sliced into.

  // The materialized array the query suite runs on.
  arraydb::array::ArraySchema data_schema;
  std::vector<CellBatch> cells;  // Per cycle.
  /// Per cycle: the cells of the array DimJoinCount joins with the newest
  /// slice (a second band, or the previous time step moved onto the newest
  /// one), and that array, built from them by BuildCompanions.
  arraydb::array::ArraySchema companion_schema;
  std::vector<CellBatch> companion_cells;
  std::vector<arraydb::array::Array> companion;

  // Metadata-only catalog: when set, the placement layer routes these
  // chunks (registered as synthetic chunks) instead of the data array's.
  bool metadata_only = false;
  arraydb::array::ArraySchema catalog_schema;
  std::vector<std::vector<arraydb::array::ChunkInfo>> catalog;  // Per cycle.

  std::vector<LookupBatch> lookups;  // Per cycle.
  std::unordered_set<int64_t> join_keys;
  SuiteParams suite;

  /// Digest over every generated value (setup determinism check).
  uint64_t digest = 0;

  const arraydb::array::ArraySchema& routed_schema() const {
    return metadata_only ? catalog_schema : data_schema;
  }
};

/// Builds the inputs of `workload` from `seed`. `smoke` shrinks every size
/// for the self-test. Returns false for an unknown workload.
bool MakeInputs(const std::string& workload, uint64_t seed, bool smoke,
                Inputs* out);

/// The library side of set-up: builds the companion arrays of `in` into
/// `out` from `in.companion_cells` through Array::InsertCell. Returns false
/// if an insert fails.
bool BuildCompanions(const Inputs& in,
                     std::vector<arraydb::array::Array>* out);

/// FNV-1a over 64-bit words.
class Hasher {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void AddInt(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void AddDouble(double v);
  void AddString(const std::string& s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

}  // namespace ebench

#endif  // ELASTICBENCH_INPUTS_H_
