// An Array is a schema plus a sparse collection of non-empty chunks keyed by
// chunk-grid coordinates. Only non-empty cells are stored, so the on-disk
// footprint is a function of cell counts, not the declared array size (§2).
//
// The chunks live in one ChunkTable (array/chunk_table.h), kept in
// lexicographic coordinate order as chunks arrive, so every enumeration
// (chunks(), SortedChunks(), ChunkInfos(), AllCells()) walks that order
// without sorting. Chunk pointers, cell-span views and other references into
// an Array are invalidated by mutating that array (InsertCell,
// AddSyntheticChunk); const member functions only read, so concurrent
// readers of an array nobody mutates need no locking.

#ifndef ARRAYDB_ARRAY_ARRAY_H_
#define ARRAYDB_ARRAY_ARRAY_H_

#include <cstdint>
#include <vector>

#include "array/chunk.h"
#include "array/chunk_table.h"
#include "array/coordinates.h"
#include "array/schema.h"
#include "util/status.h"

namespace arraydb::array {

/// An array's chunks in lexicographic coordinate order.
using ChunkMap = ChunkTable<Chunk, &Chunk::coords>;

class Array {
 public:
  explicit Array(ArraySchema schema);

  const ArraySchema& schema() const { return schema_; }

  /// Inserts a materialized cell at logical position `pos`; routes it into
  /// the owning chunk (creating the chunk if needed).
  util::Status InsertCell(const Coordinates& pos,
                         const std::vector<double>& values);

  /// Registers a synthetic chunk with only metadata (paper-scale mode).
  /// Fails if a chunk already exists at those coordinates: the paper's
  /// storage model is strictly no-overwrite.
  util::Status AddSyntheticChunk(const ChunkInfo& info);

  /// Looks up a chunk; nullptr when absent.
  const Chunk* FindChunk(const Coordinates& chunk_coords) const;

  int64_t num_chunks() const { return static_cast<int64_t>(chunks_.size()); }
  int64_t total_cells() const { return total_cells_; }
  int64_t total_bytes() const { return total_bytes_; }

  /// Chunk metadata in deterministic (lexicographic) order.
  std::vector<ChunkInfo> ChunkInfos() const;

  /// Pointers to all chunks in lexicographic coordinate order, for
  /// operators that must produce order-stable output.
  std::vector<const Chunk*> SortedChunks() const;

  /// All materialized cells (test/example scale only), in deterministic
  /// order: chunks by coordinates, cells in insertion order within a chunk.
  std::vector<Cell> AllCells() const;

  /// All chunks in lexicographic coordinate order; iteration yields
  /// (coords, chunk) reference pairs.
  const ChunkMap& chunks() const { return chunks_; }

 private:
  ArraySchema schema_;
  ChunkMap chunks_;
  int64_t total_cells_ = 0;
  int64_t total_bytes_ = 0;
};

}  // namespace arraydb::array

#endif  // ARRAYDB_ARRAY_ARRAY_H_
