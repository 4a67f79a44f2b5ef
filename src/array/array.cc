#include "array/array.h"

#include <utility>

#include "util/logging.h"

namespace arraydb::array {

Array::Array(ArraySchema schema) : schema_(std::move(schema)) {
  ARRAYDB_CHECK(schema_.Validate().ok());
}

util::Status Array::InsertCell(const Coordinates& pos,
                               const std::vector<double>& values) {
  if (pos.size() != static_cast<size_t>(schema_.num_dims())) {
    return util::InvalidArgument("cell rank does not match schema");
  }
  if (values.size() != static_cast<size_t>(schema_.num_attrs())) {
    return util::InvalidArgument("cell attribute count does not match schema");
  }
  for (int d = 0; d < schema_.num_dims(); ++d) {
    const auto& dim = schema_.dims()[d];
    if (pos[d] < dim.lo || (!dim.unbounded && pos[d] > dim.hi)) {
      return util::OutOfRange("cell outside declared dimension range");
    }
  }
  const Coordinates cc = schema_.ChunkOf(pos);
  Chunk* chunk = chunks_.FindOrInsert(cc, [&cc] { return Chunk(cc); }).first;
  chunk->AppendCell(pos, values, schema_.BytesPerCell());
  total_cells_ += 1;
  total_bytes_ += schema_.BytesPerCell();
  return util::Status::Ok();
}

util::Status Array::AddSyntheticChunk(const ChunkInfo& info) {
  if (!schema_.ChunkInBounds(info.coords)) {
    return util::OutOfRange("chunk outside declared grid: " +
                            CoordinatesToString(info.coords));
  }
  const auto make = [&info] {
    Chunk chunk(info.coords);
    chunk.SetSyntheticSize(info.cell_count, info.bytes);
    return chunk;
  };
  if (!chunks_.FindOrInsert(info.coords, make).second) {
    return util::AlreadyExists("chunk exists (no-overwrite storage): " +
                               CoordinatesToString(info.coords));
  }
  total_cells_ += info.cell_count;
  total_bytes_ += info.bytes;
  return util::Status::Ok();
}

const Chunk* Array::FindChunk(const Coordinates& chunk_coords) const {
  return chunks_.Find(chunk_coords);
}

std::vector<ChunkInfo> Array::ChunkInfos() const {
  std::vector<ChunkInfo> out;
  out.reserve(chunks_.size());
  for (const auto& [coords, chunk] : chunks_) out.push_back(chunk.info());
  return out;
}

std::vector<const Chunk*> Array::SortedChunks() const {
  std::vector<const Chunk*> out;
  out.reserve(chunks_.size());
  for (const auto& [coords, chunk] : chunks_) out.push_back(&chunk);
  return out;
}

std::vector<Cell> Array::AllCells() const {
  std::vector<Cell> out;
  out.reserve(static_cast<size_t>(total_cells_));
  for (const auto& [coords, chunk] : chunks_) {
    for (size_t i = 0; i < chunk.num_cells(); ++i) {
      out.push_back(chunk.MaterializeCell(i));
    }
  }
  return out;
}

}  // namespace arraydb::array
