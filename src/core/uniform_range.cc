#include "core/uniform_range.h"

#include "util/logging.h"

namespace arraydb::core {

UniformRangePartitioner::UniformRangePartitioner(
    const array::ArraySchema& schema, int initial_nodes, int growth_dim)
    : projection_(schema, growth_dim), num_nodes_(initial_nodes) {
  ARRAYDB_CHECK_GE(initial_nodes, 1);
  const array::Coordinates& extents = projection_.extents();
  bits_per_dim_.resize(extents.size());
  for (size_t d = 0; d < extents.size(); ++d) {
    int bits = 0;
    while ((1LL << bits) < extents[d]) ++bits;
    bits_per_dim_[d] = bits;
    height_ += bits;
  }
  ARRAYDB_CHECK_LE(height_, 62);
  num_leaves_ = 1ULL << height_;
  ARRAYDB_CHECK_GE(num_leaves_, static_cast<uint64_t>(initial_nodes));
}

uint64_t UniformRangePartitioner::LeafOf(
    const array::Coordinates& chunk_coords) const {
  const array::Coordinates projected = projection_.Project(chunk_coords);
  ARRAYDB_CHECK_EQ(projected.size(), bits_per_dim_.size());
  // Walk the BSP root-to-leaf: level i halves dimension (i mod d), skipping
  // dimensions whose bits are exhausted. Taking the next most significant
  // coordinate bit at each level reproduces the in-order traversal rank.
  const size_t ndims = bits_per_dim_.size();
  std::vector<int> remaining = bits_per_dim_;
  uint64_t leaf = 0;
  int emitted = 0;
  size_t dim = 0;
  while (emitted < height_) {
    if (remaining[dim] > 0) {
      const int bit_index = remaining[dim] - 1;
      const uint64_t bit =
          (static_cast<uint64_t>(projected[dim]) >> bit_index) & 1;
      leaf = (leaf << 1) | bit;
      --remaining[dim];
      ++emitted;
    }
    dim = (dim + 1) % ndims;
  }
  return leaf;
}

NodeId UniformRangePartitioner::PlaceChunk(const cluster::Cluster& cluster,
                                           const array::ChunkInfo& chunk) {
  ARRAYDB_CHECK_EQ(cluster.num_nodes(), num_nodes_);
  return Locate(chunk.coords);
}

cluster::MovePlan UniformRangePartitioner::PlanScaleOut(
    const cluster::Cluster& cluster, int old_node_count) {
  ARRAYDB_CHECK_EQ(old_node_count, num_nodes_);
  num_nodes_ = cluster.num_nodes();
  // Global rebalance: every chunk is re-addressed against the new l/n
  // blocks; a cascade of moves may touch most of the cluster.
  return PlanRelocations(cluster, [this](const array::Coordinates& coords) {
    return Locate(coords);
  });
}

NodeId UniformRangePartitioner::Locate(
    const array::Coordinates& chunk_coords) const {
  const uint64_t leaf = LeafOf(chunk_coords);
  // Balanced contiguous blocks: leaf k -> node floor(k * n / l).
  return static_cast<NodeId>(
      (static_cast<unsigned __int128>(leaf) *
       static_cast<unsigned __int128>(num_nodes_)) /
      num_leaves_);
}

}  // namespace arraydb::core
