#include "core/round_robin.h"

#include "util/logging.h"

namespace arraydb::core {

RoundRobinPartitioner::RoundRobinPartitioner(const array::ArraySchema& schema,
                                             int initial_nodes)
    : schema_(schema), num_nodes_(initial_nodes) {
  ARRAYDB_CHECK_GE(initial_nodes, 1);
}

NodeId RoundRobinPartitioner::PlaceChunk(const cluster::Cluster& cluster,
                                         const array::ChunkInfo& chunk) {
  ARRAYDB_CHECK_EQ(cluster.num_nodes(), num_nodes_);
  return Locate(chunk.coords);
}

cluster::MovePlan RoundRobinPartitioner::PlanScaleOut(
    const cluster::Cluster& cluster, int old_node_count) {
  ARRAYDB_CHECK_EQ(old_node_count, num_nodes_);
  num_nodes_ = cluster.num_nodes();
  return PlanRelocations(cluster, [this](const array::Coordinates& coords) {
    return Locate(coords);
  });
}

NodeId RoundRobinPartitioner::Locate(
    const array::Coordinates& chunk_coords) const {
  const int64_t index = schema_.LinearizeChunkIndex(chunk_coords);
  return static_cast<NodeId>(index % num_nodes_);
}

}  // namespace arraydb::core
