#include "core/partitioner.h"

#include <vector>

#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"

namespace arraydb::core {

std::string FeaturesToString(uint32_t features) {
  std::vector<std::string> parts;
  if (features & kIncrementalScaleOut) parts.push_back("incremental");
  if (features & kFineGrainedPartitioning) parts.push_back("fine-grained");
  if (features & kSkewAware) parts.push_back("skew-aware");
  if (features & kNDimensionalClustering) parts.push_back("n-dim-clustered");
  if (parts.empty()) return "none";
  return util::Join(parts, "|");
}

uint64_t ChunkHash(const array::Coordinates& coords) {
  uint64_t h = 0x853c49e6748fea9bULL;  // Fixed salt: placement must be stable.
  for (int64_t v : coords) {
    h = util::HashCombine(h, static_cast<uint64_t>(v));
  }
  return util::SplitMix64(h);
}

NodeId MostLoadedNode(const cluster::Cluster& cluster) {
  return MostLoadedNodeBelow(cluster, cluster.num_nodes());
}

NodeId MostLoadedNodeBelow(const cluster::Cluster& cluster, NodeId limit) {
  ARRAYDB_CHECK_GE(limit, 1);
  ARRAYDB_CHECK_LE(limit, cluster.num_nodes());
  NodeId best = 0;
  int64_t best_bytes = -1;
  for (NodeId n = 0; n < limit; ++n) {
    const int64_t bytes = cluster.NodeBytes(n);
    if (bytes > best_bytes) {
      best = n;
      best_bytes = bytes;
    }
  }
  return best;
}

cluster::MovePlan PlanRelocations(
    const cluster::Cluster& cluster,
    const std::function<NodeId(const array::Coordinates&)>& target) {
  cluster::MovePlan plan;
  cluster.ForEachChunk(
      {}, {},
      [&](const array::Coordinates& coords, NodeId node, int64_t bytes) {
        const NodeId to = target(coords);
        if (to != node) plan.Add(cluster::ChunkMove{coords, bytes, node, to});
      });
  return plan;
}

}  // namespace arraydb::core
