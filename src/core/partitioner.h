// Elastic partitioners for scientific arrays (paper §4).
//
// A Partitioner is a pure placement policy over the chunk grid of one array
// schema. It decides (a) which node receives each newly inserted chunk and
// (b) how to repartition when the cluster scales out. The Cluster remains
// the source of truth for current placement; partitioners receive it
// read-only and express repartitioning as MovePlans.
//
// Table 1 taxonomy: each scheme advertises its feature set via features().

#ifndef ARRAYDB_CORE_PARTITIONER_H_
#define ARRAYDB_CORE_PARTITIONER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "array/chunk.h"
#include "array/coordinates.h"
#include "array/schema.h"
#include "cluster/cluster.h"
#include "cluster/transfer.h"

namespace arraydb::core {

using cluster::NodeId;
using cluster::kInvalidNode;

/// The four features of elastic array data placement (paper Table 1).
enum PartitionerFeature : uint32_t {
  /// Scale-out only transfers data from preexisting nodes to new ones.
  kIncrementalScaleOut = 1u << 0,
  /// Assigns chunks one at a time rather than subdividing planes.
  kFineGrainedPartitioning = 1u << 1,
  /// Uses the observed storage distribution to plan repartitionings.
  kSkewAware = 1u << 2,
  /// Preserves n-dimensional array space on each host.
  kNDimensionalClustering = 1u << 3,
};

/// Renders a feature bitmask as e.g. "incremental|skew-aware".
std::string FeaturesToString(uint32_t features);

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  virtual const char* name() const = 0;

  /// Bitmask of PartitionerFeature.
  virtual uint32_t features() const = 0;

  /// Chooses the destination node for a newly inserted chunk. Called before
  /// the cluster records the chunk; `cluster` reflects placement so far.
  virtual NodeId PlaceChunk(const cluster::Cluster& cluster,
                            const array::ChunkInfo& chunk) = 0;

  /// Reacts to a cluster expansion: nodes [old_node_count,
  /// cluster.num_nodes()) were just added and are empty. Updates the
  /// internal partitioning table and returns the chunk moves needed to
  /// realize the new layout. The engine applies the plan to the cluster.
  virtual cluster::MovePlan PlanScaleOut(const cluster::Cluster& cluster,
                                         int old_node_count) = 0;

  /// Locates a chunk from the partitioning table alone (no cluster access).
  /// Valid for chunks previously placed (directly or via scale-out).
  virtual NodeId Locate(const array::Coordinates& chunk_coords) const = 0;

  /// Optional batch hook called by the engine before routing `batch` chunk
  /// by chunk: precompute whatever placement-independent per-chunk state the
  /// partitioner wants (e.g. curve ranks), using up to `num_threads`
  /// workers. Must not change any placement decision — the subsequent
  /// PlaceChunk calls stay sequential, so results are deterministic and
  /// identical for every thread count. Default: no-op.
  virtual void PrewarmPlacement(const std::vector<array::ChunkInfo>& batch,
                                int num_threads) {
    (void)batch;
    (void)num_threads;
  }

  bool IsIncremental() const { return features() & kIncrementalScaleOut; }
  bool IsFineGrained() const {
    return features() & kFineGrainedPartitioning;
  }
  bool IsSkewAware() const { return features() & kSkewAware; }
  bool IsNDimClustered() const {
    return features() & kNDimensionalClustering;
  }
};

/// Stable 64-bit hash of chunk coordinates used by all hash partitioners.
uint64_t ChunkHash(const array::Coordinates& coords);

/// Node with the most stored bytes; ties break toward the lower id.
NodeId MostLoadedNode(const cluster::Cluster& cluster);

/// Most loaded node among ids in [0, limit). Used during scale-out to pick
/// split victims only among preexisting nodes.
NodeId MostLoadedNodeBelow(const cluster::Cluster& cluster, NodeId limit);

/// The move plan that realizes an updated partitioning table: one move for
/// every stored chunk whose `target(coords)` differs from its current
/// owner, in lexicographic chunk order.
cluster::MovePlan PlanRelocations(
    const cluster::Cluster& cluster,
    const std::function<NodeId(const array::Coordinates&)>& target);

}  // namespace arraydb::core

#endif  // ARRAYDB_CORE_PARTITIONER_H_
