// PlacementView: the read-side routing abstraction over chunk placement.
//
// Query execution must not assume placement is a quiesced Cluster: during an
// incremental reorganization (src/reorg/) the routing table a query consults
// is a dual-residency view where migrating chunks remain readable at their
// source node. Everything that *reads* placement (exec::QueryEngine, load
// diagnostics) takes a PlacementView; Cluster implements it directly for the
// quiesced case and reorg::DualResidencyView implements it for clusters with
// a reorganization in flight.

#ifndef ARRAYDB_CLUSTER_PLACEMENT_VIEW_H_
#define ARRAYDB_CLUSTER_PLACEMENT_VIEW_H_

#include <cstdint>
#include <functional>

#include "array/coordinates.h"
#include "cluster/transfer.h"

namespace arraydb::cluster {

class PlacementView {
 public:
  virtual ~PlacementView() = default;

  virtual int num_nodes() const = 0;

  /// Node a read of this chunk is routed to, or kInvalidNode when the chunk
  /// is not stored.
  virtual NodeId OwnerOf(const array::Coordinates& coords) const = 0;

  /// Routed owner and physical size in one lookup; false when absent.
  virtual bool Lookup(const array::Coordinates& coords, NodeId* node,
                      int64_t* bytes) const = 0;

  /// Invokes `fn(coords, node, bytes)` with the routed owner of every
  /// stored chunk inside the inclusive box [lo, hi]: chunk c is inside when
  /// lo[d] <= c[d] <= hi[d] for every dimension d a bound has an entry for.
  /// A bound constrains only the leading dimensions it lists, so an empty
  /// bound leaves its side open and `ForEachChunk({}, {}, fn)` visits every
  /// chunk. Chunks are visited in lexicographic coordinate order, the order
  /// every deterministic caller (cost merges, placement planners) relies
  /// on. The walk starts at the first chunk not below `lo` and stops once
  /// dimension 0 passes hi[0], so a box over the newest time steps of a
  /// time-major array costs its own chunks, not the whole placement. An
  /// inverted box (some lo[d] > hi[d]) visits nothing. References are valid
  /// only during the call.
  virtual void ForEachChunk(
      const array::Coordinates& lo, const array::Coordinates& hi,
      const std::function<void(const array::Coordinates&, NodeId, int64_t)>&
          fn) const = 0;
};

}  // namespace arraydb::cluster

#endif  // ARRAYDB_CLUSTER_PLACEMENT_VIEW_H_
