#include "reorg/dual_residency.h"

namespace arraydb::reorg {
namespace {

// Reads of a dual-resident chunk go to its retained source replica.
template <typename Record>
cluster::NodeId RoutedNode(const Record& rec) {
  return rec.source_replica != cluster::kInvalidNode ? rec.source_replica
                                                     : rec.node;
}

}  // namespace

cluster::NodeId DualResidencyView::OwnerOf(
    const array::Coordinates& coords) const {
  const auto* rec = cluster_->table_.Find(coords);
  return rec == nullptr ? cluster::kInvalidNode : RoutedNode(*rec);
}

bool DualResidencyView::Lookup(const array::Coordinates& coords,
                               cluster::NodeId* node, int64_t* bytes) const {
  const auto* rec = cluster_->table_.Find(coords);
  if (rec == nullptr) return false;
  *node = RoutedNode(*rec);
  *bytes = rec->bytes;
  return true;
}

void DualResidencyView::ForEachChunk(
    const array::Coordinates& lo, const array::Coordinates& hi,
    const std::function<void(const array::Coordinates&, cluster::NodeId,
                             int64_t)>& fn) const {
  cluster_->table_.ForEachInBox(lo, hi, [&fn](const auto& rec) {
    fn(rec.coords, RoutedNode(rec), rec.bytes);
  });
}

}  // namespace arraydb::reorg
