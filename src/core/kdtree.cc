#include "core/kdtree.h"

#include <algorithm>

#include "util/logging.h"

namespace arraydb::core {

KdTreePartitioner::KdTreePartitioner(const array::ArraySchema& schema,
                                     int initial_nodes, int growth_dim)
    : projection_(schema, growth_dim) {
  ARRAYDB_CHECK_GE(initial_nodes, 1);
  root_ = std::make_unique<TreeNode>();
  root_->host = 0;
  root_->lo.assign(static_cast<size_t>(projection_.num_dims()), 0);
  root_->hi = projection_.extents();
  host_leaf_.push_back(root_.get());
  // With no data, bootstrap the initial nodes by midpoint splits of the
  // largest-volume leaf (Figure 2 starts with a midpoint cut).
  for (NodeId host = 1; host < initial_nodes; ++host) {
    TreeNode* biggest = nullptr;
    double best_volume = -1.0;
    std::vector<TreeNode*> leaves;
    CollectLeaves(root_.get(), &leaves);
    for (TreeNode* leaf : leaves) {
      double volume = 1.0;
      for (size_t d = 0; d < leaf->lo.size(); ++d) {
        volume *= static_cast<double>(leaf->hi[d] - leaf->lo[d]);
      }
      if (volume > best_volume) {
        best_volume = volume;
        biggest = leaf;
      }
    }
    ARRAYDB_CHECK(biggest != nullptr);
    SplitLeaf(biggest, host, {});
  }
}

void KdTreePartitioner::CollectLeaves(TreeNode* node,
                                      std::vector<TreeNode*>* out) const {
  if (node->is_leaf) {
    out->push_back(node);
    return;
  }
  CollectLeaves(node->left.get(), out);
  CollectLeaves(node->right.get(), out);
}

KdTreePartitioner::TreeNode* KdTreePartitioner::LeafOf(
    const array::Coordinates& projected) const {
  TreeNode* node = root_.get();
  while (!node->is_leaf) {
    node = projected[static_cast<size_t>(node->split_dim)] < node->split_coord
               ? node->left.get()
               : node->right.get();
  }
  return node;
}

KdTreePartitioner::TreeNode* KdTreePartitioner::LeafOfHost(
    NodeId host) const {
  ARRAYDB_CHECK_GE(host, 0);
  ARRAYDB_CHECK_LT(static_cast<size_t>(host), host_leaf_.size());
  return host_leaf_[static_cast<size_t>(host)];
}

void KdTreePartitioner::SplitLeaf(
    TreeNode* leaf, NodeId new_host,
    const std::vector<ProjectedChunk>& chunks) {
  const int ndims = projection_.num_dims();
  // Cycle through dimensions by depth so each plane is split an
  // approximately equal number of times; skip dimensions whose extent in
  // this region is already a single chunk.
  int split_dim = -1;
  int64_t split_coord = 0;
  for (int attempt = 0; attempt < ndims; ++attempt) {
    const int dim = (leaf->depth + attempt) % ndims;
    const size_t ud = static_cast<size_t>(dim);
    if (leaf->hi[ud] - leaf->lo[ud] < 2) continue;

    int64_t candidate;
    if (chunks.empty()) {
      candidate = (leaf->lo[ud] + leaf->hi[ud]) / 2;  // No data: midpoint.
    } else {
      // Byte-weighted median along `dim`: smallest boundary such that the
      // bytes strictly below it reach half of the region's storage.
      std::vector<std::pair<int64_t, int64_t>> by_coord;  // (coord, bytes)
      int64_t total = 0;
      for (const auto& [coords, bytes] : chunks) {
        by_coord.emplace_back(coords[ud], bytes);
        total += bytes;
      }
      std::sort(by_coord.begin(), by_coord.end());
      int64_t below = 0;
      candidate = (leaf->lo[ud] + leaf->hi[ud]) / 2;
      for (const auto& [coord, bytes] : by_coord) {
        below += bytes;
        if (below * 2 >= total) {
          candidate = coord + 1;
          break;
        }
      }
    }
    candidate = std::max(candidate, leaf->lo[ud] + 1);
    candidate = std::min(candidate, leaf->hi[ud] - 1);
    if (candidate > leaf->lo[ud] && candidate < leaf->hi[ud]) {
      split_dim = dim;
      split_coord = candidate;
      break;
    }
  }
  // A 1x1x..x1 region cannot be subdivided; the chunk grid is always far
  // larger than the cluster, so this indicates a configuration error.
  ARRAYDB_CHECK_GE(split_dim, 0);

  const NodeId old_host = leaf->host;
  auto left = std::make_unique<TreeNode>();
  auto right = std::make_unique<TreeNode>();
  left->host = old_host;
  right->host = new_host;
  left->lo = leaf->lo;
  left->hi = leaf->hi;
  left->hi[static_cast<size_t>(split_dim)] = split_coord;
  right->lo = leaf->lo;
  right->lo[static_cast<size_t>(split_dim)] = split_coord;
  right->hi = leaf->hi;
  left->depth = right->depth = leaf->depth + 1;

  leaf->is_leaf = false;
  leaf->host = kInvalidNode;
  leaf->split_dim = split_dim;
  leaf->split_coord = split_coord;
  leaf->left = std::move(left);
  leaf->right = std::move(right);

  if (static_cast<size_t>(new_host) >= host_leaf_.size()) {
    host_leaf_.resize(static_cast<size_t>(new_host) + 1, nullptr);
  }
  host_leaf_[static_cast<size_t>(old_host)] = leaf->left.get();
  host_leaf_[static_cast<size_t>(new_host)] = leaf->right.get();
}

NodeId KdTreePartitioner::PlaceChunk(const cluster::Cluster& cluster,
                                     const array::ChunkInfo& chunk) {
  (void)cluster;
  return LeafOf(projection_.Project(chunk.coords))->host;
}

cluster::MovePlan KdTreePartitioner::PlanScaleOut(
    const cluster::Cluster& cluster, int old_node_count) {
  const int new_count = cluster.num_nodes();
  // Working loads and ownership: the tree reflects earlier splits within
  // this same scale-out, so recompute ownership through the tree each time.
  for (NodeId new_node = old_node_count; new_node < new_count; ++new_node) {
    std::vector<int64_t> load(static_cast<size_t>(new_node), 0);
    std::vector<std::vector<ProjectedChunk>> contents(
        static_cast<size_t>(new_node));
    cluster.ForEachChunk(
        {}, {},
        [&](const array::Coordinates& coords, NodeId, int64_t bytes) {
          array::Coordinates projected = projection_.Project(coords);
          const NodeId owner = LeafOf(projected)->host;
          ARRAYDB_CHECK_GE(owner, 0);
          if (owner < new_node) {
            load[static_cast<size_t>(owner)] += bytes;
            contents[static_cast<size_t>(owner)].emplace_back(
                std::move(projected), bytes);
          }
        });
    // Most loaded host whose region can still be subdivided (a region that
    // has shrunk to a single chunk column cannot be cut further).
    NodeId victim = -1;
    int64_t victim_bytes = -1;
    for (NodeId n = 0; n < new_node; ++n) {
      const TreeNode* leaf = LeafOfHost(n);
      bool splittable = false;
      for (size_t d = 0; d < leaf->lo.size(); ++d) {
        if (leaf->hi[d] - leaf->lo[d] >= 2) {
          splittable = true;
          break;
        }
      }
      if (splittable && load[static_cast<size_t>(n)] > victim_bytes) {
        victim = n;
        victim_bytes = load[static_cast<size_t>(n)];
      }
    }
    ARRAYDB_CHECK_GE(victim, 0);
    auto& victim_chunks = contents[static_cast<size_t>(victim)];
    std::sort(victim_chunks.begin(), victim_chunks.end());
    SplitLeaf(LeafOfHost(victim), new_node, victim_chunks);
  }

  return PlanRelocations(cluster, [this](const array::Coordinates& coords) {
    return LeafOf(projection_.Project(coords))->host;
  });
}

NodeId KdTreePartitioner::Locate(
    const array::Coordinates& chunk_coords) const {
  return LeafOf(projection_.Project(chunk_coords))->host;
}

int KdTreePartitioner::LeafDepth(NodeId host) const {
  return LeafOfHost(host)->depth;
}

}  // namespace arraydb::core
