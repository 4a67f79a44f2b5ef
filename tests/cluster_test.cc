// Unit tests for the shared-nothing cluster substrate: placement,
// move-plan application, accounting, the RSD balance metric, and
// differential tests of the placement table (box enumeration, dual-residency
// routing, copies) against plain filters over the placement history.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "cluster/cluster.h"
#include "reorg/dual_residency.h"
#include "util/rng.h"
#include "util/units.h"

namespace arraydb::cluster {
namespace {

TEST(ClusterTest, StartsEmpty) {
  Cluster c(2, 100.0);
  EXPECT_EQ(c.num_nodes(), 2);
  EXPECT_DOUBLE_EQ(c.CapacityGb(), 200.0);
  EXPECT_EQ(c.num_chunks(), 0);
  EXPECT_EQ(c.TotalBytes(), 0);
  EXPECT_DOUBLE_EQ(c.LoadRsd(), 0.0);
}

TEST(ClusterTest, PlaceAndLookup) {
  Cluster c(2, 100.0);
  ASSERT_TRUE(c.PlaceChunk({0, 0}, 100, 0).ok());
  ASSERT_TRUE(c.PlaceChunk({0, 1}, 200, 1).ok());
  EXPECT_EQ(c.OwnerOf({0, 0}), 0);
  EXPECT_EQ(c.OwnerOf({0, 1}), 1);
  EXPECT_EQ(c.OwnerOf({9, 9}), kInvalidNode);
  EXPECT_TRUE(c.Contains({0, 0}));
  EXPECT_FALSE(c.Contains({1, 0}));
  EXPECT_EQ(c.NodeBytes(0), 100);
  EXPECT_EQ(c.NodeBytes(1), 200);
  EXPECT_EQ(c.TotalBytes(), 300);
  EXPECT_EQ(c.NodeChunkCount(0), 1);
}

TEST(ClusterTest, NoOverwrite) {
  Cluster c(1, 100.0);
  ASSERT_TRUE(c.PlaceChunk({5}, 10, 0).ok());
  const auto again = c.PlaceChunk({5}, 10, 0);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), util::StatusCode::kAlreadyExists);
}

TEST(ClusterTest, RejectsUnknownNodeAndNegativeBytes) {
  Cluster c(2, 100.0);
  EXPECT_FALSE(c.PlaceChunk({0}, 10, 7).ok());
  EXPECT_FALSE(c.PlaceChunk({0}, 10, -1).ok());
  EXPECT_FALSE(c.PlaceChunk({1}, -5, 0).ok());
}

TEST(ClusterTest, AddNodesReturnsFirstNewId) {
  Cluster c(2, 100.0);
  EXPECT_EQ(c.AddNodes(3), 2);
  EXPECT_EQ(c.num_nodes(), 5);
  EXPECT_EQ(c.NodeBytes(4), 0);
}

TEST(ClusterTest, ApplyMovesChunks) {
  Cluster c(2, 100.0);
  ASSERT_TRUE(c.PlaceChunk({0}, 100, 0).ok());
  ASSERT_TRUE(c.PlaceChunk({1}, 50, 0).ok());
  c.AddNodes(1);
  MovePlan plan;
  plan.Add(ChunkMove{{1}, 50, 0, 2});
  ASSERT_TRUE(c.Apply(plan).ok());
  EXPECT_EQ(c.OwnerOf({1}), 2);
  EXPECT_EQ(c.NodeBytes(0), 100);
  EXPECT_EQ(c.NodeBytes(2), 50);
  EXPECT_EQ(c.TotalBytes(), 150);  // Moves never change totals.
}

TEST(ClusterTest, ApplyValidatesBeforeMutating) {
  Cluster c(2, 100.0);
  ASSERT_TRUE(c.PlaceChunk({0}, 100, 0).ok());
  // Plan with a valid move followed by an invalid one: nothing applies.
  MovePlan plan;
  plan.Add(ChunkMove{{0}, 100, 0, 1});
  plan.Add(ChunkMove{{9}, 10, 0, 1});  // Unknown chunk.
  EXPECT_FALSE(c.Apply(plan).ok());
  EXPECT_EQ(c.OwnerOf({0}), 0) << "partial application detected";
}

TEST(ClusterTest, ApplyChecksClaimedOwnerAndBytes) {
  Cluster c(2, 100.0);
  ASSERT_TRUE(c.PlaceChunk({0}, 100, 0).ok());
  MovePlan wrong_owner;
  wrong_owner.Add(ChunkMove{{0}, 100, 1, 0});
  EXPECT_FALSE(c.Apply(wrong_owner).ok());
  MovePlan wrong_bytes;
  wrong_bytes.Add(ChunkMove{{0}, 99, 0, 1});
  EXPECT_FALSE(c.Apply(wrong_bytes).ok());
  MovePlan bad_target;
  bad_target.Add(ChunkMove{{0}, 100, 0, 5});
  EXPECT_FALSE(c.Apply(bad_target).ok());
}

TEST(ClusterTest, LoadRsdMatchesHandComputation) {
  Cluster c(2, 100.0);
  const int64_t gb = static_cast<int64_t>(util::kGiB);
  ASSERT_TRUE(c.PlaceChunk({0}, 10 * gb, 0).ok());
  ASSERT_TRUE(c.PlaceChunk({1}, 30 * gb, 1).ok());
  // Loads 10,30: mean 20, population stdev 10 -> RSD 0.5.
  EXPECT_NEAR(c.LoadRsd(), 0.5, 1e-9);
}

TEST(ClusterTest, ChunksOnNodeIsSortedAndFiltered) {
  Cluster c(2, 100.0);
  ASSERT_TRUE(c.PlaceChunk({2, 0}, 1, 0).ok());
  ASSERT_TRUE(c.PlaceChunk({0, 0}, 2, 0).ok());
  ASSERT_TRUE(c.PlaceChunk({1, 0}, 3, 1).ok());
  const auto on0 = c.ChunksOnNode(0);
  ASSERT_EQ(on0.size(), 2u);
  EXPECT_EQ(on0[0].coords, (array::Coordinates{0, 0}));
  EXPECT_EQ(on0[1].coords, (array::Coordinates{2, 0}));
  EXPECT_EQ(c.ChunksOnNode(1).size(), 1u);
  EXPECT_EQ(c.AllChunks().size(), 3u);
}

// Regression (determinism lint R1): ForEachChunk used to iterate the
// unordered chunk map directly, exposing hash order — which varies with
// insertion history — to every caller's visit sequence. It must enumerate
// in sorted coordinate order, independent of placement order.
TEST(ClusterTest, ForEachChunkEnumeratesInSortedOrder) {
  // Same chunks, two different insertion histories.
  Cluster a(2, 100.0);
  ASSERT_TRUE(a.PlaceChunk({0, 0}, 10, 0).ok());
  ASSERT_TRUE(a.PlaceChunk({0, 1}, 20, 1).ok());
  ASSERT_TRUE(a.PlaceChunk({1, 0}, 30, 0).ok());
  ASSERT_TRUE(a.PlaceChunk({2, 5}, 40, 1).ok());

  Cluster b(2, 100.0);
  ASSERT_TRUE(b.PlaceChunk({2, 5}, 40, 1).ok());
  ASSERT_TRUE(b.PlaceChunk({1, 0}, 30, 0).ok());
  ASSERT_TRUE(b.PlaceChunk({0, 1}, 20, 1).ok());
  ASSERT_TRUE(b.PlaceChunk({0, 0}, 10, 0).ok());

  const auto visit = [](const Cluster& c) {
    std::vector<array::Coordinates> order;
    c.ForEachChunk({}, {},
                   [&](const array::Coordinates& coords, NodeId, int64_t) {
                     order.push_back(coords);
                   });
    return order;
  };
  const auto order_a = visit(a);
  const auto order_b = visit(b);
  ASSERT_EQ(order_a.size(), 4u);
  EXPECT_EQ(order_a, order_b);
  auto sorted = order_a;
  std::sort(sorted.begin(), sorted.end(), array::CoordinatesLess);
  EXPECT_EQ(order_a, sorted);
}

// --- Differential tests of the placement table ---------------------------
//
// The oracle for every enumeration is the placement history itself: the
// records placed, sorted lexicographically, filtered by an inclusive box.

struct Visit {
  array::Coordinates coords;
  NodeId node;
  int64_t bytes;
  bool operator==(const Visit&) const = default;
};

// Inclusive box test; each bound constrains the dimensions it lists.
bool InBox(const array::Coordinates& c, const array::Coordinates& lo,
           const array::Coordinates& hi) {
  for (size_t d = 0; d < lo.size(); ++d) {
    if (c[d] < lo[d]) return false;
  }
  for (size_t d = 0; d < hi.size(); ++d) {
    if (c[d] > hi[d]) return false;
  }
  return true;
}

std::vector<Visit> Enumerate(const PlacementView& view,
                             const array::Coordinates& lo,
                             const array::Coordinates& hi) {
  std::vector<Visit> out;
  view.ForEachChunk(lo, hi,
                    [&](const array::Coordinates& c, NodeId n, int64_t b) {
                      out.push_back(Visit{c, n, b});
                    });
  return out;
}

enum class History { kTimeMajor, kReverseLex, kShuffled };

// Distinct chunk coordinates of rank `dims`, dimension 0 in [-6, 9] and the
// others in [-3, 4], in the requested insertion order.
std::vector<array::Coordinates> MakeHistory(util::Rng& rng, size_t dims,
                                            History order) {
  std::set<array::Coordinates> unique;
  const int target = 20 + static_cast<int>(rng.NextBounded(120));
  for (int i = 0; i < target; ++i) {
    array::Coordinates c(dims);
    c[0] = -6 + static_cast<int64_t>(rng.NextBounded(16));
    for (size_t d = 1; d < dims; ++d) {
      c[d] = -3 + static_cast<int64_t>(rng.NextBounded(8));
    }
    unique.insert(c);
  }
  std::vector<array::Coordinates> out(unique.begin(), unique.end());
  switch (order) {
    case History::kTimeMajor:
      // Sorted by dimension 0 only; the rest arrives in random order.
      for (size_t i = out.size(); i > 1; --i) {
        std::swap(out[i - 1], out[rng.NextBounded(i)]);
      }
      std::stable_sort(out.begin(), out.end(),
                       [](const array::Coordinates& a,
                          const array::Coordinates& b) { return a[0] < b[0]; });
      break;
    case History::kReverseLex:
      std::reverse(out.begin(), out.end());
      break;
    case History::kShuffled:
      for (size_t i = out.size(); i > 1; --i) {
        std::swap(out[i - 1], out[rng.NextBounded(i)]);
      }
      break;
  }
  return out;
}

// Places `history` on random nodes of `c` with random sizes; returns the
// placed records in lexicographic order.
std::vector<Visit> PlaceHistory(
    util::Rng& rng, Cluster& c,
    const std::vector<array::Coordinates>& history) {
  std::vector<Visit> placed;
  for (const auto& coords : history) {
    const auto node = static_cast<NodeId>(
        rng.NextBounded(static_cast<uint64_t>(c.num_nodes())));
    const auto bytes = static_cast<int64_t>(1 + rng.NextBounded(1000));
    EXPECT_TRUE(c.PlaceChunk(coords, bytes, node).ok());
    placed.push_back(Visit{coords, node, bytes});
  }
  std::sort(placed.begin(), placed.end(), [](const Visit& a, const Visit& b) {
    return array::CoordinatesLess(a.coords, b.coords);
  });
  return placed;
}

struct Box {
  array::Coordinates lo;
  array::Coordinates hi;
};

// Boxes of every shape the enumeration must handle.
std::vector<Box> MakeBoxes(util::Rng& rng, size_t dims,
                           const std::vector<Visit>& placed) {
  const auto uniform = [&](int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    rng.NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  };
  std::vector<Box> boxes;
  boxes.push_back(Box{{}, {}});  // Open on both sides.
  boxes.push_back(Box{array::Coordinates(dims, INT64_MIN / 2),
                      array::Coordinates(dims, INT64_MAX / 2)});
  // Single stored chunks.
  for (int i = 0; i < 4; ++i) {
    const auto& c = placed[rng.NextBounded(placed.size())].coords;
    boxes.push_back(Box{c, c});
  }
  // Empty box: a single position that holds no chunk.
  array::Coordinates missing(dims, 100);
  boxes.push_back(Box{missing, missing});
  // Dimension-0 ranges with no chunks: beyond both ends, and a gap.
  array::Coordinates lo(dims, INT64_MIN / 2);
  array::Coordinates hi(dims, INT64_MAX / 2);
  lo[0] = 10;
  hi[0] = 20;
  boxes.push_back(Box{lo, hi});
  lo[0] = -20;
  hi[0] = -7;
  boxes.push_back(Box{lo, hi});
  // Inverted boxes: in dimension 0, and in the last dimension.
  for (size_t d : {size_t{0}, dims - 1}) {
    Box inverted{array::Coordinates(dims, -2), array::Coordinates(dims, 3)};
    std::swap(inverted.lo[d], inverted.hi[d]);
    boxes.push_back(inverted);
  }
  // Random boxes, some partly outside the populated range.
  for (int i = 0; i < 24; ++i) {
    Box b{array::Coordinates(dims), array::Coordinates(dims)};
    for (size_t d = 0; d < dims; ++d) {
      const int64_t a = uniform(-8, 11);
      const int64_t w = uniform(0, 6);
      b.lo[d] = a;
      b.hi[d] = a + w;
    }
    boxes.push_back(b);
  }
  return boxes;
}

std::vector<Visit> Filter(const std::vector<Visit>& sorted, const Box& box) {
  std::vector<Visit> out;
  for (const Visit& v : sorted) {
    if (InBox(v.coords, box.lo, box.hi)) out.push_back(v);
  }
  return out;
}

TEST(PlacementTableTest, BoxEnumerationEqualsFilterOverSortedPlacement) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    util::Rng rng(seed);
    const size_t dims = 2 + seed % 2;
    const auto order = static_cast<History>(seed % 3);
    Cluster c(4, 100.0);
    const auto placed = PlaceHistory(rng, c, MakeHistory(rng, dims, order));
    ASSERT_EQ(Enumerate(c, {}, {}), placed) << "seed " << seed;
    const auto all = c.AllChunks();
    ASSERT_EQ(all.size(), placed.size());
    for (size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ((Visit{all[i].coords, all[i].node, all[i].bytes}), placed[i]);
    }
    for (NodeId n = 0; n < c.num_nodes(); ++n) {
      const auto on = c.ChunksOnNode(n);
      std::vector<Visit> expected;
      for (const Visit& v : placed) {
        if (v.node == n) expected.push_back(v);
      }
      ASSERT_EQ(on.size(), expected.size());
      for (size_t i = 0; i < on.size(); ++i) {
        EXPECT_EQ((Visit{on[i].coords, on[i].node, on[i].bytes}), expected[i]);
      }
    }
    for (const Box& box : MakeBoxes(rng, dims, placed)) {
      EXPECT_EQ(Enumerate(c, box.lo, box.hi), Filter(placed, box))
          << "seed " << seed << " box " << array::CoordinatesToString(box.lo)
          << ".." << array::CoordinatesToString(box.hi);
    }
    for (const Visit& v : placed) {
      NodeId node = kInvalidNode;
      int64_t bytes = 0;
      ASSERT_TRUE(c.Lookup(v.coords, &node, &bytes));
      EXPECT_EQ(node, v.node);
      EXPECT_EQ(bytes, v.bytes);
      EXPECT_FALSE(c.PlaceChunk(v.coords, 1, 0).ok()) << "duplicate accepted";
    }
    EXPECT_FALSE(c.Contains(array::Coordinates(dims, 100)));
  }
}

// The routing oracle: per chunk, the retained source replica if any, else
// the authoritative owner.
std::vector<Visit> RoutedOracle(const Cluster& c,
                                const std::vector<Visit>& placed) {
  std::vector<Visit> out;
  for (const Visit& v : placed) {
    const NodeId source = c.SourceReplicaOf(v.coords);
    out.push_back(Visit{v.coords,
                        source != kInvalidNode ? source : c.OwnerOf(v.coords),
                        v.bytes});
  }
  return out;
}

void ExpectViewRoutesLikeOracle(const Cluster& c,
                                const std::vector<Visit>& placed,
                                const std::vector<Box>& boxes,
                                const char* phase) {
  SCOPED_TRACE(phase);
  const reorg::DualResidencyView view(c);
  const auto oracle = RoutedOracle(c, placed);
  EXPECT_EQ(Enumerate(view, {}, {}), oracle);
  for (const Box& box : boxes) {
    EXPECT_EQ(Enumerate(view, box.lo, box.hi), Filter(oracle, box));
  }
  for (const Visit& v : oracle) {
    EXPECT_EQ(view.OwnerOf(v.coords), v.node);
    NodeId node = kInvalidNode;
    int64_t bytes = 0;
    ASSERT_TRUE(view.Lookup(v.coords, &node, &bytes));
    EXPECT_EQ(node, v.node);
    EXPECT_EQ(bytes, v.bytes);
    EXPECT_EQ(view.IsDualResident(v.coords),
              c.SourceReplicaOf(v.coords) != kInvalidNode);
  }
  const array::Coordinates missing(placed.front().coords.size(), 100);
  NodeId node = kInvalidNode;
  int64_t bytes = 0;
  EXPECT_FALSE(view.Lookup(missing, &node, &bytes));
  EXPECT_EQ(view.OwnerOf(missing), kInvalidNode);
}

// A plan moving a random subset of `placed` from the old nodes
// [0, first_new) to the new nodes, in random order.
MovePlan RandomPlan(util::Rng& rng, const std::vector<Visit>& placed,
                    NodeId first_new, int new_nodes) {
  std::vector<Visit> chosen;
  for (const Visit& v : placed) {
    if (rng.NextBounded(3) == 0) chosen.push_back(v);
  }
  if (chosen.empty()) chosen.push_back(placed.front());
  for (size_t i = chosen.size(); i > 1; --i) {
    std::swap(chosen[i - 1], chosen[rng.NextBounded(i)]);
  }
  MovePlan plan;
  for (const Visit& v : chosen) {
    const auto to = static_cast<NodeId>(
        first_new + static_cast<NodeId>(
                        rng.NextBounded(static_cast<uint64_t>(new_nodes))));
    plan.Add(ChunkMove{v.coords, v.bytes, v.node, to});
  }
  return plan;
}

// Advances and commits increments of about a third of the plan each until
// `commits` have landed or the plan is drained.
void CommitSome(Cluster& c, int commits, int64_t budget) {
  for (int i = 0; i < commits && c.pending_reorg_chunks() > 0; ++i) {
    ASSERT_TRUE(c.AdvanceIncrement(budget).ok());
    ASSERT_TRUE(c.CommitIncrement().ok());
  }
}

TEST(PlacementTableTest, DualResidencyRoutingEqualsPerChunkSourceReplica) {
  enum class Ending { kFinish, kRollback, kAbort, kReroute };
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed);
    const size_t dims = 2 + seed % 2;
    Cluster c(3, 100.0);
    auto placed = PlaceHistory(
        rng, c, MakeHistory(rng, dims, static_cast<History>(seed % 3)));
    const auto boxes = MakeBoxes(rng, dims, placed);
    const NodeId first_new = c.AddNodes(3);
    const MovePlan plan = RandomPlan(rng, placed, first_new, 3);
    const int64_t budget = std::max<int64_t>(1, plan.TotalBytes() / 3);
    const auto before = RoutedOracle(c, placed);

    ExpectViewRoutesLikeOracle(c, placed, boxes, "quiesced");
    ASSERT_TRUE(c.BeginApply(plan).ok());
    ExpectViewRoutesLikeOracle(c, placed, boxes, "staged");
    // Mid-reorg the view is pinned to the pre-reorg placement.
    EXPECT_EQ(Enumerate(reorg::DualResidencyView(c), {}, {}), before);
    CommitSome(c, 1, budget);
    ExpectViewRoutesLikeOracle(c, placed, boxes, "partial commit");
    EXPECT_EQ(Enumerate(reorg::DualResidencyView(c), {}, {}), before);

    switch (static_cast<Ending>(seed % 4)) {
      case Ending::kFinish:
        CommitSome(c, 1 << 20, budget);
        ASSERT_TRUE(c.FinishApply().ok());
        break;
      case Ending::kRollback:
        ASSERT_TRUE(c.AdvanceIncrement(budget).ok() ||
                    c.pending_reorg_chunks() == 0);
        ASSERT_TRUE(c.RollbackReorg().ok());
        EXPECT_EQ(Enumerate(c, {}, {}), before) << "rollback is not exact";
        break;
      case Ending::kAbort:
        c.AbortReorg();
        break;
      case Ending::kReroute: {
        const auto stats = c.RerouteDeadDestination(
            first_new, [&](const ChunkMove&) { return first_new + 1; });
        ASSERT_TRUE(stats.ok());
        EXPECT_FALSE(c.ReorgTargetsNode(first_new));
        ExpectViewRoutesLikeOracle(c, placed, boxes, "rerouted");
        EXPECT_EQ(Enumerate(reorg::DualResidencyView(c), {}, {}), before);
        CommitSome(c, 1 << 20, budget);
        ASSERT_TRUE(c.FinishApply().ok());
        break;
      }
    }
    EXPECT_FALSE(c.reorg_active());
    for (const Visit& v : placed) {
      EXPECT_EQ(c.SourceReplicaOf(v.coords), kInvalidNode);
    }
    ExpectViewRoutesLikeOracle(c, placed, boxes, "released");
    EXPECT_EQ(Enumerate(reorg::DualResidencyView(c), {}, {}),
              Enumerate(c, {}, {}));
  }
}

TEST(PlacementTableTest, CopiedClusterStaysIndependent) {
  util::Rng rng(7);
  Cluster original(2, 100.0);
  const auto placed = PlaceHistory(
      rng, original, MakeHistory(rng, 2, History::kShuffled));
  const NodeId first_new = original.AddNodes(2);
  const MovePlan plan = RandomPlan(rng, placed, first_new, 2);
  const auto snapshot = Enumerate(original, {}, {});

  // Mutating the copy leaves the original untouched.
  Cluster copy = original;
  ASSERT_TRUE(copy.PlaceChunk({-50, 0}, 5, 0).ok());
  ASSERT_TRUE(copy.PlaceChunk({50, 0}, 5, 1).ok());
  ASSERT_TRUE(copy.BeginApply(plan).ok());
  CommitSome(copy, 1, 1);
  EXPECT_EQ(Enumerate(original, {}, {}), snapshot);
  EXPECT_FALSE(original.Contains({-50, 0}));
  EXPECT_FALSE(original.reorg_active());
  for (const Visit& v : placed) {
    EXPECT_EQ(original.SourceReplicaOf(v.coords), kInvalidNode);
  }
  EXPECT_EQ(copy.num_chunks(), original.num_chunks() + 2);
  EXPECT_EQ(Enumerate(copy, {}, {}).front().coords,
            (array::Coordinates{-50, 0}));

  // Mutating the original leaves the copy untouched.
  const auto copy_snapshot = Enumerate(copy, {}, {});
  const auto copy_routed = Enumerate(reorg::DualResidencyView(copy), {}, {});
  ASSERT_TRUE(original.PlaceChunk({-60, 0}, 5, 0).ok());
  ASSERT_TRUE(original.Apply(plan).ok());
  EXPECT_EQ(Enumerate(copy, {}, {}), copy_snapshot);
  EXPECT_EQ(Enumerate(reorg::DualResidencyView(copy), {}, {}), copy_routed);
  EXPECT_FALSE(copy.Contains({-60, 0}));
  EXPECT_TRUE(copy.Contains({-50, 0}));
}

TEST(MovePlanTest, Accounting) {
  MovePlan plan;
  EXPECT_TRUE(plan.empty());
  plan.Add(ChunkMove{{0}, 100, 0, 2});
  plan.Add(ChunkMove{{1}, 50, 1, 3});
  EXPECT_EQ(plan.num_chunks(), 2);
  EXPECT_EQ(plan.TotalBytes(), 150);
  EXPECT_TRUE(plan.OnlyToNodesAtOrAbove(2));
  EXPECT_FALSE(plan.OnlyToNodesAtOrAbove(3));
}

}  // namespace
}  // namespace arraydb::cluster
