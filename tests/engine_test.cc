// Unit tests for the distributed query timing model: makespan, halo
// exchange, and the balance/clustering effects the paper's evaluation
// depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "array/schema.h"
#include "cluster/cluster.h"
#include "exec/engine.h"
#include "reorg/dual_residency.h"
#include "util/rng.h"
#include "util/units.h"

namespace arraydb::exec {
namespace {

using array::ArraySchema;
using array::AttrType;
using array::AttributeDesc;
using array::Coordinates;
using array::DimensionDesc;

ArraySchema GridSchema() {
  return ArraySchema("g",
                     {DimensionDesc{"x", 0, 7, 1, false},
                      DimensionDesc{"y", 0, 7, 1, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
}

int64_t Gb(double gb) { return static_cast<int64_t>(gb * util::kGiB); }

QuerySpec ScanAll() {
  QuerySpec q;
  q.name = "scan";
  q.kind = QueryKind::kFilter;
  q.region = ChunkRegion::All(2);
  q.cpu_min_per_gb = 0.1;
  return q;
}

TEST(QueryEngineTest, EmptyClusterCostsOnlyStartup) {
  cluster::Cluster cluster(2, 100.0);
  QueryEngine engine;
  const auto cost = engine.Simulate(ScanAll(), cluster, GridSchema());
  EXPECT_DOUBLE_EQ(cost.minutes, engine.params().startup_minutes);
  EXPECT_EQ(cost.chunks_touched, 0);
}

TEST(QueryEngineTest, BalancedPlacementBeatsConcentrated) {
  const ArraySchema schema = GridSchema();
  QueryEngine engine;
  // Concentrated: all 8 chunks on node 0.
  cluster::Cluster conc(4, 100.0);
  // Balanced: 2 chunks per node.
  cluster::Cluster bal(4, 100.0);
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(conc.PlaceChunk({i, 0}, Gb(1.0), 0).ok());
    ASSERT_TRUE(bal.PlaceChunk({i, 0}, Gb(1.0),
                               static_cast<cluster::NodeId>(i % 4))
                    .ok());
  }
  const auto c = engine.Simulate(ScanAll(), conc, schema);
  const auto b = engine.Simulate(ScanAll(), bal, schema);
  EXPECT_NEAR(c.makespan_minutes, b.makespan_minutes * 4.0, 1e-9)
      << "makespan must reflect parallelism";
  EXPECT_DOUBLE_EQ(c.scanned_gb, b.scanned_gb);
}

TEST(QueryEngineTest, RegionRestrictsScan) {
  const ArraySchema schema = GridSchema();
  cluster::Cluster cluster(2, 100.0);
  for (int64_t x = 0; x < 8; ++x) {
    for (int64_t y = 0; y < 8; ++y) {
      ASSERT_TRUE(cluster
                      .PlaceChunk({x, y}, Gb(0.1),
                                  static_cast<cluster::NodeId>((x + y) % 2))
                      .ok());
    }
  }
  QuerySpec q = ScanAll();
  q.region.lo = {0, 0};
  q.region.hi = {1, 1};  // 4 of 64 chunks.
  QueryEngine engine;
  const auto cost = engine.Simulate(q, cluster, schema);
  EXPECT_EQ(cost.chunks_touched, 4);
  EXPECT_NEAR(cost.scanned_gb, 0.4, 1e-6);
}

TEST(QueryEngineTest, DimJoinReadsBothInputs) {
  const ArraySchema schema = GridSchema();
  cluster::Cluster cluster(2, 100.0);
  ASSERT_TRUE(cluster.PlaceChunk({0, 0}, Gb(1.0), 0).ok());
  QueryEngine engine;
  QuerySpec scan = ScanAll();
  QuerySpec join = ScanAll();
  join.kind = QueryKind::kDimJoin;
  const auto s = engine.Simulate(scan, cluster, schema);
  const auto j = engine.Simulate(join, cluster, schema);
  EXPECT_NEAR(j.scanned_gb, 2.0 * s.scanned_gb, 1e-9);
  EXPECT_GT(j.makespan_minutes, s.makespan_minutes);
}

TEST(QueryEngineTest, WindowChargesRemoteNeighborsOnly) {
  const ArraySchema schema = GridSchema();
  QueryEngine engine;
  QuerySpec q = ScanAll();
  q.kind = QueryKind::kWindow;
  q.halo_fraction = 0.5;

  // Clustered: left half on node 0, right half on node 1 -> only the
  // 8-chunk seam is remote.
  cluster::Cluster clustered(2, 100.0);
  // Scattered: checkerboard -> every neighbor is remote.
  cluster::Cluster scattered(2, 100.0);
  for (int64_t x = 0; x < 8; ++x) {
    for (int64_t y = 0; y < 8; ++y) {
      ASSERT_TRUE(clustered
                      .PlaceChunk({x, y}, Gb(0.1),
                                  static_cast<cluster::NodeId>(x < 4 ? 0 : 1))
                      .ok());
      ASSERT_TRUE(scattered
                      .PlaceChunk({x, y}, Gb(0.1),
                                  static_cast<cluster::NodeId>((x + y) % 2))
                      .ok());
    }
  }
  const auto c = engine.Simulate(q, clustered, schema);
  const auto s = engine.Simulate(q, scattered, schema);
  // Fetches are deduplicated per (reader node, neighbor chunk): the seam
  // costs 16 fetches when clustered; on the checkerboard every chunk is
  // pulled once by the opposite node (64 fetches).
  EXPECT_EQ(c.remote_neighbor_fetches, 16);
  EXPECT_EQ(s.remote_neighbor_fetches, 64);
  EXPECT_GT(s.minutes, c.minutes)
      << "scattering contiguous chunks must slow spatial queries";
}

TEST(QueryEngineTest, KnnPrefersClusteredPlacement) {
  const ArraySchema schema = GridSchema();
  QueryEngine engine;
  QuerySpec q = ScanAll();
  q.kind = QueryKind::kKnn;
  q.knn_samples = 32;
  q.halo_fraction = 0.3;
  q.seed = 5;

  cluster::Cluster clustered(2, 100.0);
  cluster::Cluster scattered(2, 100.0);
  for (int64_t x = 0; x < 8; ++x) {
    for (int64_t y = 0; y < 8; ++y) {
      ASSERT_TRUE(clustered
                      .PlaceChunk({x, y}, Gb(0.1),
                                  static_cast<cluster::NodeId>(x < 4 ? 0 : 1))
                      .ok());
      ASSERT_TRUE(scattered
                      .PlaceChunk({x, y}, Gb(0.1),
                                  static_cast<cluster::NodeId>((x + y) % 2))
                      .ok());
    }
  }
  const auto c = engine.Simulate(q, clustered, schema);
  const auto s = engine.Simulate(q, scattered, schema);
  EXPECT_LT(c.remote_neighbor_fetches, s.remote_neighbor_fetches);
  EXPECT_LT(c.minutes, s.minutes);
}

TEST(QueryEngineTest, KnnSamplingIsDeterministic) {
  const ArraySchema schema = GridSchema();
  cluster::Cluster cluster(2, 100.0);
  for (int64_t x = 0; x < 8; ++x) {
    ASSERT_TRUE(cluster.PlaceChunk({x, 0}, Gb(0.2 + 0.1 * (x % 3)),
                                   static_cast<cluster::NodeId>(x % 2))
                    .ok());
  }
  QuerySpec q = ScanAll();
  q.kind = QueryKind::kKnn;
  q.seed = 11;
  QueryEngine engine;
  const auto a = engine.Simulate(q, cluster, schema);
  const auto b = engine.Simulate(q, cluster, schema);
  EXPECT_DOUBLE_EQ(a.minutes, b.minutes);
  EXPECT_EQ(a.remote_neighbor_fetches, b.remote_neighbor_fetches);
}

TEST(QueryEngineTest, SortPaysCoordinatorMerge) {
  const ArraySchema schema = GridSchema();
  cluster::Cluster cluster(2, 100.0);
  ASSERT_TRUE(cluster.PlaceChunk({0, 0}, Gb(2.0), 0).ok());
  QueryEngine engine;
  QuerySpec scan = ScanAll();
  QuerySpec sort = ScanAll();
  sort.kind = QueryKind::kSortQuantile;
  sort.selectivity = 0.5;
  const auto sc = engine.Simulate(scan, cluster, schema);
  const auto so = engine.Simulate(sort, cluster, schema);
  EXPECT_GT(so.network_minutes, 0.0);
  EXPECT_GT(so.minutes, sc.minutes);
}

TEST(QueryEngineTest, KMeansIterationsMultiplyCpu) {
  const ArraySchema schema = GridSchema();
  cluster::Cluster cluster(2, 100.0);
  ASSERT_TRUE(cluster.PlaceChunk({0, 0}, Gb(1.0), 0).ok());
  QueryEngine engine;
  QuerySpec one = ScanAll();
  one.kind = QueryKind::kKMeans;
  one.iterations = 1;
  QuerySpec ten = one;
  ten.iterations = 10;
  const auto c1 = engine.Simulate(one, cluster, schema);
  const auto c10 = engine.Simulate(ten, cluster, schema);
  EXPECT_GT(c10.minutes, c1.minutes * 3.0);
}

TEST(QueryEngineTest, AttrJoinBroadcastsSmallSide) {
  const ArraySchema schema = GridSchema();
  cluster::Cluster cluster(4, 100.0);
  ASSERT_TRUE(cluster.PlaceChunk({0, 0}, Gb(1.0), 0).ok());
  QueryEngine engine;
  QuerySpec q = ScanAll();
  q.kind = QueryKind::kAttrJoin;
  q.small_side_gb = 0.024;
  const auto cost = engine.Simulate(q, cluster, schema);
  EXPECT_NEAR(cost.network_minutes,
              0.024 * engine.params().net_min_per_gb, 1e-9);
}

// --- Differential test: box-walk Simulate vs the full-enumeration oracle --
//
// The oracle placement answers Simulate the way the engine once gathered
// chunks itself: enumerate every stored chunk in insertion order, keep the
// ones the query's region Contains, and sort them. It ignores the box
// Simulate asks for, so any chunk the box walk drops, adds or reorders
// changes a price.
class FullEnumerationOracle final : public cluster::PlacementView {
 public:
  FullEnumerationOracle(std::vector<cluster::ChunkRecord> records,
                        int num_nodes, ChunkRegion region)
      : records_(std::move(records)),
        num_nodes_(num_nodes),
        region_(std::move(region)) {
    for (const auto& rec : records_) by_coords_.emplace(rec.coords, rec);
  }

  int num_nodes() const override { return num_nodes_; }

  cluster::NodeId OwnerOf(const Coordinates& coords) const override {
    const auto it = by_coords_.find(coords);
    return it == by_coords_.end() ? cluster::kInvalidNode : it->second.node;
  }

  bool Lookup(const Coordinates& coords, cluster::NodeId* node,
              int64_t* bytes) const override {
    const auto it = by_coords_.find(coords);
    if (it == by_coords_.end()) return false;
    *node = it->second.node;
    *bytes = it->second.bytes;
    return true;
  }

  void ForEachChunk(const Coordinates&, const Coordinates&,
                    const std::function<void(const Coordinates&,
                                             cluster::NodeId, int64_t)>& fn)
      const override {
    std::vector<cluster::ChunkRecord> relevant;
    for (const auto& rec : records_) {
      if (region_.Contains(rec.coords)) relevant.push_back(rec);
    }
    std::sort(relevant.begin(), relevant.end(),
              [](const cluster::ChunkRecord& a, const cluster::ChunkRecord& b) {
                return array::CoordinatesLess(a.coords, b.coords);
              });
    for (const auto& rec : relevant) fn(rec.coords, rec.node, rec.bytes);
  }

 private:
  std::vector<cluster::ChunkRecord> records_;  // Insertion order.
  std::map<Coordinates, cluster::ChunkRecord> by_coords_;
  int num_nodes_;
  ChunkRegion region_;
};

ArraySchema SchemaOfRank(size_t dims) {
  std::vector<DimensionDesc> d;
  for (size_t i = 0; i < dims; ++i) {
    const std::string name(1, static_cast<char>('t' + i));
    d.push_back(DimensionDesc{name, 0, 7, 1, false});
  }
  return ArraySchema("r", d, {AttributeDesc{"v", AttrType::kDouble}});
}

// Regions of every shape: the All sentinels, single chunks, positions that
// hold nothing, inverted boxes and random sub-boxes.
std::vector<ChunkRegion> RandomRegions(util::Rng& rng, size_t dims,
                                       const std::vector<Coordinates>& stored) {
  std::vector<ChunkRegion> regions{ChunkRegion::All(static_cast<int>(dims))};
  for (int i = 0; i < 3; ++i) {
    const Coordinates& c = stored[rng.NextBounded(stored.size())];
    regions.push_back(ChunkRegion{c, c});
  }
  regions.push_back(
      ChunkRegion{Coordinates(dims, 50), Coordinates(dims, 60)});
  regions.push_back(ChunkRegion{Coordinates(dims, 3), Coordinates(dims, -3)});
  for (int i = 0; i < 6; ++i) {
    ChunkRegion r{Coordinates(dims), Coordinates(dims)};
    for (size_t d = 0; d < dims; ++d) {
      r.lo[d] = -6 + static_cast<int64_t>(rng.NextBounded(12));
      r.hi[d] = r.lo[d] + static_cast<int64_t>(rng.NextBounded(8));
    }
    regions.push_back(r);
  }
  return regions;
}

void ExpectBitEqual(const QueryCost& a, const QueryCost& b) {
  EXPECT_EQ(a.minutes, b.minutes);
  EXPECT_EQ(a.makespan_minutes, b.makespan_minutes);
  EXPECT_EQ(a.network_minutes, b.network_minutes);
  EXPECT_EQ(a.scanned_gb, b.scanned_gb);
  EXPECT_EQ(a.chunks_touched, b.chunks_touched);
  EXPECT_EQ(a.remote_neighbor_fetches, b.remote_neighbor_fetches);
}

// Prices every QueryKind over every region through `placement` and through
// the oracle built from its per-chunk routed lookups.
void ExpectSimulateMatchesOracle(util::Rng& rng,
                                 const cluster::PlacementView& placement,
                                 const std::vector<Coordinates>& history,
                                 const ArraySchema& schema) {
  std::vector<cluster::ChunkRecord> records;
  for (const auto& c : history) {
    cluster::ChunkRecord rec{c, 0, cluster::kInvalidNode};
    ASSERT_TRUE(placement.Lookup(c, &rec.node, &rec.bytes));
    records.push_back(rec);
  }
  const QueryEngine engine;
  const size_t dims = static_cast<size_t>(schema.num_dims());
  for (const ChunkRegion& region : RandomRegions(rng, dims, history)) {
    const FullEnumerationOracle oracle(records, placement.num_nodes(),
                                       region);
    for (const QueryKind kind :
         {QueryKind::kFilter, QueryKind::kSortQuantile, QueryKind::kDimJoin,
          QueryKind::kAttrJoin, QueryKind::kGroupBy, QueryKind::kWindow,
          QueryKind::kKMeans, QueryKind::kKnn}) {
      QuerySpec q;
      q.kind = kind;
      q.region = region;
      q.cpu_min_per_gb = 0.07;
      q.selectivity = 0.3;
      q.iterations = 4;
      q.knn_samples = 24;
      q.halo_fraction = 0.2;
      q.small_side_gb = 0.01;
      q.seed = rng.NextUint64();
      SCOPED_TRACE(QueryKindName(kind));
      ExpectBitEqual(engine.Simulate(q, placement, schema),
                     engine.Simulate(q, oracle, schema));
    }
  }
}

TEST(QueryEngineTest, BoxWalkPricesBitEqualToFullEnumeration) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    const size_t dims = 2 + seed % 2;
    const ArraySchema schema = SchemaOfRank(dims);
    cluster::Cluster cluster(3, 100.0);
    // Shuffled history with negative coordinates.
    std::set<Coordinates> unique;
    for (int i = 0; i < 150; ++i) {
      Coordinates c(dims);
      for (size_t d = 0; d < dims; ++d) {
        c[d] = -5 + static_cast<int64_t>(rng.NextBounded(11));
      }
      unique.insert(c);
    }
    std::vector<Coordinates> history(unique.begin(), unique.end());
    for (size_t i = history.size(); i > 1; --i) {
      std::swap(history[i - 1], history[rng.NextBounded(i)]);
    }
    for (const auto& c : history) {
      ASSERT_TRUE(cluster
                      .PlaceChunk(c, Gb(0.01 * (1 + rng.NextBounded(40))),
                                  static_cast<cluster::NodeId>(
                                      rng.NextBounded(3)))
                      .ok());
    }
    {
      SCOPED_TRACE("quiesced");
      ExpectSimulateMatchesOracle(rng, cluster, history, schema);
    }

    // Mid-reorg: a plan moving about half the chunks to new nodes, with
    // some increments committed; prices go through the routing view.
    const cluster::NodeId first_new = cluster.AddNodes(2);
    cluster::MovePlan plan;
    for (const auto& rec : cluster.AllChunks()) {
      if (rng.NextBounded(2) == 0) {
        plan.Add(cluster::ChunkMove{
            rec.coords, rec.bytes, rec.node,
            first_new + static_cast<cluster::NodeId>(rng.NextBounded(2))});
      }
    }
    ASSERT_TRUE(cluster.BeginApply(plan).ok());
    for (int i = 0; i < 2 && cluster.pending_reorg_chunks() > 0; ++i) {
      ASSERT_TRUE(cluster.AdvanceIncrement(plan.TotalBytes() / 4).ok());
      ASSERT_TRUE(cluster.CommitIncrement().ok());
    }
    {
      SCOPED_TRACE("mid-reorg");
      const reorg::DualResidencyView view(cluster);
      ExpectSimulateMatchesOracle(rng, view, history, schema);
    }
  }
}

}  // namespace
}  // namespace arraydb::exec
