// Quickstart: the paper's Figure 1 array, partitioned across an elastic
// cluster.
//
// Walks the core public API end to end:
//   1. declare a SciDB-style schema and store some cells,
//   2. place its chunks on a 2-node cluster with a K-d Tree partitioner,
//   3. scale out to 3 nodes and watch the incremental reorganization,
//   4. verify that lookups agree with the cluster afterwards.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "array/array.h"
#include "cluster/cluster.h"
#include "core/elastic_engine.h"
#include "core/partitioner_factory.h"
#include "reorg/reorg_engine.h"
#include "util/strings.h"

using namespace arraydb;

int main() {
  // --- 1. The Figure 1 array: A<i:int32, j:float>[x=1:4,2, y=1:4,2]. ---
  array::ArraySchema schema(
      "A",
      {array::DimensionDesc{"x", 1, 4, 2, false},
       array::DimensionDesc{"y", 1, 4, 2, false}},
      {array::AttributeDesc{"i", array::AttrType::kInt32},
       array::AttributeDesc{"j", array::AttrType::kFloat}});
  std::printf("Array declaration: %s\n", schema.ToString().c_str());

  array::Array a(schema);
  // The six occupied cells of Figure 1: dense center, sparse edges.
  struct Point {
    int64_t x, y;
    double i, j;
  };
  const Point points[] = {{1, 1, 1, 1.3}, {3, 2, 9, 2.7}, {3, 3, 4, 3.5},
                          {4, 3, 3, 4.2}, {3, 4, 7, 7.2}, {4, 4, 6, 2.5}};
  for (const auto& p : points) {
    const auto status = a.InsertCell({p.x, p.y}, {p.i, p.j});
    if (!status.ok()) {
      std::printf("insert failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::printf("Stored %lld cells in %lld non-empty chunks (%lld bytes)\n\n",
              static_cast<long long>(a.total_cells()),
              static_cast<long long>(a.num_chunks()),
              static_cast<long long>(a.total_bytes()));

  // --- 2. Place the chunks on a 2-node cluster. ---
  core::ElasticEngine engine(
      core::MakePartitioner(core::PartitionerKind::kKdTree, schema,
                            /*initial_nodes=*/2, /*node_capacity_gb=*/1.0),
      /*initial_nodes=*/2, /*node_capacity_gb=*/1.0);
  const auto insert = engine.IngestBatch(a.ChunkInfos());
  std::printf("Ingested %lld chunks in %.3f simulated minutes\n",
              static_cast<long long>(insert.chunks), insert.minutes);
  for (const auto& rec : engine.cluster().AllChunks()) {
    std::printf("  chunk %-8s -> node %d  (%lld bytes)\n",
                array::CoordinatesToString(rec.coords).c_str(), rec.node,
                static_cast<long long>(rec.bytes));
  }

  // --- 3. Scale out: one new node joins; only it receives data. ---
  // The partitioner plans the moves; the incremental reorganization engine
  // migrates them in bandwidth-budgeted increments.
  std::printf("\nScaling out to 3 nodes...\n");
  const core::ScaleOutPrep prep = engine.PrepareScaleOut(1);
  reorg::IncrementalReorgEngine migration(&engine.mutable_cluster(),
                                          &engine.cost_model());
  util::Status status = migration.Begin(prep.plan, prep.first_new_node);
  if (status.ok()) status = migration.Drain();
  if (!status.ok()) {
    std::printf("reorganization failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const reorg::ReorgSummary& reorg = migration.summary();
  engine.RecordReorgMinutes(reorg.work_minutes);
  std::printf(
      "Reorganization moved %lld chunks (%.4f GB) in %.3f simulated "
      "minutes;\nincremental (data shipped only to the new node): %s\n",
      static_cast<long long>(reorg.chunks_moved), reorg.moved_gb,
      reorg.work_minutes, reorg.only_to_new_nodes ? "yes" : "NO");
  for (const auto& rec : engine.cluster().AllChunks()) {
    std::printf("  chunk %-8s -> node %d\n",
                array::CoordinatesToString(rec.coords).c_str(), rec.node);
  }

  // --- 4. Locate() agrees with the cluster for every chunk. ---
  bool all_agree = true;
  for (const auto& rec : engine.cluster().AllChunks()) {
    if (engine.partitioner().Locate(rec.coords) != rec.node) {
      all_agree = false;
    }
  }
  std::printf("\nPartitioning table agrees with cluster placement: %s\n",
              all_agree ? "yes" : "NO");
  std::printf("Per-node loads (bytes):");
  for (int n = 0; n < engine.cluster().num_nodes(); ++n) {
    std::printf(" %lld", static_cast<long long>(engine.cluster().NodeBytes(n)));
  }
  std::printf("\nLoad RSD: %.1f%%\n", engine.cluster().LoadRsd() * 100.0);
  return all_agree ? 0 : 1;
}
