// Property sweep over every partitioner (TEST_P): invariants that must hold
// for all eight schemes regardless of data distribution —
//   * placement always targets a live node, and Locate agrees with the
//     cluster after every insert and scale-out;
//   * scale-out conserves all chunks and bytes;
//   * schemes advertising incremental scale-out (Table 1) only ship data to
//     newly added nodes, verified against the substrate;
//   * placement is deterministic across identical runs;
//   * fine-grained schemes balance chunk counts; skew-aware schemes reduce
//     the maximum node load when splitting under skew.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "array/schema.h"
#include "cluster/cluster.h"
#include "core/elastic_engine.h"
#include "core/partitioner_factory.h"
#include "reorg/reorg_engine.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace arraydb::core {
namespace {

using array::ArraySchema;
using array::AttrType;
using array::AttributeDesc;
using array::ChunkInfo;
using array::Coordinates;
using array::DimensionDesc;

enum class Skew { kUniform, kZipf };

// Stages a scale-out and drains its plan through the incremental
// reorganization engine — the runner's migration path.
reorg::ReorgSummary ScaleOutAndDrain(ElasticEngine* engine, int nodes) {
  const ScaleOutPrep prep = engine->PrepareScaleOut(nodes);
  reorg::IncrementalReorgEngine reorg(&engine->mutable_cluster(),
                                      &engine->cost_model());
  EXPECT_TRUE(reorg.Begin(prep.plan, prep.first_new_node).ok());
  EXPECT_TRUE(reorg.Drain().ok());
  engine->RecordReorgMinutes(reorg.summary().work_minutes);
  return reorg.summary();
}

struct SweepCase {
  PartitionerKind kind;
  Skew skew;
};

std::string CaseName(const testing::TestParamInfo<SweepCase>& info) {
  std::string name = PartitionerKindName(info.param.kind);
  for (auto& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  name += info.param.skew == Skew::kUniform ? "_uniform" : "_zipf";
  return name;
}

ArraySchema SweepSchema() {
  // 3-D grid shaped like the workloads: time x lon x lat.
  return ArraySchema("sweep",
                     {DimensionDesc{"t", 0, 11, 1, false},
                      DimensionDesc{"x", 0, 9, 1, false},
                      DimensionDesc{"y", 0, 7, 1, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
}

// Generates one time-slice batch with the requested skew. Bytes are sized
// so a 2-node x 0.02 GB cluster needs several scale-outs; `scale`
// multiplies chunk sizes for tests that need to fill more nodes.
std::vector<ChunkInfo> MakeBatch(int64_t t, Skew skew, util::Rng& rng,
                                 int64_t scale = 1) {
  std::vector<ChunkInfo> batch;
  for (int64_t x = 0; x < 10; ++x) {
    for (int64_t y = 0; y < 8; ++y) {
      ChunkInfo info;
      info.coords = {t, x, y};
      int64_t bytes;
      if (skew == Skew::kUniform) {
        bytes = 30000 + static_cast<int64_t>(rng.NextUniform(0, 5000));
      } else {
        // A hot corner holds most of the data (ships near a port).
        const bool hot = x <= 1 && y <= 1;
        bytes = hot ? 500000 + static_cast<int64_t>(rng.NextUniform(0, 100000))
                    : 200 + static_cast<int64_t>(rng.NextUniform(0, 400));
      }
      info.bytes = bytes * scale;
      info.cell_count = info.bytes / 8;
      batch.push_back(std::move(info));
    }
  }
  return batch;
}

class PartitionerSweep : public testing::TestWithParam<SweepCase> {};

// Runs the cyclic workload (insert, scale out every 4 cycles) and checks
// cross-cutting invariants at every step.
TEST_P(PartitionerSweep, InvariantsAcrossLifecycle) {
  const auto& param = GetParam();
  const ArraySchema schema = SweepSchema();
  const double capacity_gb = 0.02;
  ElasticEngine engine(MakePartitioner(param.kind, schema, 2, capacity_gb), 2,
                       capacity_gb);
  util::Rng rng(99);

  int64_t expected_chunks = 0;
  int64_t expected_bytes = 0;
  for (int64_t t = 0; t < 12; ++t) {
    const auto batch = MakeBatch(t, param.skew, rng);
    for (const auto& c : batch) expected_bytes += c.bytes;
    expected_chunks += static_cast<int64_t>(batch.size());

    const auto insert = engine.IngestBatch(batch);
    EXPECT_EQ(insert.chunks, static_cast<int64_t>(batch.size()));
    EXPECT_GT(insert.minutes, 0.0);

    // Locate must agree with the substrate for every chunk just inserted.
    for (const auto& c : batch) {
      EXPECT_EQ(engine.partitioner().Locate(c.coords),
                engine.cluster().OwnerOf(c.coords));
    }

    if (t == 3 || t == 7) {
      const auto reorg = ScaleOutAndDrain(&engine, 2);
      if (engine.partitioner().IsIncremental()) {
        EXPECT_TRUE(reorg.only_to_new_nodes)
            << engine.partitioner().name()
            << " advertises incremental scale-out but moved data to "
               "preexisting nodes";
      }
      // Conservation.
      EXPECT_EQ(engine.cluster().num_chunks(), expected_chunks);
      EXPECT_EQ(engine.cluster().TotalBytes(), expected_bytes);
      // Table agreement after reorganization.
      for (const auto& rec : engine.cluster().AllChunks()) {
        EXPECT_EQ(engine.partitioner().Locate(rec.coords), rec.node);
      }
    }
  }
  EXPECT_EQ(engine.cluster().num_nodes(), 6);
  EXPECT_EQ(engine.cluster().num_chunks(), expected_chunks);
  EXPECT_EQ(engine.cluster().TotalBytes(), expected_bytes);

  // Every node id returned anywhere is valid; all loads non-negative.
  for (int n = 0; n < engine.cluster().num_nodes(); ++n) {
    EXPECT_GE(engine.cluster().NodeBytes(n), 0);
  }
}

TEST_P(PartitionerSweep, PlacementIsDeterministic) {
  const auto& param = GetParam();
  const ArraySchema schema = SweepSchema();
  std::map<Coordinates, NodeId> first_run;
  for (int run = 0; run < 2; ++run) {
    ElasticEngine engine(MakePartitioner(param.kind, schema, 2, 0.02), 2,
                         0.02);
    util::Rng rng(7);
    for (int64_t t = 0; t < 6; ++t) {
      engine.IngestBatch(MakeBatch(t, param.skew, rng));
      if (t == 2) ScaleOutAndDrain(&engine, 2);
    }
    if (run == 0) {
      for (const auto& rec : engine.cluster().AllChunks()) {
        first_run[rec.coords] = rec.node;
      }
    } else {
      for (const auto& rec : engine.cluster().AllChunks()) {
        EXPECT_EQ(first_run.at(rec.coords), rec.node);
      }
    }
  }
}

TEST_P(PartitionerSweep, ScaleOutUsesNewNodes) {
  // After a scale-out with continued inserts, new nodes must eventually
  // hold data (no scheme may strand them). Chunks are scaled 4x so that
  // even Append — which uses new hosts only once its predecessors fill —
  // reaches them within the 12 cycles.
  const auto& param = GetParam();
  const ArraySchema schema = SweepSchema();
  ElasticEngine engine(MakePartitioner(param.kind, schema, 2, 0.02), 2, 0.02);
  util::Rng rng(3);
  for (int64_t t = 0; t < 4; ++t) {
    engine.IngestBatch(MakeBatch(t, param.skew, rng, 4));
  }
  ScaleOutAndDrain(&engine, 2);
  for (int64_t t = 4; t < 12; ++t) {
    engine.IngestBatch(MakeBatch(t, param.skew, rng, 4));
  }
  int populated = 0;
  for (int n = 2; n < 4; ++n) {
    if (engine.cluster().NodeBytes(n) > 0) ++populated;
  }
  EXPECT_GT(populated, 0) << engine.partitioner().name()
                          << " never used its new nodes";
}

INSTANTIATE_TEST_SUITE_P(
    AllPartitioners, PartitionerSweep,
    testing::Values(
        SweepCase{PartitionerKind::kAppend, Skew::kUniform},
        SweepCase{PartitionerKind::kAppend, Skew::kZipf},
        SweepCase{PartitionerKind::kConsistentHash, Skew::kUniform},
        SweepCase{PartitionerKind::kConsistentHash, Skew::kZipf},
        SweepCase{PartitionerKind::kExtendibleHash, Skew::kUniform},
        SweepCase{PartitionerKind::kExtendibleHash, Skew::kZipf},
        SweepCase{PartitionerKind::kHilbertCurve, Skew::kUniform},
        SweepCase{PartitionerKind::kHilbertCurve, Skew::kZipf},
        SweepCase{PartitionerKind::kIncrementalQuadtree, Skew::kUniform},
        SweepCase{PartitionerKind::kIncrementalQuadtree, Skew::kZipf},
        SweepCase{PartitionerKind::kKdTree, Skew::kUniform},
        SweepCase{PartitionerKind::kKdTree, Skew::kZipf},
        SweepCase{PartitionerKind::kRoundRobin, Skew::kUniform},
        SweepCase{PartitionerKind::kRoundRobin, Skew::kZipf},
        SweepCase{PartitionerKind::kUniformRange, Skew::kUniform},
        SweepCase{PartitionerKind::kUniformRange, Skew::kZipf}),
    CaseName);

// Cross-scheme comparative properties (not parameterized): the paper's
// qualitative claims about balance.
TEST(PartitionerComparison, FineGrainedSchemesBalanceBetterUnderSkew) {
  const ArraySchema schema = SweepSchema();
  std::map<PartitionerKind, double> rsd;
  for (const auto kind : AllPartitionerKinds()) {
    ElasticEngine engine(MakePartitioner(kind, schema, 2, 0.02), 2, 0.02);
    util::Rng rng(123);
    for (int64_t t = 0; t < 12; ++t) {
      engine.IngestBatch(MakeBatch(t, Skew::kZipf, rng));
      if (t == 3 || t == 7) ScaleOutAndDrain(&engine, 2);
    }
    rsd[kind] = engine.cluster().LoadRsd();
  }
  // §6.2.1: the fine-grained group (Round Robin, Extendible, Consistent)
  // averages far lower RSD than the range group under skew.
  const double fine = (rsd[PartitionerKind::kRoundRobin] +
                       rsd[PartitionerKind::kExtendibleHash] +
                       rsd[PartitionerKind::kConsistentHash]) /
                      3.0;
  const double range = (rsd[PartitionerKind::kUniformRange] +
                        rsd[PartitionerKind::kAppend]) /
                       2.0;
  EXPECT_LT(fine, range);
}

TEST(PartitionerComparison, SkewAwareSplittersReduceMaxLoad) {
  const ArraySchema schema = SweepSchema();
  for (const auto kind :
       {PartitionerKind::kKdTree, PartitionerKind::kHilbertCurve,
        PartitionerKind::kExtendibleHash}) {
    ElasticEngine engine(MakePartitioner(kind, schema, 2, 0.02), 2, 0.02);
    util::Rng rng(55);
    for (int64_t t = 0; t < 8; ++t) {
      engine.IngestBatch(MakeBatch(t, Skew::kZipf, rng));
    }
    const double max_before = util::Max(engine.cluster().NodeLoadsGb());
    ScaleOutAndDrain(&engine, 2);
    const double max_after = util::Max(engine.cluster().NodeLoadsGb());
    EXPECT_LT(max_after, max_before)
        << PartitionerKindName(kind)
        << " did not reduce the hottest node when splitting";
  }
}

}  // namespace
}  // namespace arraydb::core
