// Thread-count invariance suite for the morsel-driven operators: every
// parallelized operator must produce bit-identical results at threads in
// {1, 2, hardware} — the determinism contract of exec::MorselScheduler
// (fixed decomposition, per-morsel partials, fixed-order reduction). A
// small grain forces genuinely multi-morsel execution on the sample
// workloads, so parallel pickup and the combine path are exercised for
// real (this suite runs under the TSan CI job).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "array/array.h"
#include "array/cell_span.h"
#include "exec/morsel.h"
#include "exec/operators.h"
#include "workload/sample_data.h"

namespace arraydb::exec {
namespace {

using array::Array;
using array::Coordinates;

// Small enough for TSan, large enough that grain 192 yields dozens of
// morsels across dozens of chunks.
class MorselInvarianceTest : public ::testing::Test {
 protected:
  MorselInvarianceTest()
      : modis_(workload::MakeSmallModisBand(/*days=*/4, /*seed=*/2014)),
        ais_(workload::MakeSmallAisTracks(/*months=*/5, /*ships=*/120,
                                          /*seed=*/29)) {}

  static MorselOptions Opts(int threads, int64_t grain) {
    MorselOptions opts;
    opts.threads = threads;
    opts.grain_cells = grain;
    return opts;
  }

  // threads = 1 (the sequential definition), 2, and 0 = all hardware.
  static std::vector<int> ThreadCounts() { return {1, 2, 0}; }

  Array modis_;
  Array ais_;
};

TEST_F(MorselInvarianceTest, FilterBoxSpansInvariant) {
  const CellBox box{{0, 4, 2}, {2, 20, 12}};
  for (const int64_t grain : {int64_t{192}, int64_t{16384}}) {
    const FilterBoxView want = FilterBoxSpans(modis_, box, Opts(1, grain));
    for (const int threads : ThreadCounts()) {
      const FilterBoxView got = FilterBoxSpans(modis_, box,
                                               Opts(threads, grain));
      ASSERT_EQ(got.num_cells(), want.num_cells()) << "threads=" << threads;
      ASSERT_EQ(got.chunks().size(), want.chunks().size());
      for (size_t c = 0; c < want.chunks().size(); ++c) {
        EXPECT_EQ(got.chunks()[c].chunk, want.chunks()[c].chunk);
        EXPECT_EQ(got.chunks()[c].spans, want.chunks()[c].spans);
      }
    }
  }
}

TEST_F(MorselInvarianceTest, FilterBoxCountInvariant) {
  const CellBox box{{0, 0, 0}, {4, 31, 23}};
  const int64_t want = FilterBoxCount(ais_, box, Opts(1, 192));
  EXPECT_EQ(want, FilterBoxSpans(ais_, box, Opts(1, 192)).num_cells());
  for (const int threads : ThreadCounts()) {
    for (const int64_t grain : {int64_t{192}, int64_t{16384}}) {
      EXPECT_EQ(FilterBoxCount(ais_, box, Opts(threads, grain)), want)
          << "threads=" << threads << " grain=" << grain;
    }
  }
}

TEST_F(MorselInvarianceTest, GroupBySumInvariant) {
  const std::vector<int64_t> bin = {2, 8, 8};
  // Sums are grain-dependent in the last ULPs (the grain fixes the
  // reduction boundaries) but must be bit-identical across thread counts
  // at any fixed grain.
  for (const int64_t grain : {int64_t{192}, int64_t{16384}}) {
    const auto want = GroupBySum(modis_, bin, /*attr=*/1, Opts(1, grain));
    for (const int threads : ThreadCounts()) {
      const auto got = GroupBySum(modis_, bin, 1, Opts(threads, grain));
      ASSERT_EQ(got.size(), want.size()) << "threads=" << threads;
      for (const auto& [key, sum] : want) {
        ASSERT_TRUE(got.contains(key));
        EXPECT_EQ(got.at(key), sum) << "threads=" << threads
                                    << " grain=" << grain;
      }
    }
  }
}

TEST_F(MorselInvarianceTest, AttrQuantileInvariantAndGrainStable) {
  // Order statistics are value properties of the multiset: invariant
  // across threads AND grains, for extremes and interior quantiles alike.
  const auto want_by_q = [&](double q) {
    const auto r = AttrQuantile(modis_, 1, q, Opts(1, 16384));
    EXPECT_TRUE(r.ok());
    return *r;
  };
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const double want = want_by_q(q);
    for (const int threads : ThreadCounts()) {
      for (const int64_t grain : {int64_t{192}, int64_t{16384}}) {
        const auto got = AttrQuantile(modis_, 1, q, Opts(threads, grain));
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, want) << "q=" << q << " threads=" << threads
                              << " grain=" << grain;
      }
    }
  }
}

TEST_F(MorselInvarianceTest, WindowAverageAllInvariant) {
  const auto want = WindowAverageAll(modis_, /*attr=*/1, /*radius=*/1,
                                     Opts(1, 192));
  for (const int threads : ThreadCounts()) {
    for (const int64_t grain : {int64_t{192}, int64_t{16384}}) {
      const auto got = WindowAverageAll(modis_, 1, 1, Opts(threads, grain));
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first);
        EXPECT_EQ(got[i].second, want[i].second)
            << "threads=" << threads << " grain=" << grain << " pos " << i;
      }
    }
  }
}

TEST_F(MorselInvarianceTest, KnnAverageDistanceInvariant) {
  const auto want = KnnAverageDistance(ais_, /*k=*/5, /*samples=*/8,
                                       /*seed=*/11, Opts(1, 192));
  ASSERT_TRUE(want.ok());
  for (const int threads : ThreadCounts()) {
    for (const int64_t grain : {int64_t{192}, int64_t{16384}}) {
      const auto got = KnnAverageDistance(ais_, 5, 8, 11,
                                          Opts(threads, grain));
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, *want) << "threads=" << threads << " grain=" << grain;
    }
  }
}

// -- Scheduler primitives ---------------------------------------------------

TEST(MorselSchedulerTest, CarveIsPureAndCoversTheRange) {
  const auto morsels = MorselScheduler::Carve(10, 3);
  const std::vector<MorselRange> want = {{0, 3}, {3, 6}, {6, 9}, {9, 10}};
  EXPECT_EQ(morsels, want);
  EXPECT_TRUE(MorselScheduler::Carve(0, 3).empty());
  EXPECT_EQ(MorselScheduler::Carve(3, 100),
            (std::vector<MorselRange>{{0, 3}}));
}

TEST(MorselSchedulerTest, CarveByWeightClosesAtTheGrain) {
  // Runs close as soon as accumulated weight reaches the grain; the tail
  // run carries the remainder.
  const auto morsels =
      MorselScheduler::CarveByWeight({5, 1, 1, 5, 9, 2}, 6);
  const std::vector<MorselRange> want = {{0, 2}, {2, 4}, {4, 5}, {5, 6}};
  EXPECT_EQ(morsels, want);
  EXPECT_TRUE(MorselScheduler::CarveByWeight({}, 6).empty());
}

TEST(MorselSchedulerTest, ReduceCombinesInMorselOrderAtEveryThreadCount) {
  for (const int threads : {1, 2, 3, 0}) {
    MorselOptions opts;
    opts.threads = threads;
    const MorselScheduler scheduler(opts);
    const std::string got = scheduler.Reduce(
        MorselScheduler::Carve(23, 3), std::string(),
        [](size_t m, int64_t begin, int64_t end) {
          return std::to_string(m) + ":" + std::to_string(begin) + "-" +
                 std::to_string(end);
        },
        [](std::string& acc, std::string&& partial) {
          if (!acc.empty()) acc += "|";
          acc += partial;
        });
    EXPECT_EQ(got,
              "0:0-3|1:3-6|2:6-9|3:9-12|4:12-15|5:15-18|6:18-21|7:21-23")
        << "threads=" << threads;
  }
}

TEST(CellSpanSliceTest, ForEachSliceReassemblesTheGlobalOrder) {
  const Array modis = workload::MakeSmallModisBand(/*days=*/2, /*seed=*/5);
  const array::CellSpanView view(modis);
  const std::vector<double> column = view.GatherAttr(1);
  // Every split of [0, n) reassembles GatherAttr exactly, chunk runs in
  // global order.
  for (const int64_t step : {int64_t{1}, int64_t{7}, int64_t{64},
                             view.num_cells()}) {
    std::vector<double> rebuilt;
    for (int64_t begin = 0; begin < view.num_cells(); begin += step) {
      const int64_t end = std::min(begin + step, view.num_cells());
      view.ForEachSlice(begin, end,
                        [&rebuilt](const array::Chunk& chunk,
                                   size_t local_begin, size_t local_end) {
                          const auto& col = chunk.attr_column(1);
                          rebuilt.insert(
                              rebuilt.end(),
                              col.begin() + static_cast<int64_t>(local_begin),
                              col.begin() + static_cast<int64_t>(local_end));
                        });
    }
    EXPECT_EQ(rebuilt, column) << "step=" << step;
  }
}

}  // namespace
}  // namespace arraydb::exec
