// Re-entrancy of the one parallel loop: MorselScheduler::Run called from
// inside a Run (directly, or through a serving closure that runs a
// morsel-parallel operator) must complete even when the enclosing Run holds
// every pool worker. The caller waits for its morsels, not for its helper
// tasks, so helpers queued behind blocked pool workers are never waited
// on. Before that rule these settings deadlocked; a hang here shows up as
// the ctest TIMEOUT. Runs under the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "array/array.h"
#include "exec/exec_context.h"
#include "exec/morsel.h"
#include "exec/operators.h"
#include "serve/serve.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "workload/sample_data.h"

namespace arraydb {
namespace {

// One more worker than the shared pool has, so the outer Run's helpers
// occupy every pool worker and the inner Runs' helpers can only queue.
int MoreThanThePool() { return util::ResolveThreadCount(0) + 1; }

TEST(MorselReentryTest, NestedRunCompletesWithEveryPoolWorkerBusy) {
  constexpr int64_t kOuter = 32;
  constexpr int64_t kInner = 64;
  exec::ExecContext outer_context;
  outer_context.data_plane_threads = MoreThanThePool();
  exec::ExecContext inner_context;
  inner_context.data_plane_threads = util::ResolveThreadCount(0);
  const exec::MorselScheduler outer(outer_context);
  const exec::MorselScheduler inner(inner_context);

  std::vector<std::vector<int>> hits(kOuter, std::vector<int>(kInner, 0));
  outer.Run(exec::MorselScheduler::Carve(kOuter, 1),
            [&](size_t, int64_t o, int64_t) {
              std::vector<int>& row = hits[static_cast<size_t>(o)];
              inner.Run(exec::MorselScheduler::Carve(kInner, 4),
                        [&row](size_t, int64_t begin, int64_t end) {
                          for (int64_t i = begin; i < end; ++i) {
                            row[static_cast<size_t>(i)] += 1;
                          }
                        });
            });
  for (const auto& row : hits) {
    EXPECT_EQ(row, std::vector<int>(kInner, 1));
  }
}

TEST(MorselReentryTest, ServerWithMoreComputeThreadsThanPoolWorkers) {
  const array::Array modis =
      workload::MakeSmallModisBand(/*days=*/4, /*seed=*/2014);
  exec::CellBox box;
  for (const array::DimensionDesc& dim : modis.schema().dims()) {
    box.lo.push_back(dim.lo);
    box.hi.push_back(dim.lo + dim.Extent() - 1);
  }
  const int64_t want = exec::FilterBoxCount(modis, box);
  ASSERT_GT(want, 0);

  serve::ServerOptions options;
  options.compute_threads = MoreThanThePool();
  options.exec_context.data_plane_threads = 2;
  options.exec_context.morsel_grain = 64;  // Multi-morsel inner Runs.
  serve::SessionServer server(options);
  const int session = server.OpenSession(serve::Tier::kBatch);
  constexpr int kRequests = 16;
  for (int i = 0; i < kRequests; ++i) {
    serve::Request request;
    request.name = util::StrFormat("q%d", i);
    request.cost_minutes = 0.1;
    request.compute = [&modis, &box](const exec::ExecContext& context) {
      return static_cast<double>(exec::FilterBoxCount(modis, box, context));
    };
    ASSERT_EQ(server.Submit(session, std::move(request)),
              serve::Admission::kAdmitted);
  }
  const serve::ServeResult result = server.Finish();
  ASSERT_EQ(result.completed.size(), static_cast<size_t>(kRequests));
  for (const serve::Completed& rec : result.completed) {
    EXPECT_TRUE(rec.has_value) << rec.name;
    EXPECT_EQ(rec.value, static_cast<double>(want)) << rec.name;
  }
}

}  // namespace
}  // namespace arraydb
