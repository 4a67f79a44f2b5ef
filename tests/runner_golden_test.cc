// Golden fingerprints of WorkloadRunner results: every double (by bit
// pattern), integer, flag and query name of RunResult and CycleMetrics —
// per-query minutes, serving and fault/recovery fields included — hashed
// per input and pinned to a constant. Any change to the runner's migration
// path that moves one bit of any figure-level metric fails here.
//
// The one field left out of the digest is the migration increment count
// (CycleMetrics::reorg_increments, RunResult::total_reorg_increments): it
// depends on how a plan is sliced, not on what it does, and it is checked
// on its own below.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/partitioner_factory.h"
#include "workload/ais.h"
#include "workload/modis.h"
#include "workload/runner.h"

namespace arraydb::workload {
namespace {

// FNV-1a over a typed field stream.
class Fingerprint {
 public:
  void Int(int64_t v) { Bytes(&v, sizeof(v)); }
  void Bool(bool v) { Int(v ? 1 : 0); }
  void Double(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Bytes(&bits, sizeof(bits));
  }
  void String(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

void AddLatency(const serve::LatencySummary& s, Fingerprint* f) {
  f->Int(s.count);
  f->Double(s.p50_ms);
  f->Double(s.p99_ms);
  f->Double(s.max_ms);
  f->Double(s.mean_ms);
}

void AddCycle(const CycleMetrics& m, Fingerprint* f) {
  f->Int(m.cycle);
  f->Int(m.nodes_before);
  f->Int(m.nodes_after);
  f->Double(m.load_gb);
  f->Double(m.insert_minutes);
  f->Double(m.reorg_minutes);
  f->Double(m.spj_minutes);
  f->Double(m.science_minutes);
  f->Double(m.rsd);
  f->Double(m.moved_gb);
  f->Int(m.chunks_moved);
  f->Bool(m.reorg_only_to_new_nodes);
  f->Double(m.migration_budget_gb);
  f->Double(m.ingest_stall_minutes);
  f->Int(m.reorg_over_budget_increments);
  f->Bool(m.reorg_forced_drain);
  f->Double(m.overlap_saved_minutes);
  f->Double(m.elapsed_minutes);
  f->Int(m.faults_injected);
  f->Int(m.transient_failures);
  f->Int(m.slow_copies);
  f->Int(m.retries);
  f->Int(m.timeouts);
  f->Int(m.node_deaths);
  f->Int(m.replans);
  f->Double(m.backoff_ms);
  f->Int(m.reorg_aborts);
  f->Double(m.rolled_back_gb);
  f->Bool(m.reorg_abandoned);
  f->Double(m.recovery_overhead_minutes);
  f->Double(m.retry_backlog_gb);
  f->Bool(m.serving_degraded);
  f->Int(static_cast<int64_t>(m.query_minutes.size()));
  for (const auto& [name, minutes] : m.query_minutes) {
    f->String(name);
    f->Double(minutes);
  }
  const ServingCycleMetrics& s = m.serving;
  f->Bool(s.ran);
  f->Double(s.p50_interactive_ms);
  f->Double(s.p99_interactive_ms);
  f->Double(s.p50_batch_ms);
  f->Double(s.p99_batch_ms);
  f->Int(s.interactive_completed);
  f->Int(s.batch_completed);
  f->Int(s.admitted);
  f->Int(s.rejected);
  f->Double(s.dilation);
  f->Double(s.makespan_minutes);
}

// Digest of everything in `r` except the increment counts.
uint64_t Digest(const RunResult& r) {
  Fingerprint f;
  f.Int(static_cast<int64_t>(r.cycles.size()));
  for (const auto& m : r.cycles) AddCycle(m, &f);
  f.Double(r.total_insert_minutes);
  f.Double(r.total_reorg_minutes);
  f.Double(r.total_spj_minutes);
  f.Double(r.total_science_minutes);
  f.Double(r.mean_rsd);
  f.Double(r.cost_node_hours);
  f.Int(r.final_nodes);
  f.Double(r.total_overlap_saved_minutes);
  f.Double(r.total_ingest_stall_minutes);
  f.Int(r.total_over_budget_increments);
  f.Int(r.forced_drains);
  f.Double(r.total_elapsed_minutes);
  AddLatency(r.serving_interactive, &f);
  AddLatency(r.serving_batch, &f);
  f.Int(r.serving_admitted);
  f.Int(r.serving_rejected);
  f.Int(r.total_faults_injected);
  f.Int(r.total_retries);
  f.Int(r.total_timeouts);
  f.Int(r.total_node_deaths);
  f.Int(r.total_replans);
  f.Int(r.total_reorg_aborts);
  f.Int(r.reorgs_abandoned);
  f.Double(r.total_backoff_ms);
  f.Double(r.total_recovery_overhead_minutes);
  return f.value();
}

enum class Dataset { kAis, kModis };

struct GoldenCase {
  const char* name;
  uint64_t digest;
  int64_t increments;
  Dataset dataset;
  core::PartitionerKind partitioner;
  MigrationPolicy migration;
  ScaleOutPolicy policy = ScaleOutPolicy::kCapacityTrigger;
  bool faults = false;
  bool serving = false;
};

RunnerConfig ConfigFor(const GoldenCase& c) {
  RunnerConfig cfg;
  cfg.partitioner = c.partitioner;
  cfg.policy = c.policy;
  cfg.initial_nodes = 2;
  cfg.nodes_per_scaleout = 2;
  cfg.max_nodes = 8;
  // Two threads: the migration overlaps the batch placement prewarm.
  cfg.ingest.threads = 2;
  cfg.reorg.policy = c.migration;
  if (c.faults) {
    cfg.fault.enabled = true;
    cfg.fault.plan.seed = 13;
    cfg.fault.plan.transient_failure_rate = 0.004;
    cfg.fault.plan.slow_copy_rate = 0.3;
    cfg.fault.plan.slow_copy_dilation = 2.0;
    cfg.fault.max_plan_restarts = 1;
  }
  cfg.serving.enabled = c.serving;
  return cfg;
}

using D = Dataset;
using P = core::PartitionerKind;
using M = MigrationPolicy;

// The "blocking" rows pinned the retired atomic Cluster::Apply path, the
// "incremental" rows the drain-before-insert one; both now run kSerial
// with unchanged digests. Only the blocking rows' increment count moved,
// from 0 to the engine's.
const GoldenCase kCases[] = {
    {"blocking/ais/hilbert", 0x7cdb829ea33a6193, 21,
     D::kAis, P::kHilbertCurve, M::kSerial},
    {"blocking/modis/kdtree", 0x63be1f840e6b9b37, 40,
     D::kModis, P::kKdTree, M::kSerial},
    {"incremental/ais/hilbert", 0x7cdb829ea33a6193, 21,
     D::kAis, P::kHilbertCurve, M::kSerial},
    {"incremental/modis/kdtree", 0x63be1f840e6b9b37, 40,
     D::kModis, P::kKdTree, M::kSerial},
    {"overlapped/ais/hilbert", 0xa5d195a6a6289525, 21,
     D::kAis, P::kHilbertCurve, M::kOverlapped},
    {"overlapped/modis/kdtree", 0xea2d3419c34a4aff, 40,
     D::kModis, P::kKdTree, M::kOverlapped},
    {"paced/ais/hilbert", 0x498bc383ef1b6c76, 9,
     D::kAis, P::kHilbertCurve, M::kPaced},
    {"paced/modis/kdtree", 0xf84cb945516bc50f, 8,
     D::kModis, P::kKdTree, M::kPaced},
    {"arbitrated/ais/hilbert", 0xfa722ffa1bf23ff9, 4,
     D::kAis, P::kHilbertCurve, M::kArbitrated},
    {"arbitrated/modis/kdtree", 0x5ebe26c51e9c0ef8, 6,
     D::kModis, P::kKdTree, M::kArbitrated},
    // Append never moves data: every plan is empty.
    {"blocking/modis/append", 0xab31d8e3e59564c5, 0,
     D::kModis, P::kAppend, M::kSerial},
    // Transient failures, slow copies, retries, two aborts and one abandoned
    // plan.
    {"faults/ais/hilbert", 0x76fd48daa141cf00, 20,
     D::kAis, P::kHilbertCurve, M::kSerial, ScaleOutPolicy::kCapacityTrigger,
     /*faults=*/true},
    {"serving/ais/hilbert", 0x2d1bca9ce7b03640, 6,
     D::kAis, P::kHilbertCurve, M::kArbitrated, ScaleOutPolicy::kStaircase,
     /*faults=*/false, /*serving=*/true},
};

TEST(RunnerGoldenTest, EveryMetricMatchesItsPinnedFingerprint) {
  const AisWorkload ais;
  const ModisWorkload modis;
  for (const GoldenCase& c : kCases) {
    const Workload& workload =
        c.dataset == Dataset::kAis ? static_cast<const Workload&>(ais)
                                   : static_cast<const Workload&>(modis);
    const RunResult r = WorkloadRunner(ConfigFor(c)).Run(workload);
    EXPECT_EQ(Digest(r), c.digest)
        << c.name << ": digest 0x" << std::hex << Digest(r);
    int64_t increments = 0;
    for (const auto& m : r.cycles) increments += m.reorg_increments;
    EXPECT_EQ(increments, r.total_reorg_increments) << c.name;
    EXPECT_EQ(r.total_reorg_increments, c.increments) << c.name;
  }
}

}  // namespace
}  // namespace arraydb::workload
