// elastic_cycle_bench: wall-clock benchmark of the paper's elastic cycle —
// ingest a batch, scale out and reorganize incrementally, then query — over
// the public entry points of each library layer. One process per run, one
// closed-loop client: every call starts after the previous one returned.
//
// A run: generate the seeded inputs (twice, to check they repeat), do the
// library-side set-up, run one untimed warm-up pass with every oracle on
// and a single data-plane thread, then a fixed number of measured passes
// with kThreads, spread evenly over --seconds, each followed by one more
// timed set-up. Every pass replays the whole workload from an empty
// cluster and must produce the same result digest.
//
// Usage: elastic_cycle_bench --workload <name> --seed <n> --seconds <s>
//            --trace <0|1> [--trace-out <path>] [--expect-digest <hex>]
//            [--smoke]
// The last line of stdout is the result JSON. See README.md.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/elastic_engine.h"
#include "exec/engine.h"
#include "exec/join.h"
#include "exec/operators.h"
#include "inputs.h"
#include "reorg/reorg_engine.h"
#include "serve/serve.h"
#include "tracer.h"
#include "util/rng.h"

namespace ebench {
namespace {

using namespace arraydb;

/// Data-plane, ingest-prewarm and reorg-copy threads of every measured pass.
constexpr int kThreads = 4;
/// The warm-up pass runs the data plane on one thread.
constexpr int kCheckThreads = 1;
/// Passes measured even when they overrun --seconds (a traced run needs a
/// traced and an untraced one).
constexpr int kMinPasses = 2;
/// No measured pass starts after this many times --seconds.
constexpr double kCapFactor = 2.0;
/// Share of --seconds the measured passes fill at the reference pass time.
constexpr double kDuty = 0.7;
/// Point reads are timed in batches of this many (well above 1 ms).
constexpr size_t kLookupBatch = 8192;
/// Fixed query-suite settings (the sizes that differ live in SuiteParams).
constexpr int64_t kWindowRadius = 1;
constexpr int kKMeansIterations = 8;
constexpr int kKnnNeighbors = 5;

/// Typical wall time of one measured pass on the host the benchmark was
/// written on, between its fast and slow stretches (README.md). A constant:
/// it sizes the number of passes, which therefore does not depend on the
/// speed of the program measured.
double ReferencePassSeconds(const std::string& workload) {
  if (workload == "elastic-growth") return 3.2;
  if (workload == "ais-tracks") return 2.2;
  return 2.0;
}

/// Measured passes of a run: enough to fill kDuty of --seconds at the
/// reference pass time, leaving room for a program up to kCapFactor / kDuty
/// times slower before the cap cuts a run short.
int MeasuredPasses(const std::string& workload, double seconds) {
  const double passes = kDuty * seconds / ReferencePassSeconds(workload);
  return std::max(kMinPasses, static_cast<int>(std::lround(passes)));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string expect_digest;
  bool smoke = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "elastic_cycle_bench: %s\nusage: elastic_cycle_bench "
               "--workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>] [--expect-digest <hex>] [--smoke]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--expect-digest") {
      args.expect_digest = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

/// Samples and sums collected over the measured passes. Every pass replays
/// the same work, so the i-th sample of a key names the same unit of work
/// (the same query of the same cycle, say) in every pass.
struct Stats {
  std::map<std::string, std::vector<std::vector<double>>> samples;
  std::map<std::string, double> sums;
  int passes = 0;
  int64_t peak_resident_bytes = 0;

  void BeginPass() { ++passes; }
  void Sample(const std::string& key, double v) {
    auto& per_pass = samples[key];
    per_pass.resize(static_cast<size_t>(passes));
    per_pass.back().push_back(v);
  }
  void Add(const std::string& key, double v) { sums[key] += v; }
  double Sum(const std::string& key) const {
    const auto it = sums.find(key);
    return it == sums.end() ? 0.0 : it->second;
  }
  /// Per-pass mean of a summed quantity.
  double PerPass(const std::string& key) const {
    return passes > 0 ? Sum(key) / passes : 0.0;
  }
  /// Every sample of every pass.
  std::vector<double> All(const std::string& key) const {
    std::vector<double> out;
    const auto it = samples.find(key);
    if (it == samples.end()) return out;
    for (const auto& pass : it->second) {
      out.insert(out.end(), pass.begin(), pass.end());
    }
    return out;
  }
  /// Each unit's best (lowest) value over the passes. The host's speed
  /// swings between a fast and a slow state within seconds; a unit far
  /// shorter than that runs wholly in one state, so its best over the run's
  /// passes is its fast-state time whenever the run saw the fast state at
  /// all, however much of the run the host spent slow. Every run measures
  /// the same number of passes, so a faster program does not get more
  /// draws at the minimum.
  std::vector<double> Best(const std::string& key) const {
    std::vector<double> out;
    const auto it = samples.find(key);
    if (it == samples.end()) return out;
    for (const auto& pass : it->second) {
      if (out.empty()) {
        out = pass;
        continue;
      }
      for (size_t i = 0; i < out.size() && i < pass.size(); ++i) {
        out[i] = std::min(out[i], pass[i]);
      }
    }
    return out;
  }
};

/// The process's resident set now, from /proc/self/statm.
int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

double SumOf(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

/// Linear interpolation between order statistics (Python's
/// statistics.quantiles "inclusive" method). 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Cell box [lo, hi] of `box` over time steps [t0, t1] of `schema`.
exec::CellBox CellBoxOf(const array::ArraySchema& schema, const Box& box,
                        int64_t t0, int64_t t1) {
  const int64_t w = schema.dims()[1].Extent();
  const int64_t h = schema.dims()[2].Extent();
  const auto lo = [](double f, int64_t n) {
    return std::clamp<int64_t>(static_cast<int64_t>(f * n), 0, n - 1);
  };
  const auto hi = [](double f, int64_t n) {
    return std::clamp<int64_t>(
        static_cast<int64_t>(std::ceil(f * static_cast<double>(n))) - 1, 0,
        n - 1);
  };
  return exec::CellBox{{t0, lo(box.x0, w), lo(box.y0, h)},
                       {t1, hi(box.x1, w), hi(box.y1, h)}};
}

// The same box as a chunk-grid region of `schema` (for pricing).
exec::ChunkRegion RegionOf(const array::ArraySchema& schema, const Box& box,
                           int64_t t0, int64_t t1) {
  const exec::CellBox cells = CellBoxOf(schema, box, t0, t1);
  return exec::ChunkRegion{schema.ChunkOf(cells.lo), schema.ChunkOf(cells.hi)};
}

// Storage bytes of a materialized array, counted from its containers'
// capacities (columns, coordinates, bounding boxes, hash buckets).
int64_t StorageBytes(const array::Array& a) {
  int64_t bytes = static_cast<int64_t>(a.chunks().bucket_count() *
                                       sizeof(void*));
  const auto vec = [](const auto& v) {
    return static_cast<int64_t>(v.capacity() * sizeof(v[0]));
  };
  // arraydb-lint: order-insensitive -- exact integer sum.
  for (const auto& [coords, chunk] : a.chunks()) {
    bytes += static_cast<int64_t>(sizeof(chunk) + sizeof(coords)) +
             vec(coords) + vec(chunk.coords()) + vec(chunk.packed_coords()) +
             vec(chunk.bbox_lo()) + vec(chunk.bbox_hi());
    for (size_t attr = 0; attr < chunk.num_attrs(); ++attr) {
      bytes += vec(chunk.attr_column(attr));
    }
  }
  return bytes;
}

// Materializes the cells of `src` inside `box` as a new array (a filter
// whose result later operators read).
array::Array Select(const array::Array& src, const exec::CellBox& box,
                    const exec::ExecContext& ctx, bool* ok) {
  array::Array out(src.schema());
  array::Coordinates pos(kDims);
  std::vector<double> values(static_cast<size_t>(src.schema().num_attrs()));
  exec::FilterBoxSpans(src, box, ctx)
      .ForEachCell([&](const array::Chunk& chunk, size_t i) {
        std::copy_n(chunk.cell_pos(i), kDims, pos.begin());
        for (size_t a = 0; a < values.size(); ++a) {
          values[a] = chunk.attr_value(a, i);
        }
        *ok &= out.InsertCell(pos, values).ok();
      });
  return out;
}

// Runs one suite operator; folds its answer into the hasher; false on a
// non-OK status.
using QueryRun = std::function<bool(const exec::ExecContext&, Hasher*)>;

// One query of the suite: its pricing spec and its real execution.
struct SuiteQuery {
  const char* span;  // Span name of the execution, e.g. "exec.quantile".
  exec::QuerySpec spec;
  QueryRun run;
};

// Replays one whole workload from an empty cluster.
class PassRunner {
 public:
  PassRunner(const Inputs& in, Tracer& tracer, int threads, bool check,
             Stats* stats)
      : in_(in),
        tracer_(tracer),
        threads_(threads),
        check_(check),
        stats_(stats),
        engine_(core::MakePartitioner(in.partitioner, in.routed_schema(),
                                      kInitialNodes, in.node_capacity_gb,
                                      /*growth_dim=*/0),
                kInitialNodes, in.node_capacity_gb),
        data_(in.data_schema) {
    ctx_.data_plane_threads = threads;
    engine_.set_ingest_threads(threads);
    if (in.metadata_only) catalog_.emplace(in.catalog_schema);
  }

  uint64_t Run() {
    for (int c = 0; c < in_.cycles; ++c) {
      tracer_.set_cycle(c);
      Span cycle(tracer_, "bench.cycle");
      if (in_.nodes_to_add[static_cast<size_t>(c)] > 0) {
        Phase([&] { ScaleOut(c, in_.nodes_to_add[static_cast<size_t>(c)]); });
      }
      Phase([&] { Ingest(c); });
      Phase([&] { PointLookups(c); });
      Phase([&] { Queries(c); });
    }
    tracer_.set_cycle(-1);
    FinalState();
    return digest_.value();
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  // Runs one phase of a cycle; its wall time is one "phase_s" unit.
  template <typename Fn>
  void Phase(Fn&& fn) {
    const int64_t start = NowNs();
    fn();
    Sample("phase_s", static_cast<double>(NowNs() - start) / 1e9);
    NoteResident();
  }

  // Folds the resident set into the pass's peak. Called at every phase end
  // and while a cycle's materialized slice and query results are alive.
  void NoteResident() {
    if (stats_ == nullptr) return;
    stats_->peak_resident_bytes =
        std::max(stats_->peak_resident_bytes, ResidentBytes());
  }

  const array::Array& routed() const {
    return in_.metadata_only ? *catalog_ : data_;
  }

  // Counts `attempted` operations of which `failed` failed.
  void Count(int64_t attempted, int64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) Error(what);
  }
  void Count(bool ok, const std::string& what) { Count(1, ok ? 0 : 1, what); }
  void Error(const std::string& what) {
    if (errors_.size() < 20) errors_.push_back(what);
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) Error("oracle: " + what);
  }
  void Sample(const std::string& key, double v) {
    if (stats_ != nullptr) stats_->Sample(key, v);
  }
  void Add(const std::string& key, double v) {
    if (stats_ != nullptr) stats_->Add(key, v);
  }

  // Chunk `index` (mod the count) among the routed chunks of cycle t.
  array::Coordinates RoutedChunk(int t, uint64_t index) const {
    if (in_.metadata_only) {
      const auto& batch = in_.catalog[static_cast<size_t>(t)];
      return batch[index % batch.size()].coords;
    }
    const auto& chunks = in_.cells[static_cast<size_t>(t)].chunks;
    const size_t i = index % (chunks.size() / kDims);
    return array::Coordinates(chunks.begin() + i * kDims,
                              chunks.begin() + (i + 1) * kDims);
  }

  // The routed chunk covering data-array cell `at`. For a metadata-only
  // catalog, whose grid spans the same space at another resolution, the
  // cell is scaled onto the catalog's grid.
  array::Coordinates RoutedChunkOf(const array::Coordinates& at) const {
    const array::ArraySchema& rs = in_.routed_schema();
    array::Coordinates cell = at;
    for (size_t d = 1; d < kDims; ++d) {
      cell[d] = at[d] * rs.dims()[d].Extent() /
                in_.data_schema.dims()[d].Extent();
    }
    return rs.ChunkOf(cell);
  }

  // --- Ingest: array insert, then placement prewarm and routing. ---------
  void Ingest(int c) {
    Span ingest(tracer_, "bench.ingest");
    const CellBatch& batch = in_.cells[static_cast<size_t>(c)];
    const size_t num_attrs = static_cast<size_t>(in_.data_schema.num_attrs());
    const size_t n = batch.pos.size() / kDims;
    {
      Span span(tracer_, "array.insert");
      array::Coordinates pos(kDims);
      int64_t bad = 0;
      for (size_t i = 0; i < n; ++i) {
        std::copy_n(batch.pos.begin() + i * kDims, kDims, pos.begin());
        const auto values = batch.values.begin() + i * num_attrs;
        const util::Status status = data_.InsertCell(
            pos, std::vector<double>(values, values + num_attrs));
        if (!status.ok()) ++bad;
      }
      Add("array.insert_ns", static_cast<double>(span.Close()));
      Count(static_cast<int64_t>(n), bad,
            "InsertCell failed in cycle " + std::to_string(c));
    }
    Add("array.cells", static_cast<double>(n));
    cells_ingested_ += static_cast<int64_t>(n);

    std::vector<array::ChunkInfo> infos;
    if (in_.metadata_only) {
      Span span(tracer_, "array.add_chunks");
      const auto& chunks = in_.catalog[static_cast<size_t>(c)];
      int64_t bad = 0;
      for (const auto& info : chunks) {
        if (!catalog_->AddSyntheticChunk(info).ok()) ++bad;
      }
      Count(static_cast<int64_t>(chunks.size()), bad,
            "AddSyntheticChunk failed in cycle " + std::to_string(c));
    } else {
      Span span(tracer_, "array.chunk_infos");
      const auto& chunks = batch.chunks;
      array::Coordinates coords(kDims);
      for (size_t i = 0; i < chunks.size(); i += kDims) {
        std::copy_n(chunks.begin() + i, kDims, coords.begin());
        const array::Chunk* chunk = data_.FindChunk(coords);
        if (chunk != nullptr) infos.push_back(chunk->info());
      }
      Count(infos.size() == chunks.size() / kDims,
            "a generated chunk is missing in cycle " + std::to_string(c));
    }
    const auto& routed_batch =
        in_.metadata_only ? in_.catalog[static_cast<size_t>(c)] : infos;
    {
      Span span(tracer_, "core.prewarm");
      engine_.partitioner().PrewarmPlacement(routed_batch, threads_);
      Add("core.prewarm_ns", static_cast<double>(span.Close()));
    }
    {
      Span span(tracer_, "core.route");
      const core::InsertStats stats = engine_.IngestBatch(routed_batch);
      Add("core.route_ns", static_cast<double>(span.Close()));
      Count(stats.chunks == static_cast<int64_t>(routed_batch.size()),
            "IngestBatch routed too few chunks");
      digest_.AddDouble(stats.minutes);
    }
    Add("core.chunks", static_cast<double>(routed_batch.size()));
    Sample("ingest_ms", static_cast<double>(ingest.Close()) / 1e6);
    Add("ingest_cells", static_cast<double>(n));
    Add("ingest_chunks", static_cast<double>(routed_batch.size()));
    if (check_) {
      Check(data_.total_cells() == cells_ingested_,
            "stored cell count differs from the generated count");
      Check(engine_.cluster().num_chunks() == routed().num_chunks(),
            "cluster chunk count differs from the array's");
    }
  }

  // --- Scale-out: plan, then begin / step* / finish. ----------------------
  void ScaleOut(int c, int nodes) {
    Span scaleout(tracer_, "bench.scaleout");
    const cluster::Cluster& cluster = engine_.cluster();
    const int64_t bytes_before = cluster.TotalBytes();
    const int64_t chunks_before = cluster.num_chunks();
    core::ScaleOutPrep prep;
    int64_t ns = 0;
    {
      Span span(tracer_, "core.plan");
      prep = engine_.PrepareScaleOut(nodes);
      const int64_t plan_ns = span.Close();
      ns += plan_ns;
      Sample("core.plan_ms", static_cast<double>(plan_ns) / 1e6);
    }
    Add("core.plan_moved", static_cast<double>(prep.plan.num_chunks()));
    Add("core.plan_existing", static_cast<double>(chunks_before));
    for (const cluster::ChunkMove& move : prep.plan.moves()) {
      for (const int64_t v : move.coords) digest_.AddInt(v);
      digest_.AddInt(move.from);
      digest_.AddInt(move.to);
      digest_.AddInt(move.bytes);
      if (check_) {
        Check(move.from < prep.first_new_node &&
                  move.to >= prep.first_new_node,
              "plan moves a chunk to a preexisting node");
      }
    }
    if (prep.plan.empty()) return;

    reorg::ReorgOptions options;
    options.copy_threads = threads_;
    options.increment_gb = static_cast<double>(prep.plan.TotalBytes()) / 1e9 /
                           in_.increments_per_plan;
    reorg::IncrementalReorgEngine reorg(&engine_.mutable_cluster(),
                                        &engine_.cost_model(), options);
    int64_t reorg_ns = 0;
    {
      Span span(tracer_, "reorg.begin");
      const util::Status status = reorg.Begin(prep.plan, prep.first_new_node);
      const int64_t begin_ns = span.Close();
      reorg_ns += begin_ns;
      Add("reorg.begin_ns", static_cast<double>(begin_ns));
      Count(status.ok(), "reorg Begin: " + status.ToString());
      if (!status.ok()) return;
    }
    while (reorg.pending_chunks() > 0) {
      util::StatusOr<reorg::IncrementStats> inc = util::Internal("unset");
      {
        Span span(tracer_, "reorg.step");
        inc = reorg.Step();
        const int64_t step_ns = span.Close();
        reorg_ns += step_ns;
        Sample("reorg.step_ms", static_cast<double>(step_ns) / 1e6);
      }
      Count(inc.ok(), "reorg Step: " + inc.status().ToString());
      if (!inc.ok()) return;
      digest_.Add(inc->transfer_digest);
      MidReorgQuery(c, reorg);
    }
    {
      Span span(tracer_, "reorg.finish");
      const util::Status status = reorg.Finish();
      const int64_t finish_ns = span.Close();
      reorg_ns += finish_ns;
      Add("reorg.finish_ns", static_cast<double>(finish_ns));
      Count(status.ok(), "reorg Finish: " + status.ToString());
    }
    ns += reorg_ns;
    Sample("scaleout_ms", static_cast<double>(ns) / 1e6);
    const reorg::ReorgSummary& summary = reorg.summary();
    Add("reorg.plans", 1.0);
    Add("reorg.ns", static_cast<double>(reorg_ns));
    Add("reorg.increments", static_cast<double>(summary.increments));
    Add("reorg.chunks", static_cast<double>(summary.chunks_moved));
    digest_.Add(summary.transfer_digest);
    if (check_) {
      Check(summary.only_to_new_nodes, "reorg moved data to an old node");
      Check(summary.chunks_moved == prep.plan.num_chunks(),
            "reorg moved a different number of chunks than planned");
      Check(cluster.TotalBytes() == bytes_before,
            "reorg changed the total bytes stored");
      int64_t node_sum = 0;
      for (int node = 0; node < cluster.num_nodes(); ++node) {
        node_sum += cluster.NodeBytes(node);
      }
      Check(node_sum == bytes_before, "per-node bytes do not add up");
      for (const cluster::ChunkRecord& rec : cluster.AllChunks()) {
        if (engine_.partitioner().Locate(rec.coords) !=
            cluster.OwnerOf(rec.coords)) {
          Check(false, "Locate disagrees with OwnerOf after reorg");
          break;
        }
      }
    }
  }

  // A window query over the newest stored time step, priced mid-reorg
  // through the dual-residency view: the scan and every halo lookup route
  // to the retained source replicas.
  void MidReorgQuery(int c, const reorg::IncrementalReorgEngine& reorg) {
    exec::QuerySpec spec;
    spec.name = "midreorg-window";
    spec.kind = exec::QueryKind::kWindow;
    spec.region = RegionOf(in_.routed_schema(), Box{}, c - 1, c - 1);
    const reorg::DualResidencyView view = reorg.View();
    Span span(tracer_, "engine.simulate_midreorg");
    const exec::QueryCost cost =
        query_engine_.Simulate(spec, view, in_.routed_schema());
    const int64_t ns = span.Close();
    Sample("reorg_query_ms", static_cast<double>(ns) / 1e6);
    Count(cost.chunks_touched > 0, "mid-reorg query found no chunks");
    digest_.AddDouble(cost.minutes);
    digest_.AddInt(cost.remote_neighbor_fetches);
  }

  // --- Point reads: Locate, then FindChunk and a cell read. --------------
  void PointLookups(int c) {
    Span lookups(tracer_, "bench.lookups");
    const LookupBatch& batch = in_.lookups[static_cast<size_t>(c)];
    const size_t n = batch.expect_hit.size();
    const array::Array& target = routed();
    array::Coordinates chunk(kDims);
    int64_t node_sum = 0;
    int64_t hits = 0;
    double read_sum = 0.0;
    for (size_t begin = 0; begin < n; begin += kLookupBatch) {
      const size_t end = std::min(n, begin + kLookupBatch);
      int64_t ns = 0;
      {
        Span span(tracer_, "core.locate");
        for (size_t i = begin; i < end; ++i) {
          std::copy_n(batch.chunk.begin() + i * kDims, kDims, chunk.begin());
          node_sum += engine_.partitioner().Locate(chunk);
        }
        const int64_t locate_ns = span.Close();
        ns += locate_ns;
        Add("core.locate_ns", static_cast<double>(locate_ns));
      }
      int64_t mismatches = 0;
      {
        Span span(tracer_, "array.find_chunk");
        for (size_t i = begin; i < end; ++i) {
          std::copy_n(batch.chunk.begin() + i * kDims, kDims, chunk.begin());
          const array::Chunk* found = target.FindChunk(chunk);
          bool hit = false;
          if (found != nullptr && in_.metadata_only) {
            hit = true;
            read_sum += static_cast<double>(found->bytes());
          } else if (found != nullptr) {
            const int64_t* key = batch.cell.data() + i * kDims;
            for (size_t j = 0; j < found->num_cells(); ++j) {
              const int64_t* p = found->cell_pos(j);
              if (p[0] == key[0] && p[1] == key[1] && p[2] == key[2]) {
                hit = true;
                read_sum += found->attr_value(0, j);
                break;
              }
            }
          }
          hits += hit ? 1 : 0;
          mismatches += hit != (batch.expect_hit[i] != 0) ? 1 : 0;
        }
        const int64_t find_ns = span.Close();
        ns += find_ns;
        Add("array.find_ns", static_cast<double>(find_ns));
      }
      Count(static_cast<int64_t>(end - begin), mismatches,
            "point read disagreed with the generated occupancy");
      Sample("lookup_ms", static_cast<double>(ns) / 1e6);
    }
    Add("lookups", static_cast<double>(n));
    digest_.AddInt(node_sum);
    digest_.AddInt(hits);
    digest_.AddDouble(read_sum);
  }

  // --- Query suite: price, admit through the session server, execute. ----
  void Queries(int c) {
    Span queries(tracer_, "bench.queries");
    const SuiteParams& p = in_.suite;
    const array::ArraySchema& ds = in_.data_schema;
    const array::ArraySchema& rs = in_.routed_schema();
    const Box all;
    const auto spec = [&](const char* name, exec::QueryKind kind,
                          const Box& box, int64_t t0) {
      exec::QuerySpec s;
      s.name = name;
      s.kind = kind;
      s.region = RegionOf(rs, box, t0, c);
      s.seed = static_cast<uint64_t>(c) + 1;
      return s;
    };

    // The newest slice, materialized by the client through a filter.
    array::Array slice(ds);
    {
      const int64_t sim_ns =
          Price(spec("slice", exec::QueryKind::kFilter, all, c), nullptr);
      Span span(tracer_, "exec.slice");
      bool ok = true;
      slice = Select(data_, CellBoxOf(ds, all, c, c), ctx_, &ok);
      const int64_t ns = span.Close();
      Add("exec.slice_ns", static_cast<double>(ns));
      Add("exec.slice_calls", 1.0);
      Sample("query_ms", static_cast<double>(sim_ns + ns) / 1e6);
      const size_t expected = in_.cells[static_cast<size_t>(c)].pos.size();
      Count(ok && slice.total_cells() == static_cast<int64_t>(expected / kDims),
            "newest slice lost cells");
      digest_.AddInt(slice.total_cells());
    }

    const array::Array& companion = in_.companion[static_cast<size_t>(c)];
    const CellBatch& newest = in_.cells[static_cast<size_t>(c)];
    using exec::QueryKind;
    std::vector<SuiteQuery> suite;
    const auto add = [&suite](const char* span, exec::QuerySpec s,
                              QueryRun run) {
      suite.push_back({span, std::move(s), std::move(run)});
    };

    add("exec.filter_count",
        spec("filter-count", QueryKind::kFilter, p.corner, 0),
        [&](const exec::ExecContext& ctx, Hasher* h) {
          const exec::CellBox box = CellBoxOf(ds, p.corner, 0, c);
          h->AddInt(exec::FilterBoxCount(data_, box, ctx));
          Add("exec.filter_cells", static_cast<double>(data_.total_cells()));
          return true;
        });
    add("exec.filter_spans", spec("filter-spans", QueryKind::kFilter, p.hot, 0),
        [&](const exec::ExecContext& ctx, Hasher* h) {
          const exec::FilterBoxView view =
              exec::FilterBoxSpans(data_, CellBoxOf(ds, p.hot, 0, c), ctx);
          const auto touched = static_cast<double>(view.chunks().size());
          h->AddInt(view.num_cells());
          h->AddDouble(touched);
          Add("exec.filter_cells", static_cast<double>(data_.total_cells()));
          Add("exec.filter_touched", touched);
          Add("exec.filter_chunks", static_cast<double>(data_.num_chunks()));
          return true;
        });
    add("exec.quantile", spec("quantile", QueryKind::kSortQuantile, all, 0),
        [&](const exec::ExecContext& ctx, Hasher* h) {
          const auto q =
              exec::AttrQuantile(data_, p.quantile_attr, p.quantile, ctx);
          if (q.ok()) h->AddDouble(*q);
          return q.ok();
        });
    add("exec.groupby", spec("groupby", QueryKind::kGroupBy, all, 0),
        [&](const exec::ExecContext& ctx, Hasher* h) {
          const auto bins = exec::GroupBySum(
              data_, {1, p.group_bin, p.group_bin}, p.quantile_attr, ctx);
          for (const auto& [origin, sum] : bins) {
            for (const int64_t v : origin) h->AddInt(v);
            h->AddDouble(sum);
          }
          return !bins.empty();
        });
    add("exec.regrid", spec("regrid", QueryKind::kGroupBy, all, c),
        [&](const exec::ExecContext&, Hasher* h) {
          const auto coarse = exec::Regrid(
              slice, {1, p.regrid_factor, p.regrid_factor}, p.window_attr);
          if (!coarse.ok()) return false;
          for (const array::Cell& cell : coarse->AllCells()) {
            for (const int64_t v : cell.pos) h->AddInt(v);
            for (const double v : cell.values) h->AddDouble(v);
          }
          return true;
        });
    add("exec.window_all", spec("window", QueryKind::kWindow, p.hot, c),
        [&](const exec::ExecContext& ctx, Hasher* h) {
          // Smooths the hot region of the newest slice: filter, then window.
          bool ok = true;
          const array::Array region =
              Select(slice, CellBoxOf(ds, p.hot, c, c), ctx, &ok);
          const auto field = exec::WindowAverageAll(region, p.window_attr,
                                                    kWindowRadius, ctx);
          for (const auto& [pos, avg] : field) {
            for (const int64_t v : pos) h->AddInt(v);
            h->AddDouble(avg);
          }
          return ok;
        });
    for (int probe = 0; probe < p.probes; ++probe) {
      // A stored cell of the newest slice, picked by a hash of (c, probe).
      const uint64_t pick = util::SplitMix64(
          (static_cast<uint64_t>(c) << 16) ^ static_cast<uint64_t>(probe));
      const size_t i = pick % (newest.pos.size() / kDims);
      const array::Coordinates at(newest.pos.begin() + i * kDims,
                                  newest.pos.begin() + (i + 1) * kDims);
      exec::QuerySpec probe_spec = spec("window-probe", QueryKind::kWindow,
                                        all, c);
      const array::Coordinates chunk = RoutedChunkOf(at);
      probe_spec.region = exec::ChunkRegion{chunk, chunk};
      const array::Array& target = p.probe_whole_array ? data_ : slice;
      add("exec.window_probe", probe_spec,
          [&, at](const exec::ExecContext&, Hasher* h) {
            const auto avg = exec::WindowAverageAt(target, p.window_attr, at,
                                                   kWindowRadius);
            if (avg.ok()) h->AddDouble(*avg);
            return avg.ok();
          });
    }
    int64_t dim_join = -1;
    add("join.dim", spec("dimjoin", QueryKind::kDimJoin, all, c),
        [&](const exec::ExecContext& ctx, Hasher* h) {
          dim_join = exec::DimJoinCount(slice, companion, ctx);
          h->AddInt(dim_join);
          return true;
        });
    exec::QuerySpec attr_spec = spec("attrjoin", QueryKind::kAttrJoin, all, c);
    attr_spec.small_side_gb = static_cast<double>(in_.join_keys.size()) * 8e-9;
    add("join.attr", attr_spec, [&](const exec::ExecContext& ctx, Hasher* h) {
      h->AddInt(
          exec::AttrJoinCount(slice, p.attr_join_attr, in_.join_keys, ctx));
      return true;
    });
    exec::QuerySpec kmeans_spec = spec("kmeans", QueryKind::kKMeans, all, c);
    kmeans_spec.iterations = kKMeansIterations;
    add("exec.kmeans", kmeans_spec, [&](const exec::ExecContext&, Hasher* h) {
      // Every stride-th cell of the newest slice, in sorted chunk order.
      std::vector<std::vector<double>> points;
      const int64_t stride = std::max<int64_t>(
          1, slice.total_cells() / std::max(1, p.kmeans_points));
      int64_t i = 0;
      for (const array::Chunk* chunk : slice.SortedChunks()) {
        for (size_t j = 0; j < chunk->num_cells(); ++j, ++i) {
          if (i % stride != 0) continue;
          const int64_t* pos = chunk->cell_pos(j);
          points.push_back(
              p.kmeans_on_positions
                  ? std::vector<double>{static_cast<double>(pos[1]),
                                        static_cast<double>(pos[2])}
                  : std::vector<double>{chunk->attr_value(1, j),
                                        chunk->attr_value(2, j)});
        }
      }
      if (points.size() < static_cast<size_t>(p.kmeans_k)) return false;
      const exec::KMeansResult r =
          exec::KMeans(points, p.kmeans_k, kKMeansIterations, kmeans_spec.seed);
      for (const auto& centroid : r.centroids) {
        for (const double v : centroid) h->AddDouble(v);
      }
      h->AddDouble(r.inertia);
      return true;
    });
    exec::QuerySpec knn_spec =
        spec("knn", QueryKind::kKnn, all, p.knn_whole_array ? 0 : c);
    knn_spec.knn_samples = p.knn_samples;
    add("exec.knn", knn_spec, [&](const exec::ExecContext& ctx, Hasher* h) {
      const auto d = exec::KnnAverageDistance(
          p.knn_whole_array ? data_ : slice, kKnnNeighbors, p.knn_samples,
          knn_spec.seed, ctx);
      if (d.ok()) h->AddDouble(*d);
      return d.ok();
    });

    serve::ServerOptions options;
    options.workers = kThreads;
    options.exec_context = ctx_;
    options.compute_threads = 1;
    serve::SessionServer server(options);
    const int batch_session = server.OpenSession(serve::Tier::kBatch);
    const int interactive_session =
        server.OpenSession(serve::Tier::kInteractive);

    const size_t q = suite.size();
    std::vector<int64_t> client_ns(q, 0);
    std::vector<int64_t> compute_ns(q, 0);
    std::vector<uint64_t> answers(q, 0);
    std::vector<uint8_t> ok(q, 0);
    double batch_minutes = 0.0;
    int64_t rejected = 0;
    for (size_t k = 0; k < q; ++k) {
      serve::Request request;
      request.name = suite[k].spec.name;
      const int64_t sim_ns = Price(suite[k].spec, &request);
      batch_minutes += request.cost_minutes;
      request.compute = [this, &suite, &compute_ns, &answers, &ok,
                         k](const exec::ExecContext& ctx) {
        Span span(tracer_, suite[k].span);
        Hasher h;
        ok[k] = suite[k].run(ctx, &h) ? 1 : 0;
        compute_ns[k] = span.Close();
        answers[k] = h.value();
        return 0.0;
      };
      client_ns[k] = sim_ns + Submit(server, batch_session, std::move(request),
                                     &rejected);
    }
    // Interactive point queries arrive spread over the batch window.
    const double window = std::max(1e-3, batch_minutes / kThreads);
    for (int i = 0; i < p.point_queries; ++i) {
      exec::QuerySpec point;
      point.name = "point";
      const uint64_t h = util::SplitMix64(
          (static_cast<uint64_t>(c) << 20) ^ static_cast<uint64_t>(i));
      const array::Coordinates chunk =
          RoutedChunk(static_cast<int>(h % (static_cast<uint64_t>(c) + 1)),
                      h >> 8);
      point.region = exec::ChunkRegion{chunk, chunk};
      serve::Request request;
      request.name = point.name;
      const int64_t sim_ns = Price(point, &request);
      request.arrival_minutes = window * (i + 1) / (p.point_queries + 1);
      const int64_t ns =
          sim_ns + Submit(server, interactive_session, std::move(request),
                          &rejected);
      Sample("query_ms", static_cast<double>(ns) / 1e6);
    }
    serve::ServeResult served;
    {
      Span span(tracer_, "serve.finish");
      served = server.Finish();
      int64_t self_ns = span.Close();
      for (const int64_t ns : compute_ns) self_ns -= ns;
      Add("serve.finish_ns", static_cast<double>(self_ns));
      Add("serve.finishes", 1.0);
    }
    NoteResident();
    for (size_t k = 0; k < q; ++k) {
      Sample("query_ms",
             static_cast<double>(client_ns[k] + compute_ns[k]) / 1e6);
      const std::string op = suite[k].span;
      Add(op + "_ns", static_cast<double>(compute_ns[k]));
      Add(op + "_calls", 1.0);
      Count(ok[k] != 0, std::string(suite[k].span) + " failed in cycle " +
                            std::to_string(c));
      digest_.Add(answers[k]);
    }
    for (const serve::Completed& rec : served.completed) {
      digest_.AddString(rec.name);
      digest_.AddDouble(rec.latency_minutes);
    }
    Add("serve.rejected", static_cast<double>(rejected));
    if (check_) {
      Check(dim_join == exec::internal::DimJoinCountBySet(slice, companion),
            "DimJoinCount disagrees with DimJoinCountBySet");
    }
  }

  // Prices `spec` on the quiesced cluster; fills the request's demand.
  int64_t Price(const exec::QuerySpec& spec, serve::Request* request) {
    Span span(tracer_, "engine.simulate");
    const exec::QueryCost cost =
        query_engine_.Simulate(spec, engine_.cluster(), in_.routed_schema());
    const int64_t ns = span.Close();
    Sample("engine.simulate_us", static_cast<double>(ns) / 1e3);
    Add("engine.touched", static_cast<double>(cost.chunks_touched));
    Add("engine.stored", static_cast<double>(engine_.cluster().num_chunks()));
    digest_.AddDouble(cost.minutes);
    digest_.AddInt(cost.chunks_touched);
    if (request != nullptr) {
      request->cost_minutes = cost.minutes;
      request->scan_gb = cost.scanned_gb;
    }
    return ns;
  }

  int64_t Submit(serve::SessionServer& server, int session,
                 serve::Request request, int64_t* rejected) {
    Span span(tracer_, "serve.submit");
    const serve::Admission admission =
        server.Submit(session, std::move(request));
    const int64_t ns = span.Close();
    Add("serve.submit_ns", static_cast<double>(ns));
    Add("serve.submits", 1.0);
    const bool admitted = serve::Admitted(admission);
    *rejected += admitted ? 0 : 1;
    Count(admitted, std::string("serve rejected a request: ") +
                        serve::AdmissionName(admission));
    return ns;
  }

  // Final placement into the digest, plus end-of-pass layer gauges.
  void FinalState() {
    const cluster::Cluster& cluster = engine_.cluster();
    for (const cluster::ChunkRecord& rec : cluster.AllChunks()) {
      for (const int64_t v : rec.coords) digest_.AddInt(v);
      digest_.AddInt(rec.node);
      digest_.AddInt(rec.bytes);
    }
    Add("cluster.rsd", cluster.LoadRsd());
    Add("array.chunks", static_cast<double>(routed().num_chunks()));
    Add("array.routed_cells", static_cast<double>(routed().total_cells()));
    Add("array.storage_bytes", static_cast<double>(StorageBytes(data_)));
    Add("array.user_bytes", static_cast<double>(data_.total_bytes()));
  }

  const Inputs& in_;
  Tracer& tracer_;
  const int threads_;
  const bool check_;
  Stats* const stats_;
  exec::ExecContext ctx_;
  core::ElasticEngine engine_;
  array::Array data_;
  std::optional<array::Array> catalog_;
  exec::QueryEngine query_engine_;
  Hasher digest_;
  int64_t cells_ingested_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// A fixed 8 MiB random-update loop: an informational speed reading of the
// host, never used to rescale a metric.
double CalibrationMs() {
  std::vector<uint64_t> table(1u << 20, 1);
  uint64_t x = 88172645463325252ull;
  const int64_t start = NowNs();
  for (int i = 0; i < (1 << 23); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (table.size() - 1)] += x;
  }
  const int64_t ns = NowNs() - start;
  volatile uint64_t sink = table[x & 1023];
  (void)sink;
  return static_cast<double>(ns) / 1e6;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + buf + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::vector<Metric> EndToEnd(const Stats& s, double setup_s, double peak_mb) {
  const auto best_pct = [&](const char* key, double p) {
    return Percentile(s.Best(key), p);
  };
  const double ingest_s = SumOf(s.Best("ingest_ms")) / 1e3;
  return {
      {"setup_s", "s", setup_s},
      {"run_s", "s", SumOf(s.Best("phase_s"))},
      {"ingest_cells_per_s", "1/s", Ratio(s.PerPass("ingest_cells"), ingest_s)},
      {"ingest_chunks_per_s", "1/s",
       Ratio(s.PerPass("ingest_chunks"), ingest_s)},
      {"scaleout_ms.mean", "ms",
       Ratio(SumOf(s.Best("scaleout_ms")),
             static_cast<double>(s.Best("scaleout_ms").size()))},
      {"query_ms.p50", "ms", best_pct("query_ms", 50)},
      {"query_ms.p90", "ms", best_pct("query_ms", 90)},
      {"reorg_query_ms.p50", "ms", best_pct("reorg_query_ms", 50)},
      {"point_lookups_per_s", "1/s",
       Ratio(s.PerPass("lookups"), SumOf(s.Best("lookup_ms")) / 1e3)},
      {"peak_rss_mb", "MiB", peak_mb},
  };
}

std::vector<Metric> PerLayer(const Stats& s,
                             const std::map<std::string, int64_t>& self_ns,
                             double overhead_ratio) {
  const double passes = s.passes;
  const auto pct = [&](const char* key, double p) {
    return Percentile(s.All(key), p);
  };
  const auto self_ms = [&](const char* layer) {
    const auto it = self_ns.find(layer);
    return it == self_ns.end() ? 0.0
                               : static_cast<double>(it->second) / 1e6 / passes;
  };
  const auto mean_ms = [&](const std::string& op) {
    return Ratio(s.Sum(op + "_ns") / 1e6, s.Sum(op + "_calls"));
  };
  // Self times partition the pass spans, so their sum is the traced run
  // time; the "bench" layer is the part no library call covers.
  double pass_ns = 0.0;
  for (const auto& [layer, ns] : self_ns) pass_ns += static_cast<double>(ns);
  const auto bench = self_ns.find("bench");
  const double bench_ns =
      bench == self_ns.end() ? 0.0 : static_cast<double>(bench->second);
  return {
      {"array.self_ms", "ms", self_ms("array")},
      {"core.self_ms", "ms", self_ms("core")},
      {"reorg.self_ms", "ms", self_ms("reorg")},
      {"engine.self_ms", "ms", self_ms("engine")},
      {"exec.self_ms", "ms", self_ms("exec")},
      {"join.self_ms", "ms", self_ms("join")},
      {"serve.self_ms", "ms", self_ms("serve")},
      {"trace.unattributed_share", "share", Ratio(bench_ns, pass_ns)},
      {"trace.overhead_ratio", "ratio", overhead_ratio},
      {"array.insert_ns_per_cell", "ns",
       Ratio(s.Sum("array.insert_ns"), s.Sum("array.cells"))},
      {"array.find_chunk_ns", "ns",
       Ratio(s.Sum("array.find_ns"), s.Sum("lookups"))},
      {"array.chunks", "count", s.Sum("array.chunks") / passes},
      {"array.cells_per_chunk", "count",
       Ratio(s.Sum("array.routed_cells"), s.Sum("array.chunks"))},
      {"array.bytes_per_user_byte", "ratio",
       Ratio(s.Sum("array.storage_bytes"), s.Sum("array.user_bytes"))},
      {"core.prewarm_us_per_chunk", "us",
       Ratio(s.Sum("core.prewarm_ns") / 1e3, s.Sum("core.chunks"))},
      {"core.route_us_per_chunk", "us",
       Ratio(s.Sum("core.route_ns") / 1e3, s.Sum("core.chunks"))},
      {"core.locate_ns", "ns",
       Ratio(s.Sum("core.locate_ns"), s.Sum("lookups"))},
      {"core.plan_ms.p50", "ms", pct("core.plan_ms", 50)},
      {"core.plan_moved_fraction", "share",
       Ratio(s.Sum("core.plan_moved"), s.Sum("core.plan_existing"))},
      {"reorg.begin_ms", "ms",
       Ratio(s.Sum("reorg.begin_ns") / 1e6, s.Sum("reorg.plans"))},
      {"reorg.step_ms.p50", "ms", pct("reorg.step_ms", 50)},
      {"reorg.finish_ms", "ms",
       Ratio(s.Sum("reorg.finish_ns") / 1e6, s.Sum("reorg.plans"))},
      {"reorg.increments", "count", s.Sum("reorg.increments") / passes},
      {"reorg.chunks_per_s", "1/s",
       Ratio(s.Sum("reorg.chunks"), s.Sum("reorg.ns") / 1e9)},
      {"cluster.rsd", "share", s.Sum("cluster.rsd") / passes},
      {"exec.filter_ns_per_cell", "ns",
       Ratio(s.Sum("exec.filter_count_ns") + s.Sum("exec.filter_spans_ns"),
             s.Sum("exec.filter_cells"))},
      {"exec.filter_chunks_touched_ratio", "share",
       Ratio(s.Sum("exec.filter_touched"), s.Sum("exec.filter_chunks"))},
      {"exec.slice_ms", "ms", mean_ms("exec.slice")},
      {"exec.quantile_ms", "ms", mean_ms("exec.quantile")},
      {"exec.groupby_ms", "ms", mean_ms("exec.groupby")},
      {"exec.regrid_ms", "ms", mean_ms("exec.regrid")},
      {"exec.window_ms", "ms", mean_ms("exec.window_all")},
      {"exec.window_probe_ms", "ms", mean_ms("exec.window_probe")},
      {"exec.kmeans_ms", "ms", mean_ms("exec.kmeans")},
      {"exec.knn_ms", "ms", mean_ms("exec.knn")},
      {"exec.dimjoin_ms", "ms", mean_ms("join.dim")},
      {"exec.attrjoin_ms", "ms", mean_ms("join.attr")},
      {"exec.simulate_us.p50", "us", pct("engine.simulate_us", 50)},
      {"exec.simulate_midreorg_us.p50", "us",
       pct("reorg_query_ms", 50) * 1e3},
      {"exec.simulate_chunks_touched_ratio", "share",
       Ratio(s.Sum("engine.touched"), s.Sum("engine.stored"))},
      {"serve.submit_us", "us",
       Ratio(s.Sum("serve.submit_ns") / 1e3, s.Sum("serve.submits"))},
      {"serve.finish_ms", "ms",
       Ratio(s.Sum("serve.finish_ns") / 1e6, s.Sum("serve.finishes"))},
      {"serve.rejected_share", "share",
       Ratio(s.Sum("serve.rejected"), s.Sum("serve.submits"))},
  };
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const double calibration_start_ms = CalibrationMs();

  // The inputs are the benchmark's own: generated twice (the second copy
  // only to check that they repeat), untimed.
  Inputs in;
  if (!MakeInputs(args.workload, args.seed, args.smoke, &in)) {
    Usage("unknown workload " + args.workload);
  }
  {
    Inputs again;
    MakeInputs(args.workload, args.seed, args.smoke, &again);
    if (again.digest != in.digest) {
      std::fprintf(stderr, "input generation is not deterministic\n");
      return 1;
    }
  }
  // Set-up is the library work done before the passes: building the
  // companion arrays. It is done once for the passes, then again after
  // every measured pass into a copy that is dropped, so its repetitions
  // span the run like the passes do; the reported time is the best.
  double setup_s = 0.0;
  int set_ups = 0;
  const auto set_up = [&](std::vector<array::Array>* out) {
    const int64_t start = NowNs();
    const bool ok = BuildCompanions(in, out);
    const double s = static_cast<double>(NowNs() - start) / 1e9;
    setup_s = set_ups++ == 0 ? s : std::min(setup_s, s);
    return ok;
  };
  if (!set_up(&in.companion)) {
    std::fprintf(stderr, "set-up failed: a companion insert failed\n");
    return 1;
  }

  Tracer tracer;
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<uint64_t> digests;
  const auto run_pass = [&](int pass, int threads, bool check, bool record,
                            Stats* stats) {
    tracer.set_pass(pass);
    tracer.set_recording(record);
    const int64_t start = NowNs();
    {
      Span span(tracer, "bench.pass");
      PassRunner runner(in, tracer, threads, check, stats);
      digests.push_back(runner.Run());
      attempted += runner.attempted();
      failed += runner.failed();
      for (const std::string& e : runner.errors()) {
        errors.push_back("pass " + std::to_string(pass) + ": " + e);
      }
    }
    tracer.set_recording(false);
    if (stats != nullptr) {
      stats->Sample("run_s", static_cast<double>(NowNs() - start) / 1e9);
    }
  };

  // Untimed warm-up: every oracle on, the data plane on one thread. Its
  // digest must equal the kThreads passes'.
  run_pass(0, kCheckThreads, /*check=*/true, /*record=*/false, nullptr);

  // What the warm-up freed goes back to the system, so the measured passes'
  // resident growth is their own.
  malloc_trim(0);
  const int64_t resident_before = ResidentBytes();

  // Measured passes: a fixed number per workload, pass k starting no
  // earlier than k/N of --seconds, so every run samples each unit the same
  // number of times over the same span of the host's speed swings. Passes
  // that overrun the schedule run back to back; none starts after
  // kCapFactor x --seconds. A traced run alternates traced and untraced
  // passes so the tracing overhead is measured under the same conditions.
  Stats untraced;
  Stats traced;
  const int planned = MeasuredPasses(args.workload, args.seconds);
  const int64_t measure_start = NowNs();
  int passes = 0;
  for (; passes < planned; ++passes) {
    const double elapsed =
        static_cast<double>(NowNs() - measure_start) / 1e9;
    if (passes >= kMinPasses && elapsed >= kCapFactor * args.seconds) break;
    const double wait = args.seconds * passes / planned - elapsed;
    if (wait > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    const int pass = 1 + passes;
    const bool record = args.trace && passes % 2 == 1;
    Stats& stats = record ? traced : untraced;
    stats.BeginPass();
    run_pass(pass, kThreads, /*check=*/false, record, &stats);
    std::vector<array::Array> dropped;
    if (!set_up(&dropped)) errors.push_back("a companion insert failed");
  }
  const double measuring_s =
      static_cast<double>(NowNs() - measure_start) / 1e9;
  const double calibration_end_ms = CalibrationMs();
  for (const uint64_t d : digests) {
    if (d != digests.front()) {
      errors.push_back("result digest differs between passes (" + Hex(d) +
                       " vs " + Hex(digests.front()) + ")");
      break;
    }
  }
  const std::string digest = Hex(digests.front());
  if (!args.expect_digest.empty() && args.expect_digest != digest) {
    errors.push_back("result digest " + digest + " differs from the expected " +
                     args.expect_digest);
  }
  const bool correct = errors.empty();
  for (const std::string& e : errors) {
    std::fprintf(stderr, "elastic_cycle_bench: %s\n", e.c_str());
  }

  const double peak_mb =
      static_cast<double>(untraced.peak_resident_bytes - resident_before) /
      (1024.0 * 1024.0);

  const std::string provenance =
      "\"workload\": " + JsonString(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"digest\": " + JsonString(digest) +
      ", \"input_digest\": " + JsonString(Hex(in.digest)) +
      ", \"cpu_model\": " + JsonString(CpuModel()) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": " + JsonString(EBENCH_COMPILER) +
      ", \"build_type\": " + JsonString(EBENCH_BUILD_TYPE) +
      ", \"threads\": {\"data_plane\": " + std::to_string(kThreads) +
      ", \"ingest\": " + std::to_string(kThreads) +
      ", \"reorg_copy\": " + std::to_string(kThreads) +
      ", \"check_pass_data_plane\": " + std::to_string(kCheckThreads) + "}" +
      ", \"measured_passes\": " + std::to_string(passes) +
      ", \"planned_passes\": " + std::to_string(planned) +
      ", \"set_ups\": " + std::to_string(set_ups) +
      ", \"measuring_s\": " + std::to_string(measuring_s) +
      ", \"pass_s_median\": " +
      std::to_string(Percentile(untraced.All("run_s"), 50)) +
      ", \"calibration_ms\": [" + std::to_string(calibration_start_ms) + ", " +
      std::to_string(calibration_end_ms) + "]";
  std::printf("{\"provenance\": {%s}}\n", provenance.c_str());

  std::vector<Metric> metrics;
  if (args.trace) {
    const double traced_run = Percentile(traced.All("run_s"), 50);
    const double untraced_run = Percentile(untraced.All("run_s"), 50);
    metrics = PerLayer(traced, tracer.LayerSelfNs(),
                       Ratio(traced_run, untraced_run));
    if (!args.trace_out.empty()) {
      const std::string other =
          provenance + ", \"traced_passes\": " +
          std::to_string(traced.passes) +
          ", \"traced_run_s\": " + std::to_string(traced_run) +
          ", \"untraced_run_s\": " + std::to_string(untraced_run);
      if (!tracer.WriteChromeTrace(args.trace_out, other)) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
    }
  } else {
    metrics = EndToEnd(untraced, setup_s, peak_mb);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
      ", \"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed,
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ebench

int main(int argc, char** argv) { return ebench::Main(argc, argv); }
