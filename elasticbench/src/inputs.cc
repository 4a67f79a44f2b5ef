#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/rng.h"

namespace ebench {

using arraydb::array::Array;
using arraydb::array::ArraySchema;
using arraydb::array::AttrType;
using arraydb::array::AttributeDesc;
using arraydb::array::ChunkInfo;
using arraydb::array::Coordinates;
using arraydb::array::DimensionDesc;
using arraydb::core::PartitionerKind;
using arraydb::util::HashCombine;
using arraydb::util::Rng;

void Hasher::AddDouble(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

void Hasher::AddString(const std::string& s) {
  for (const char c : s) Add(static_cast<unsigned char>(c));
  Add(s.size());
}

namespace {

// Salts separating the random streams drawn from one seed.
constexpr uint64_t kBand1Salt = 0xB1;
constexpr uint64_t kBand2Salt = 0xB2;
constexpr uint64_t kTrackSalt = 0x7A;
constexpr uint64_t kCatalogSalt = 0xCA;
constexpr uint64_t kLookupSalt = 0x10;

ArraySchema Schema3(const std::string& name, int cycles, int64_t w, int64_t h,
                    int64_t chunk, std::vector<AttributeDesc> attrs) {
  return ArraySchema(name,
                     {DimensionDesc{"time", 0, cycles - 1, 1, false},
                      DimensionDesc{"x", 0, w - 1, chunk, false},
                      DimensionDesc{"y", 0, h - 1, chunk, false}},
                     std::move(attrs));
}

// Per-cycle occupancy bitmaps over the x/y cell grid.
struct Occupancy {
  int64_t w = 0, h = 0;
  std::vector<std::vector<uint8_t>> bits;  // [cycle][x * h + y]

  Occupancy(int cycles, int64_t w_, int64_t h_)
      : w(w_), h(h_),
        bits(static_cast<size_t>(cycles),
             std::vector<uint8_t>(static_cast<size_t>(w_ * h_), 0)) {}
  uint8_t& at(int t, int64_t x, int64_t y) {
    return bits[static_cast<size_t>(t)][static_cast<size_t>(x * h + y)];
  }
};

// A MODIS-like raster band: land (the left 5/8 of x) at 90% occupancy,
// ocean at 15%. Attributes (si_value, radiance, reflectance), as in
// workload::MakeModisBand, drawn from one stream per time step.
void MakeRaster(uint64_t seed, int cycles, int64_t w, int64_t h,
                std::vector<CellBatch>* cells, Occupancy* occ) {
  const int64_t land_limit = w * 5 / 8;
  const double y_center = static_cast<double>(h) / 2.0;
  cells->assign(static_cast<size_t>(cycles), CellBatch{});
  for (int t = 0; t < cycles; ++t) {
    Rng rng(HashCombine(seed ^ kBand1Salt, static_cast<uint64_t>(t)));
    CellBatch& batch = (*cells)[static_cast<size_t>(t)];
    for (int64_t x = 0; x < w; ++x) {
      for (int64_t y = 0; y < h; ++y) {
        const double occupancy = x < land_limit ? 0.9 : 0.15;
        if (rng.NextDouble() >= occupancy) continue;
        const double dy = std::abs(static_cast<double>(y) - y_center);
        const double radiance = 100.0 + 2.0 * static_cast<double>(x) -
                                1.5 * dy + 3.0 * std::sin(t) +
                                rng.NextGaussian();
        const double reflectance = 0.2 + 0.04 * dy + 0.01 * rng.NextGaussian();
        batch.pos.insert(batch.pos.end(), {t, x, y});
        batch.values.insert(batch.values.end(),
                            {std::round(radiance * 10.0), radiance,
                             reflectance});
        occ->at(t, x, y) = 1;
      }
    }
  }
}

// The second band of the raster (near infrared), one array per time step:
// its own occupancy draw over the same grid, so the position join with
// band 1 is a partial overlap.
void MakeSecondBand(uint64_t seed, int cycles, int64_t w, int64_t h,
                    int64_t chunk, Inputs* in, Hasher* hasher) {
  in->companion_schema = Schema3("band2", cycles, w, h, chunk,
                                 {AttributeDesc{"nir", AttrType::kDouble}});
  const int64_t land_limit = w * 5 / 8;
  for (int t = 0; t < cycles; ++t) {
    Rng rng(HashCombine(seed ^ kBand2Salt, static_cast<uint64_t>(t)));
    CellBatch band;
    for (int64_t x = 0; x < w; ++x) {
      for (int64_t y = 0; y < h; ++y) {
        const double occupancy = x < land_limit ? 0.85 : 0.2;
        if (rng.NextDouble() >= occupancy) continue;
        const double nir =
            0.3 + 0.002 * static_cast<double>(x) + 0.02 * rng.NextGaussian();
        hasher->AddInt(x * h + y);
        hasher->AddDouble(nir);
        band.pos.insert(band.pos.end(), {t, x, y});
        band.values.push_back(nir);
      }
    }
    in->companion_cells.push_back(std::move(band));
  }
}

// AIS-like broadcasts: ships loiter near one of two ports (80%) or steam
// along the lane between them (20%). One broadcast per cell and month:
// a draw landing on an occupied cell is dropped, so inserts never fail.
void MakeTracks(uint64_t seed, int months, int64_t w, int64_t h,
                int per_month, int ships, std::vector<CellBatch>* cells,
                Occupancy* occ) {
  const double wd = static_cast<double>(w);
  const double hd = static_cast<double>(h);
  const double port_x[2] = {0.1875 * wd, 0.8125 * wd};
  const double port_y[2] = {0.25 * hd, 0.75 * hd};
  const double port_sigma = wd / 40.0;
  const double lane_sigma = wd / 128.0;
  cells->assign(static_cast<size_t>(months), CellBatch{});
  for (int t = 0; t < months; ++t) {
    Rng rng(HashCombine(seed ^ kTrackSalt, static_cast<uint64_t>(t)));
    CellBatch& batch = (*cells)[static_cast<size_t>(t)];
    for (int i = 0; i < per_month; ++i) {
      const int ship = static_cast<int>(rng.NextBounded(ships));
      const int home = ship % 2;
      double x, y, speed;
      if (rng.NextDouble() < 0.8) {
        x = port_x[home] + rng.NextGaussian() * port_sigma;
        y = port_y[home] + rng.NextGaussian() * port_sigma;
        speed = std::abs(rng.NextGaussian()) * 2.0;
      } else {
        const double progress = rng.NextDouble();
        x = port_x[0] + (port_x[1] - port_x[0]) * progress +
            rng.NextGaussian() * lane_sigma;
        y = port_y[0] + (port_y[1] - port_y[0]) * progress +
            rng.NextGaussian() * lane_sigma;
        speed = 10.0 + std::abs(rng.NextGaussian()) * 4.0;
      }
      const int64_t ix = std::clamp<int64_t>(std::llround(x), 0, w - 1);
      const int64_t iy = std::clamp<int64_t>(std::llround(y), 0, h - 1);
      if (occ->at(t, ix, iy)) continue;
      occ->at(t, ix, iy) = 1;
      batch.pos.insert(batch.pos.end(), {t, ix, iy});
      batch.values.insert(batch.values.end(),
                          {std::round(speed), static_cast<double>(ship),
                           static_cast<double>(ship * 100 + t / 3)});
    }
  }
}

// The previous month's broadcasts moved onto month t: the position join
// with month t counts cells busy in both months (recurring traffic).
void MakePreviousMonth(int months, const std::vector<CellBatch>& cells,
                       Inputs* in) {
  in->companion_schema = in->data_schema;
  for (int t = 0; t < months; ++t) {
    CellBatch prev;
    if (t > 0) {
      const CellBatch& batch = cells[static_cast<size_t>(t - 1)];
      const size_t n = batch.pos.size() / kDims;
      for (size_t i = 0; i < n; ++i) {
        prev.pos.insert(prev.pos.end(), {static_cast<int64_t>(t),
                                         batch.pos[i * kDims + 1],
                                         batch.pos[i * kDims + 2]});
      }
      prev.values = batch.values;
    }
    in->companion_cells.push_back(std::move(prev));
  }
}

// Metadata-only catalog at paper scale: every cycle covers ~90% of an
// x-by-y chunk grid (the rest is swath gaps), chunk sizes are lognormal and
// scaled up by a hot spot.
void MakeCatalog(uint64_t seed, int cycles, int64_t w, int64_t h,
                 double mean_bytes, Inputs* in, Occupancy* occ) {
  const int64_t bytes_per_cell = in->catalog_schema.BytesPerCell();
  const double hot_x = 0.3 * static_cast<double>(w);
  const double hot_y = 0.6 * static_cast<double>(h);
  const double hot_sigma = static_cast<double>(w) / 10.0;
  in->catalog.assign(static_cast<size_t>(cycles), {});
  for (int t = 0; t < cycles; ++t) {
    for (int64_t x = 0; x < w; ++x) {
      for (int64_t y = 0; y < h; ++y) {
        uint64_t key =
            HashCombine(seed ^ kCatalogSalt, static_cast<uint64_t>(t));
        key = HashCombine(key, static_cast<uint64_t>(x));
        key = HashCombine(key, static_cast<uint64_t>(y));
        if (key % 1000 >= 900) continue;
        Rng rng(key);
        const double dx = static_cast<double>(x) - hot_x;
        const double dy = static_cast<double>(y) - hot_y;
        const double hot =
            1.0 + 6.0 * std::exp(-(dx * dx + dy * dy) /
                                 (2.0 * hot_sigma * hot_sigma));
        ChunkInfo info;
        info.coords = {t, x, y};
        const double bytes = mean_bytes * hot * rng.NextLogNormal(0.0, 0.8);
        info.bytes =
            std::max<int64_t>(bytes_per_cell, static_cast<int64_t>(bytes));
        info.cell_count = info.bytes / bytes_per_cell;
        in->catalog[static_cast<size_t>(t)].push_back(std::move(info));
        occ->at(t, x, y) = 1;
      }
    }
  }
}

// Point reads of cycle c: 70% draw a stored cell (or chunk) of a cycle
// <= c; the rest draw a uniform position of a cycle <= c, a hit only when
// it happens to be occupied.
void MakeLookups(uint64_t seed, int per_cycle, const ArraySchema& schema,
                 const std::vector<CellBatch>* cells, Occupancy& occ,
                 Inputs* in) {
  in->lookups.assign(static_cast<size_t>(in->cycles), LookupBatch{});
  for (int c = 0; c < in->cycles; ++c) {
    Rng rng(HashCombine(seed ^ kLookupSalt, static_cast<uint64_t>(c)));
    LookupBatch& batch = in->lookups[static_cast<size_t>(c)];
    for (int i = 0; i < per_cycle; ++i) {
      const int t = static_cast<int>(rng.NextBounded(c + 1));
      Coordinates pos;
      if (cells != nullptr && rng.NextDouble() < 0.7 &&
          !(*cells)[static_cast<size_t>(t)].pos.empty()) {
        const CellBatch& b = (*cells)[static_cast<size_t>(t)];
        const size_t idx = rng.NextBounded(b.pos.size() / kDims);
        pos.assign(b.pos.begin() + idx * kDims,
                   b.pos.begin() + (idx + 1) * kDims);
      } else {
        pos = {t, static_cast<int64_t>(rng.NextBounded(occ.w)),
               static_cast<int64_t>(rng.NextBounded(occ.h))};
      }
      const Coordinates chunk = schema.ChunkOf(pos);
      batch.cell.insert(batch.cell.end(), pos.begin(), pos.end());
      batch.chunk.insert(batch.chunk.end(), chunk.begin(), chunk.end());
      batch.expect_hit.push_back(occ.at(t, pos[1], pos[2]));
    }
  }
}

// Spreads the scale-outs from kInitialNodes to `final_nodes` over cycles
// 1..cycles-1, one node each.
std::vector<int> ScaleOutSchedule(int cycles, int final_nodes) {
  std::vector<int> add(static_cast<size_t>(cycles), 0);
  const int scaleouts = final_nodes - kInitialNodes;
  for (int k = 0; k < scaleouts; ++k) {
    add[static_cast<size_t>(1 + k * (cycles - 1) / scaleouts)] += 1;
  }
  return add;
}

std::vector<AttributeDesc> RasterAttrs() {
  return {AttributeDesc{"si_value", AttrType::kInt32},
          AttributeDesc{"radiance", AttrType::kDouble},
          AttributeDesc{"reflectance", AttrType::kDouble}};
}

double TotalGb(const std::vector<CellBatch>& cells, int64_t bytes_per_cell) {
  double cells_total = 0.0;
  for (const CellBatch& b : cells) {
    cells_total += static_cast<double>(b.pos.size() / kDims);
  }
  return cells_total * static_cast<double>(bytes_per_cell) / 1e9;
}

// modis-raster: a dense raster with few, large chunks (16 x 16 cells); the
// operator kernels do most of the work.
void MakeModis(uint64_t seed, bool smoke, Inputs* in, Hasher* hasher) {
  const int64_t w = smoke ? 128 : 512;
  const int64_t h = smoke ? 64 : 256;
  const int64_t chunk = 16;
  in->cycles = smoke ? 4 : 12;
  in->partitioner = PartitionerKind::kIncrementalQuadtree;
  in->nodes_to_add = ScaleOutSchedule(in->cycles, smoke ? 4 : 8);
  in->data_schema = Schema3("band1", in->cycles, w, h, chunk, RasterAttrs());
  Occupancy occ(in->cycles, w, h);
  MakeRaster(seed, in->cycles, w, h, &in->cells, &occ);
  MakeSecondBand(seed, in->cycles, w, h, chunk, in, hasher);
  in->node_capacity_gb =
      TotalGb(in->cells, in->data_schema.BytesPerCell()) / (smoke ? 3 : 6);
  MakeLookups(seed, smoke ? 2000 : 16000, in->data_schema, &in->cells, occ, in);
  for (int64_t k = 0; k <= 20000; k += 7) in->join_keys.insert(k);
  SuiteParams& s = in->suite;
  s.corner = {0.0, 0.25, 0.0, 0.25};
  s.hot = {0.25, 0.5, 0.25, 0.75};
  s.quantile_attr = 1;
  s.group_bin = 32;
  s.regrid_factor = 8;
  s.window_attr = 1;
  s.probes = 1;
  s.attr_join_attr = 0;
  s.knn_samples = 16;
}

// ais-tracks: sparse, skewed tracks in many tiny chunks (4 x 4 cells,
// about 7 cells each); per-chunk bookkeeping and point reads dominate.
void MakeAis(uint64_t seed, bool smoke, Inputs* in) {
  const int64_t w = smoke ? 128 : 512;
  const int64_t h = w;
  const int ships = 2000;
  in->cycles = smoke ? 4 : 12;
  in->partitioner = PartitionerKind::kKdTree;
  in->nodes_to_add = ScaleOutSchedule(in->cycles, smoke ? 4 : 8);
  in->data_schema = Schema3(
      "broadcast", in->cycles, w, h, 4,
      {AttributeDesc{"speed", AttrType::kInt32},
       AttributeDesc{"ship_id", AttrType::kInt32},
       AttributeDesc{"voyage_id", AttrType::kInt32}});
  Occupancy occ(in->cycles, w, h);
  MakeTracks(seed, in->cycles, w, h, smoke ? 2000 : 20000, ships, &in->cells,
             &occ);
  MakePreviousMonth(in->cycles, in->cells, in);
  in->node_capacity_gb =
      TotalGb(in->cells, in->data_schema.BytesPerCell()) / (smoke ? 3 : 6);
  int64_t writes = 0;
  for (const CellBatch& b : in->cells) {
    writes += static_cast<int64_t>(b.pos.size() / kDims);
  }
  // About ten point reads per write.
  MakeLookups(seed, static_cast<int>(10 * writes / in->cycles),
              in->data_schema, &in->cells, occ, in);
  for (int64_t ship = 0; ship < ships; ship += 7) in->join_keys.insert(ship);
  SuiteParams& s = in->suite;
  s.corner = {0.0, 0.25, 0.0, 0.25};
  s.hot = {0.1, 0.3, 0.15, 0.35};  // Around the first port.
  s.quantile_attr = 0;
  s.quantile = 0.9;
  s.group_bin = 16;
  s.regrid_factor = 8;
  s.window_attr = 0;
  s.probes = 2;
  s.probe_whole_array = true;
  s.attr_join_attr = 1;
  s.kmeans_on_positions = true;
  s.kmeans_k = 2;
  s.knn_samples = 32;
  s.knn_whole_array = true;
}

// elastic-growth: a metadata-only chunk stream at paper scale drives the
// placement, reorganization, pricing and serving layers; a small
// materialized raster sample keeps the operator suite running beside it.
void MakeElastic(uint64_t seed, bool smoke, Inputs* in, Hasher* hasher) {
  const int64_t grid = smoke ? 24 : 56;
  const int64_t sample = smoke ? 32 : 64;
  in->cycles = smoke ? 6 : 16;
  in->partitioner = PartitionerKind::kHilbertCurve;
  in->nodes_to_add = ScaleOutSchedule(in->cycles, smoke ? 6 : 16);
  in->increments_per_plan = 4;
  in->metadata_only = true;
  in->catalog_schema =
      Schema3("catalog", in->cycles, grid, grid, 1, RasterAttrs());
  Occupancy occ(in->cycles, grid, grid);
  MakeCatalog(seed, in->cycles, grid, grid, /*mean_bytes=*/1 << 20, in, &occ);
  double total_gb = 0.0;
  for (const auto& batch : in->catalog) {
    for (const ChunkInfo& info : batch) {
      total_gb += static_cast<double>(info.bytes) / 1e9;
      hasher->AddInt(info.bytes);
    }
  }
  in->node_capacity_gb = total_gb / (smoke ? 5 : 13);
  MakeLookups(seed, smoke ? 1000 : 8000, in->catalog_schema, nullptr, occ, in);

  in->data_schema =
      Schema3("sample", in->cycles, sample, sample, 16, RasterAttrs());
  Occupancy sample_occ(in->cycles, sample, sample);
  MakeRaster(seed, in->cycles, sample, sample, &in->cells, &sample_occ);
  MakeSecondBand(seed, in->cycles, sample, sample, 16, in, hasher);
  for (int64_t k = 0; k <= 20000; k += 7) in->join_keys.insert(k);
  SuiteParams& s = in->suite;
  s.corner = {0.0, 0.25, 0.0, 0.25};
  s.hot = {0.2, 0.4, 0.5, 0.7};
  s.group_bin = 16;
  s.regrid_factor = 4;
  s.kmeans_points = 512;
  s.knn_samples = 8;
  s.point_queries = 1;
}

}  // namespace

bool BuildCompanions(const Inputs& in, std::vector<Array>* out) {
  out->clear();
  const int attrs = in.companion_schema.num_attrs();
  std::vector<double> values(static_cast<size_t>(attrs));
  for (const CellBatch& batch : in.companion_cells) {
    Array array(in.companion_schema);
    const size_t n = batch.pos.size() / kDims;
    for (size_t i = 0; i < n; ++i) {
      const auto v = batch.values.begin() + static_cast<ptrdiff_t>(i * attrs);
      values.assign(v, v + attrs);
      const auto p = batch.pos.begin() + static_cast<ptrdiff_t>(i * kDims);
      if (!array.InsertCell(Coordinates(p, p + kDims), values).ok()) {
        return false;
      }
    }
    out->push_back(std::move(array));
  }
  return true;
}

bool MakeInputs(const std::string& workload, uint64_t seed, bool smoke,
                Inputs* out) {
  Inputs in;
  Hasher hasher;
  if (workload == "modis-raster") {
    MakeModis(seed, smoke, &in, &hasher);
  } else if (workload == "ais-tracks") {
    MakeAis(seed, smoke, &in);
  } else if (workload == "elastic-growth") {
    MakeElastic(seed, smoke, &in, &hasher);
  } else {
    return false;
  }
  for (CellBatch& b : in.cells) {
    std::vector<Coordinates> chunks;
    for (size_t i = 0; i < b.pos.size(); i += kDims) {
      chunks.push_back(in.data_schema.ChunkOf(
          Coordinates(b.pos.begin() + i, b.pos.begin() + i + kDims)));
    }
    std::sort(chunks.begin(), chunks.end());
    chunks.erase(std::unique(chunks.begin(), chunks.end()), chunks.end());
    for (const Coordinates& c : chunks) {
      b.chunks.insert(b.chunks.end(), c.begin(), c.end());
    }
    for (const int64_t v : b.pos) hasher.AddInt(v);
    for (const double v : b.values) hasher.AddDouble(v);
  }
  for (const LookupBatch& b : in.lookups) {
    for (const int64_t v : b.cell) hasher.AddInt(v);
    for (const uint8_t v : b.expect_hit) hasher.Add(v);
  }
  for (const int c : in.nodes_to_add) hasher.AddInt(c);
  in.digest = hasher.value();
  *out = std::move(in);
  return true;
}

}  // namespace ebench
