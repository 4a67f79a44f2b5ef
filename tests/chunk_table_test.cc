// Differential tests of array::ChunkTable, the keyed, ordered container
// behind Array and Cluster, against a std::map oracle; plus Array-level
// checks that its enumerations equal a sort-based oracle and that one array
// serves concurrent readers.

#include "array/chunk_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "array/array.h"
#include "array/cell_span.h"
#include "util/rng.h"

namespace arraydb::array {
namespace {

struct Entry {
  Coordinates coords;
  int64_t payload = 0;
};

using Table = ChunkTable<Entry, &Entry::coords>;
using Oracle = std::map<Coordinates, int64_t>;

int64_t Uniform(util::Rng& rng, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  rng.NextBounded(static_cast<uint64_t>(hi - lo + 1)));
}

template <typename T>
void Shuffle(util::Rng& rng, std::vector<T>& v) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBounded(i)]);
  }
}

enum class History { kTimeMajor, kReverse, kShuffled, kNegative };

// Distinct keys of rank `dims` in the order `history` inserts them.
std::vector<Coordinates> MakeHistory(util::Rng& rng, size_t dims,
                                     History history) {
  const int64_t lo = history == History::kNegative ? -9 : 0;
  const int64_t hi = history == History::kNegative ? 2 : 7;
  Oracle distinct;
  const size_t n = 40 + rng.NextBounded(400);
  for (size_t i = 0; i < n; ++i) {
    Coordinates c(dims);
    for (auto& v : c) v = Uniform(rng, lo, hi);
    distinct.emplace(std::move(c), 0);
  }
  std::vector<Coordinates> out;
  for (const auto& [c, unused] : distinct) out.push_back(c);
  switch (history) {
    case History::kTimeMajor:
      break;
    case History::kReverse:
      std::reverse(out.begin(), out.end());
      break;
    case History::kShuffled:
    case History::kNegative:
      Shuffle(rng, out);
      break;
  }
  return out;
}

std::vector<std::pair<Coordinates, int64_t>> Walk(const Table& t) {
  std::vector<std::pair<Coordinates, int64_t>> out;
  for (const auto& [coords, entry] : t) {
    EXPECT_EQ(&coords, &entry.coords) << "key not read through the entry";
    out.emplace_back(coords, entry.payload);
  }
  return out;
}

std::vector<std::pair<Coordinates, int64_t>> Walk(const Oracle& o) {
  return {o.begin(), o.end()};
}

bool InBox(const Coordinates& c, const Coordinates& lo,
           const Coordinates& hi) {
  for (size_t d = 0; d < lo.size() && d < c.size(); ++d) {
    if (c[d] < lo[d]) return false;
  }
  for (size_t d = 0; d < hi.size() && d < c.size(); ++d) {
    if (c[d] > hi[d]) return false;
  }
  return true;
}

std::vector<std::pair<Coordinates, int64_t>> BoxWalk(const Table& t,
                                                     const Coordinates& lo,
                                                     const Coordinates& hi) {
  std::vector<std::pair<Coordinates, int64_t>> out;
  t.ForEachInBox(lo, hi, [&out](const Entry& e) {
    out.emplace_back(e.coords, e.payload);
  });
  return out;
}

std::vector<std::pair<Coordinates, int64_t>> BoxFilter(const Oracle& o,
                                                       const Coordinates& lo,
                                                       const Coordinates& hi) {
  std::vector<std::pair<Coordinates, int64_t>> out;
  for (const auto& [c, payload] : o) {
    if (InBox(c, lo, hi)) out.emplace_back(c, payload);
  }
  return out;
}

// Boxes of every shape the walk must handle: open, empty, inverted, prefix
// bounds, and random.
std::vector<std::pair<Coordinates, Coordinates>> MakeBoxes(
    util::Rng& rng, size_t dims, const std::vector<Coordinates>& keys) {
  std::vector<std::pair<Coordinates, Coordinates>> boxes;
  boxes.emplace_back(Coordinates{}, Coordinates{});
  boxes.emplace_back(Coordinates(dims, INT64_MIN / 2),
                     Coordinates(dims, INT64_MAX / 2));
  for (int i = 0; i < 4; ++i) {
    const Coordinates& c = keys[rng.NextBounded(keys.size())];
    boxes.emplace_back(c, c);
    boxes.emplace_back(Coordinates{c[0]}, Coordinates{c[0]});
    boxes.emplace_back(c, Coordinates{});
    boxes.emplace_back(Coordinates{}, c);
  }
  boxes.emplace_back(Coordinates(dims, 100), Coordinates(dims, 100));
  boxes.emplace_back(Coordinates(dims, -100), Coordinates(dims, -50));
  for (size_t d : {size_t{0}, dims - 1}) {
    Coordinates lo(dims, -3);
    Coordinates hi(dims, 4);
    std::swap(lo[d], hi[d]);
    boxes.emplace_back(lo, hi);
  }
  for (int i = 0; i < 24; ++i) {
    Coordinates lo(dims);
    Coordinates hi(dims);
    for (size_t d = 0; d < dims; ++d) {
      lo[d] = Uniform(rng, -11, 9);
      hi[d] = lo[d] + Uniform(rng, -1, 6);
    }
    boxes.emplace_back(lo, hi);
  }
  return boxes;
}

TEST(ChunkTableTest, DifferentialAgainstOrderedMap) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const size_t dims = 1 + seed % 3;
    const auto history = static_cast<History>(seed % 4);
    const auto keys = MakeHistory(rng, dims, history);
    SCOPED_TRACE(::testing::Message() << "seed " << seed);

    Table table;
    Oracle oracle;
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.begin(), table.end());
    for (size_t i = 0; i < keys.size(); ++i) {
      const auto payload = static_cast<int64_t>(i);
      const auto [entry, inserted] = table.FindOrInsert(
          keys[i], [&] { return Entry{keys[i], payload}; });
      ASSERT_TRUE(inserted);
      EXPECT_EQ(entry->payload, payload);
      oracle.emplace(keys[i], payload);
      // A duplicate is rejected and leaves the stored entry untouched.
      const Coordinates& old = keys[rng.NextBounded(i + 1)];
      const auto [again, dup] =
          table.FindOrInsert(old, [&] { return Entry{old, -1}; });
      EXPECT_FALSE(dup);
      EXPECT_EQ(again->payload, oracle.at(old));
      if (i % 37 == 0) {
        ASSERT_EQ(Walk(table), Walk(oracle)) << "step " << i;
      }
    }
    ASSERT_EQ(table.size(), oracle.size());
    ASSERT_EQ(Walk(table), Walk(oracle));
    // The index keeps its load at most 1/2 in a power-of-two slot count.
    EXPECT_GE(table.bucket_count(), 2 * table.size());
    EXPECT_EQ(table.bucket_count() & (table.bucket_count() - 1), 0u);

    for (const auto& [c, payload] : oracle) {
      const Entry* e = table.Find(c);
      ASSERT_NE(e, nullptr);
      EXPECT_EQ(e->payload, payload);
    }
    for (int i = 0; i < 64; ++i) {
      Coordinates probe(dims);
      for (auto& v : probe) v = Uniform(rng, -12, 10);
      const Entry* e = table.Find(probe);
      EXPECT_EQ(e != nullptr, oracle.contains(probe));
    }
    EXPECT_EQ(table.Find(Coordinates(dims + 1, 0)), nullptr);

    for (const auto& [lo, hi] : MakeBoxes(rng, dims, keys)) {
      EXPECT_EQ(BoxWalk(table, lo, hi), BoxFilter(oracle, lo, hi))
          << "box " << CoordinatesToString(lo) << ".."
          << CoordinatesToString(hi);
    }
  }
}

TEST(ChunkTableTest, CopiedTableStaysIndependent) {
  util::Rng rng(11);
  const auto keys = MakeHistory(rng, 2, History::kShuffled);
  Table original;
  for (size_t i = 0; i < keys.size(); ++i) {
    original.FindOrInsert(keys[i], [&] {
      return Entry{keys[i], static_cast<int64_t>(i)};
    });
  }
  const auto snapshot = Walk(original);

  Table copy = original;
  ASSERT_TRUE(
      copy.FindOrInsert({-50, 0}, [] { return Entry{{-50, 0}, 7}; }).second);
  copy.Find(keys[0])->payload = -1;
  EXPECT_EQ(Walk(original), snapshot);
  EXPECT_EQ(original.Find({-50, 0}), nullptr);
  EXPECT_EQ(Walk(copy).front().first, (Coordinates{-50, 0}));

  const auto copy_snapshot = Walk(copy);
  ASSERT_TRUE(original.FindOrInsert({60, 0}, [] { return Entry{{60, 0}, 8}; })
                  .second);
  EXPECT_EQ(Walk(copy), copy_snapshot);
  EXPECT_EQ(copy.Find({60, 0}), nullptr);
}

// -- Array over the table -----------------------------------------------------

ArraySchema GridSchema() {
  return ArraySchema("G",
                     {DimensionDesc{"t", 0, 11, 2, false},
                      DimensionDesc{"x", -8, 7, 4, false},
                      DimensionDesc{"y", 0, 15, 4, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
}

// Every chunk's cells in insertion order, keyed (and so sorted) by chunk.
using CellOracle = std::map<Coordinates, std::vector<Cell>>;

std::vector<Cell> OracleCells(const CellOracle& oracle) {
  std::vector<Cell> out;
  for (const auto& [coords, cells] : oracle) {
    out.insert(out.end(), cells.begin(), cells.end());
  }
  return out;
}

void ExpectSameCells(const std::vector<Cell>& got,
                     const std::vector<Cell>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pos, want[i].pos) << "cell " << i;
    EXPECT_EQ(got[i].values, want[i].values) << "cell " << i;
  }
}

// Inserts shuffled random cells into `a`, mirroring them in `oracle`.
void InsertShuffled(util::Rng& rng, Array& a, CellOracle& oracle, int n) {
  std::vector<Coordinates> positions;
  for (int i = 0; i < n; ++i) {
    positions.push_back(Coordinates{Uniform(rng, 0, 11), Uniform(rng, -8, 7),
                                    Uniform(rng, 0, 15)});
  }
  Shuffle(rng, positions);
  for (size_t i = 0; i < positions.size(); ++i) {
    const std::vector<double> values{static_cast<double>(i)};
    ASSERT_TRUE(a.InsertCell(positions[i], values).ok());
    oracle[a.schema().ChunkOf(positions[i])].push_back(
        Cell{positions[i], values});
  }
}

TEST(ChunkTableTest, ArrayEnumerationsEqualSortOracle) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Array a(GridSchema());
    CellOracle oracle;
    InsertShuffled(rng, a, oracle, 50 + static_cast<int>(seed) * 40);

    ASSERT_EQ(a.num_chunks(), static_cast<int64_t>(oracle.size()));
    const auto sorted = a.SortedChunks();
    const auto infos = a.ChunkInfos();
    ASSERT_EQ(sorted.size(), oracle.size());
    ASSERT_EQ(infos.size(), oracle.size());
    size_t i = 0;
    for (const auto& [coords, cells] : oracle) {
      EXPECT_EQ(sorted[i]->coords(), coords);
      EXPECT_EQ(infos[i].coords, coords);
      EXPECT_EQ(infos[i].cell_count, static_cast<int64_t>(cells.size()));
      EXPECT_EQ(a.FindChunk(coords), sorted[i]);
      ++i;
    }
    i = 0;
    for (const auto& [coords, chunk] : a.chunks()) {
      EXPECT_EQ(&chunk, sorted[i++]);
      EXPECT_EQ(&coords, &chunk.coords());
    }
    ExpectSameCells(a.AllCells(), OracleCells(oracle));
    // Misses: an unpopulated grid position, and positions of the wrong rank.
    for (int64_t t = 0; t < 6; ++t) {
      const Coordinates c{t, 3, 3};
      EXPECT_EQ(a.FindChunk(c) != nullptr, oracle.contains(c));
    }
    EXPECT_EQ(a.FindChunk({0, 0}), nullptr);
    EXPECT_EQ(a.FindChunk({}), nullptr);
  }
}

TEST(ChunkTableTest, CellAppendedToOldChunkKeepsChunkOrder) {
  Array a(GridSchema());
  CellOracle oracle;
  const auto insert = [&](const Coordinates& pos, double v) {
    ASSERT_TRUE(a.InsertCell(pos, {v}).ok());
    oracle[a.schema().ChunkOf(pos)].push_back(Cell{pos, {v}});
  };
  insert({0, -8, 0}, 1.0);
  insert({5, 0, 9}, 2.0);
  insert({11, 7, 15}, 3.0);
  // The oldest chunk grows after newer chunks exist.
  insert({1, -7, 1}, 4.0);
  insert({0, -5, 3}, 5.0);
  ASSERT_EQ(a.num_chunks(), 3);
  const Chunk* oldest = a.FindChunk({0, 0, 0});
  ASSERT_NE(oldest, nullptr);
  EXPECT_EQ(oldest->cell_count(), 3);
  EXPECT_EQ(a.SortedChunks().front(), oldest);
  ExpectSameCells(a.AllCells(), OracleCells(oracle));
  EXPECT_EQ(a.total_cells(), 5);
}

TEST(ChunkTableTest, SyntheticChunksEnumerateInOrder) {
  util::Rng rng(5);
  Array a(GridSchema());
  std::map<Coordinates, ChunkInfo> oracle;
  std::vector<Coordinates> grid;
  for (int64_t t = 0; t < 6; ++t) {
    for (int64_t x = 0; x < 4; ++x) {
      for (int64_t y = 0; y < 4; ++y) grid.push_back({t, x, y});
    }
  }
  Shuffle(rng, grid);
  for (const auto& c : grid) {
    if (rng.NextBounded(3) == 0) continue;
    const ChunkInfo info{c, Uniform(rng, 1, 50), Uniform(rng, 8, 4000)};
    ASSERT_TRUE(a.AddSyntheticChunk(info).ok());
    oracle.emplace(c, info);
  }
  for (const auto& [c, info] : oracle) {
    EXPECT_FALSE(a.AddSyntheticChunk(ChunkInfo{c, 1, 1}).ok())
        << "duplicate accepted";
  }
  EXPECT_FALSE(a.AddSyntheticChunk(ChunkInfo{{6, 0, 0}, 1, 1}).ok());
  const auto infos = a.ChunkInfos();
  ASSERT_EQ(infos.size(), oracle.size());
  size_t i = 0;
  int64_t bytes = 0;
  for (const auto& [c, info] : oracle) {
    EXPECT_EQ(infos[i].coords, c);
    EXPECT_EQ(infos[i].cell_count, info.cell_count);
    EXPECT_EQ(infos[i].bytes, info.bytes);
    ASSERT_NE(a.FindChunk(c), nullptr);
    EXPECT_EQ(a.FindChunk(c)->bytes(), info.bytes);
    bytes += info.bytes;
    ++i;
  }
  EXPECT_EQ(a.total_bytes(), bytes);
  EXPECT_TRUE(a.AllCells().empty());
}

// Const reads of one shared array from several threads (what serving
// closures do) need no synchronization: nothing is built lazily on read.
TEST(ChunkTableTest, ConcurrentConstReadsOfOneArray) {
  util::Rng rng(3);
  Array a(GridSchema());
  CellOracle oracle;
  InsertShuffled(rng, a, oracle, 600);
  const std::vector<Cell> want = OracleCells(oracle);
  std::vector<Coordinates> keys;
  for (const auto& [coords, cells] : oracle) keys.push_back(coords);

  constexpr int kThreads = 4;
  std::vector<int64_t> mismatches(kThreads, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      int64_t bad = 0;
      for (int round = 0; round < 20; ++round) {
        for (const auto& c : keys) bad += a.FindChunk(c) == nullptr ? 1 : 0;
        const auto sorted = a.SortedChunks();
        size_t i = 0;
        for (const auto& [coords, chunk] : a.chunks()) {
          bad += (i < sorted.size() && sorted[i] == &chunk) ? 0 : 1;
          bad += coords == keys[i] ? 0 : 1;
          ++i;
        }
        const CellSpanView view(a);
        bad += view.num_cells() == static_cast<int64_t>(want.size()) ? 0 : 1;
        view.ForEachCell([&](const Chunk& chunk, size_t j, int64_t g) {
          const size_t k = static_cast<size_t>(g);
          bad += chunk.attr_value(0, j) == want[k].values[0] ? 0 : 1;
        });
      }
      mismatches[static_cast<size_t>(t)] = bad;
    });
  }
  for (auto& r : readers) r.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace arraydb::array
