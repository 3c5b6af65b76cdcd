#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "gen/fractal.h"
#include "index/value_index.h"
#include "storage/page_file.h"

namespace fielddb {
namespace {

struct IndexFixture {
  std::unique_ptr<MemPageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<ValueIndex> index;
};

IndexFixture BuildIndex(IndexMethod method, const Field& field) {
  IndexFixture fx;
  fx.file = std::make_unique<MemPageFile>();
  fx.pool = std::make_unique<BufferPool>(fx.file.get(), 4096);
  auto idx = ValueIndex::Build(method, fx.pool.get(), field);
  EXPECT_TRUE(idx.ok());
  fx.index = std::move(idx).value();
  return fx;
}

// The invariant the whole vectorized pipeline rests on: every zone entry
// equals the interval recomputed from the slot's record bytes.
void ExpectZoneMapMatchesRecords(const CellStore& store) {
  ASSERT_EQ(store.zone_map().mins().size(), store.size());
  ASSERT_EQ(store.zone_map().maxs().size(), store.size());
  ASSERT_TRUE(store
                  .records().Scan(0, store.size(),
                        [&](uint64_t pos, const CellRecord& cell) {
                          EXPECT_EQ(store.zone_map().At(pos),
                                    cell.Interval())
                              << "slot " << pos;
                          return true;
                        })
                  .ok());
}

class ZoneMapTest : public ::testing::TestWithParam<IndexMethod> {};

TEST_P(ZoneMapTest, BuildFillsZoneMapFromRecords) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);
  ExpectZoneMapMatchesRecords(fx.index->cell_store());
}

TEST_P(ZoneMapTest, UpdateStormKeepsZoneMapConsistent) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);

  Rng rng(41);
  for (int round = 0; round < 150; ++round) {
    const CellId id =
        static_cast<CellId>(rng.NextBounded(field->NumCells()));
    const double base = rng.NextDouble(-5, 5);
    ASSERT_TRUE(fx.index
                    ->UpdateCellValues(
                        id, {base, base + rng.NextDouble(),
                             base + rng.NextDouble(),
                             base + rng.NextDouble()})
                    .ok());
    // The updated slot must be exact immediately...
    const uint64_t pos = fx.index->cell_store().PositionOf(id);
    CellRecord rec;
    ASSERT_TRUE(fx.index->cell_store().records().Get(pos, &rec).ok());
    ASSERT_EQ(fx.index->cell_store().zone_map().At(pos), rec.Interval());
  }
  // ...and the whole map exact at the end.
  ExpectZoneMapMatchesRecords(fx.index->cell_store());
}

TEST_P(ZoneMapTest, FilterZoneMapMatchesBruteForce) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);
  const CellStore& store = fx.index->cell_store();

  Rng rng(43);
  for (int i = 0; i < 20; ++i) {
    const ValueInterval q =
        ValueInterval::Of(rng.NextDouble(-2, 3), rng.NextDouble(-2, 3));
    std::vector<PosRange> ranges;
    store.zone_map().FilterRanges(q, &ranges);
    std::vector<PosRange> expect;
    ASSERT_TRUE(store
                    .records().Scan(0, store.size(),
                          [&](uint64_t pos, const CellRecord& cell) {
                            if (cell.Interval().Intersects(q)) {
                              AppendPosition(&expect, pos);
                            }
                            return true;
                          })
                    .ok());
    ASSERT_EQ(ranges, expect) << "query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ZoneMapTest,
    ::testing::Values(IndexMethod::kLinearScan, IndexMethod::kIAll,
                      IndexMethod::kIHilbert,
                      IndexMethod::kIntervalQuadtree, IndexMethod::kRowIp),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ZoneMapAttachTest, AttachRebuildsZoneMap) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  // Both slot layouts: the grid's lattice slots and explicit records.
  const ExplicitCellsField explicit_cells(*field);
  for (const Field* f : {static_cast<const Field*>(&*field),
                         static_cast<const Field*>(&explicit_cells)}) {
    SCOPED_TRACE(f->Lattice() ? "lattice" : "explicit");
    MemPageFile file;
    BufferPool pool(&file, 256);
    auto built = CellStore::Build(&pool, *f, {});
    ASSERT_TRUE(built.ok());
    const PageId first = built->first_page();
    const uint64_t n = built->size();

    auto attached =
        CellStore::Attach(&pool, first, n, built->records().slots());
    ASSERT_TRUE(attached.ok());
    EXPECT_EQ(attached->zone_map().mins(), built->zone_map().mins());
    EXPECT_EQ(attached->zone_map().maxs(), built->zone_map().maxs());
    ExpectZoneMapMatchesRecords(*attached);
  }
}

TEST(BoxZoneMapTest, FilterRangeIsFilterRangesRestrictedToTheRun) {
  // Random (u, v) boxes: the vector store's zone map.
  Rng rng(53);
  BoxZoneMap zones;
  for (int i = 0; i < 700; ++i) {
    const double u = rng.NextDouble(0, 10);
    const double v = rng.NextDouble(0, 10);
    Box<2> box;
    box.lo = {u, v};
    box.hi = {u + rng.NextDouble(0, 2), v + rng.NextDouble(0, 2)};
    zones.Append(box);
  }
  for (int iter = 0; iter < 200; ++iter) {
    const double u = rng.NextDouble(-1, 11);
    const double v = rng.NextDouble(-1, 11);
    Box<2> query;
    query.lo = {u, v};
    query.hi = {u + rng.NextDouble(0, 4), v + rng.NextDouble(0, 4)};
    const uint64_t begin = rng.NextBounded(zones.size());
    const uint64_t end = begin + rng.NextBounded(zones.size() - begin + 1);
    const PosRange run{begin, end};

    std::vector<PosRange> all;
    zones.FilterRanges(query, &all);
    std::vector<PosRange> expect;
    for (const PosRange& r : all) {
      const PosRange cut{std::max(r.begin, run.begin),
                         std::min(r.end, run.end)};
      if (cut.begin < cut.end) expect.push_back(cut);
    }
    std::vector<PosRange> got;
    zones.FilterRange(run, query, &got);
    EXPECT_EQ(got, expect) << "iter " << iter;
  }
}

TEST(ScanRangesFilteredTest, VisitsExactlyMatchingSlotsAndCountsSkips) {
  FractalOptions fo;
  fo.size_exp = 5;  // 1024 cells
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  MemPageFile file;
  BufferPool pool(&file, 256);
  auto store = CellStore::Build(&pool, *field, {});
  ASSERT_TRUE(store.ok());

  Rng rng(47);
  for (int iter = 0; iter < 10; ++iter) {
    // Disjoint ascending runs over the store, random query band.
    std::vector<PosRange> ranges;
    uint64_t cursor = 0;
    while (cursor + 8 < store->size()) {
      const uint64_t begin = cursor + rng.NextBounded(40);
      const uint64_t end =
          std::min<uint64_t>(begin + 1 + rng.NextBounded(120),
                             store->size());
      if (begin >= end) break;
      ranges.push_back(PosRange{begin, end});
      cursor = end + 1 + rng.NextBounded(30);
    }
    const ValueInterval q =
        ValueInterval::Of(rng.NextDouble(-2, 3), rng.NextDouble(-2, 3));

    // Ground truth from an unfiltered walk of the same runs.
    std::set<uint64_t> expect_visited;
    std::set<uint64_t> match_pages;  // distinct pages holding a match
    uint64_t total_slots = 0;
    uint64_t expect_pages = 0;
    for (const PosRange& r : ranges) {
      total_slots += r.length();
      expect_pages += (r.end - 1) / store->cells_per_page() -
                      r.begin / store->cells_per_page() + 1;
      ASSERT_TRUE(store
                      ->records().Scan(r.begin, r.end,
                             [&](uint64_t pos, const CellRecord& cell) {
                               if (cell.Interval().Intersects(q)) {
                                 expect_visited.insert(pos);
                                 match_pages.insert(
                                     pos / store->cells_per_page());
                               }
                               return true;
                             })
                      .ok());
    }

    for (const bool read_whole_runs : {true, false}) {
      std::set<uint64_t> visited;
      ZoneSkips skipped;
      const IoStats before = pool.stats();
      ASSERT_TRUE(store
                      ->records().ScanRangesFiltered(
                          ranges.data(), ranges.size(), store->zone_map(), q,
                          read_whole_runs, &skipped,
                          [&](uint64_t pos, const CellRecord& cell) {
                            EXPECT_TRUE(cell.Interval().Intersects(q));
                            EXPECT_TRUE(visited.insert(pos).second);
                            return true;
                          })
                      .ok());
      const IoStats delta = pool.stats() - before;

      EXPECT_EQ(visited, expect_visited) << "iter " << iter;
      EXPECT_EQ(skipped.cells, total_slots - expect_visited.size())
          << "iter " << iter;
      if (read_whole_runs) {
        // Every page of every run is fetched exactly once — the zone map
        // skips record deserialization, never page reads.
        EXPECT_EQ(delta.logical_reads, expect_pages) << "iter " << iter;
      } else {
        // Only the distinct pages holding a match are fetched.
        EXPECT_EQ(delta.logical_reads, match_pages.size())
            << "iter " << iter;
      }
      EXPECT_EQ(delta.logical_reads + skipped.pages, expect_pages)
          << "iter " << iter;
    }
  }
}

TEST(ScanRangesTest, ReadaheadPreservesIoTotals) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());

  // Two passes over the same file contents: one walks runs with the
  // readahead path (a band covering every cell, so the zone map skips
  // nothing), the other with the plain per-page scan. Their logical and
  // physical totals must agree exactly.
  MemPageFile file;
  BufferPool pool(&file, 256);
  auto store = CellStore::Build(&pool, *field, {});
  ASSERT_TRUE(store.ok());

  const std::vector<PosRange> runs = {{3, 200}, {450, 700}, {900, 1024}};

  ASSERT_TRUE(pool.Clear().ok());
  pool.ResetStats();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  uint64_t seen_ranges = 0;
  ASSERT_TRUE(store
                  ->records().ScanRangesFiltered(
                      runs.data(), runs.size(), store->zone_map(),
                      ValueInterval{-kInf, kInf},
                      /*read_whole_runs=*/false, /*skipped=*/nullptr,
                      [&](uint64_t, const CellRecord&) {
                        ++seen_ranges;
                        return true;
                      })
                  .ok());
  const IoStats with_readahead = pool.stats();

  ASSERT_TRUE(pool.Clear().ok());
  pool.ResetStats();
  uint64_t seen_scan = 0;
  for (const PosRange& r : runs) {
    ASSERT_TRUE(store
                    ->records().Scan(r.begin, r.end,
                           [&](uint64_t, const CellRecord&) {
                             ++seen_scan;
                             return true;
                           })
                    .ok());
  }
  const IoStats plain = pool.stats();

  EXPECT_EQ(seen_ranges, seen_scan);
  EXPECT_EQ(with_readahead.logical_reads, plain.logical_reads);
  EXPECT_EQ(with_readahead.physical_reads, plain.physical_reads);
  // Readahead turns the run's reads into sequential ones; it must never
  // read a page the plain scan would not have.
  EXPECT_GE(with_readahead.sequential_reads, plain.sequential_reads);
}

}  // namespace
}  // namespace fielddb
