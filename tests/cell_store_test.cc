#include "index/cell_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>

#include "field/grid_field.h"
#include "storage/page_file.h"

namespace fielddb {
namespace {

GridField MakeGrid(uint32_t n) {
  std::vector<double> samples;
  for (uint32_t j = 0; j <= n; ++j) {
    for (uint32_t i = 0; i <= n; ++i) {
      samples.push_back(i + 100.0 * j);
    }
  }
  auto field = GridField::Create(n, n, Rect2{{0, 0}, {1, 1}}, samples);
  EXPECT_TRUE(field.ok());
  return std::move(field).value();
}

TEST(CellStoreTest, BuildIdentityOrder) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  const GridField field = MakeGrid(4);
  auto store = CellStore::Build(&pool, field, {});
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->size(), 16u);
  // A grid stores lattice slots: 102 cells per 4 KB page.
  EXPECT_EQ(store->cells_per_page(), 4096u / sizeof(LatticeSlot));

  CellRecord rec;
  for (uint64_t pos = 0; pos < 16; ++pos) {
    ASSERT_TRUE(store->records().Get(pos, &rec).ok());
    EXPECT_EQ(rec.id, pos);
    EXPECT_EQ(store->PositionOf(static_cast<CellId>(pos)), pos);
  }
}

TEST(CellStoreTest, BuildPermutedOrder) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  const GridField field = MakeGrid(3);  // 9 cells
  std::vector<CellId> order = {8, 0, 7, 1, 6, 2, 5, 3, 4};
  auto store = CellStore::Build(&pool, field, order);
  ASSERT_TRUE(store.ok());
  CellRecord rec;
  for (uint64_t pos = 0; pos < order.size(); ++pos) {
    ASSERT_TRUE(store->records().Get(pos, &rec).ok());
    EXPECT_EQ(rec.id, order[pos]);
    EXPECT_EQ(store->PositionOf(order[pos]), pos);
  }
}

TEST(CellStoreTest, RejectsNonPermutation) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  const GridField field = MakeGrid(2);  // 4 cells
  EXPECT_FALSE(CellStore::Build(&pool, field, {0, 1, 2}).ok());
  EXPECT_FALSE(CellStore::Build(&pool, field, {0, 1, 2, 2}).ok());
  EXPECT_FALSE(CellStore::Build(&pool, field, {0, 1, 2, 9}).ok());
}

TEST(CellStoreTest, RecordContentsSurviveStorage) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  const GridField field = MakeGrid(4);
  auto store = CellStore::Build(&pool, field, {});
  ASSERT_TRUE(store.ok());
  CellRecord rec;
  ASSERT_TRUE(store->records().Get(7, &rec).ok());
  const CellRecord expected = field.GetCell(7);
  EXPECT_EQ(rec.num_vertices, expected.num_vertices);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(rec.x[i], expected.x[i]);
    EXPECT_DOUBLE_EQ(rec.y[i], expected.y[i]);
    EXPECT_DOUBLE_EQ(rec.w[i], expected.w[i]);
  }
}

TEST(CellStoreTest, ScanVisitsRangeInOrder) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  const GridField field = MakeGrid(8);  // 64 cells
  auto store = CellStore::Build(&pool, field, {});
  ASSERT_TRUE(store.ok());
  std::vector<uint64_t> seen;
  ASSERT_TRUE(store->records()
                  .Scan(10, 50,
                        [&](uint64_t pos, const CellRecord& rec) {
                          EXPECT_EQ(rec.id, pos);
                          seen.push_back(pos);
                          return true;
                        })
                  .ok());
  std::vector<uint64_t> expected(40);
  std::iota(expected.begin(), expected.end(), 10);
  EXPECT_EQ(seen, expected);
}

TEST(CellStoreTest, ScanEarlyStop) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  const GridField field = MakeGrid(4);
  auto store = CellStore::Build(&pool, field, {});
  ASSERT_TRUE(store.ok());
  int visited = 0;
  ASSERT_TRUE(store->records().Scan(0, 16, [&](uint64_t, const CellRecord&) {
                     return ++visited < 3;
                   }).ok());
  EXPECT_EQ(visited, 3);
}

TEST(CellStoreTest, ScanBoundsChecked) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  const GridField field = MakeGrid(2);
  auto store = CellStore::Build(&pool, field, {});
  ASSERT_TRUE(store.ok());
  const auto noop = [](uint64_t, const CellRecord&) { return true; };
  EXPECT_FALSE(store->records().Scan(0, 5, noop).ok());
  EXPECT_FALSE(store->records().Scan(3, 2, noop).ok());
  EXPECT_TRUE(store->records().Scan(4, 4, noop).ok());  // empty range is fine
}

TEST(CellStoreTest, GetOutOfRange) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  const GridField field = MakeGrid(2);
  auto store = CellStore::Build(&pool, field, {});
  ASSERT_TRUE(store.ok());
  CellRecord rec;
  EXPECT_EQ(store->records().Get(4, &rec).code(), StatusCode::kOutOfRange);
}

TEST(CellStoreTest, PageAccountingOneFetchPerPageOnScan) {
  MemPageFile file;
  BufferPool pool(&file, 256);
  const GridField field = MakeGrid(32);  // 1024 cells
  auto store = CellStore::Build(&pool, field, {});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(pool.Clear().ok());
  pool.ResetStats();
  ASSERT_TRUE(store->records().Scan(0, store->size(),
                          [](uint64_t, const CellRecord&) { return true; })
                  .ok());
  EXPECT_EQ(pool.stats().logical_reads, store->num_pages());
  EXPECT_EQ(pool.stats().physical_reads, store->num_pages());
}

TEST(CellStoreTest, NumPagesFormula) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  const GridField field = MakeGrid(8);  // 64 cells, 102 per 4 KB page
  auto store = CellStore::Build(&pool, field, {});
  ASSERT_TRUE(store.ok());
  const uint64_t per = store->cells_per_page();
  EXPECT_EQ(store->num_pages(), (64 + per - 1) / per);
}

TEST(CellStoreTest, SmallPagesSpanManyPages) {
  MemPageFile file(256);  // 2 explicit CellRecords per page
  BufferPool pool(&file, 64);
  const GridField grid = MakeGrid(4);  // 16 cells
  const ExplicitCellsField field(grid);
  auto store = CellStore::Build(&pool, field, {});
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->cells_per_page(), 2u);
  EXPECT_EQ(store->num_pages(), 8u);
  CellRecord rec;
  ASSERT_TRUE(store->records().Get(15, &rec).ok());
  EXPECT_EQ(rec.id, 15u);
}

// --- The two slot layouts (CellSlots) ----------------------------------

/// A grid whose domain makes every coordinate a rounded product.
GridField OddGrid() {
  std::vector<double> samples;
  for (uint32_t j = 0; j <= 5; ++j) {
    for (uint32_t i = 0; i <= 7; ++i) samples.push_back(0.1 * i - 0.37 * j);
  }
  return GridField::Create(7, 5, Rect2{{-3.7, 1.1}, {12.9, 5.3}}, samples)
      .value();
}

TEST(CellSlotsTest, LatticeSlotsDecodeToGetCellBitForBit) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  const GridField field = OddGrid();
  std::vector<CellId> order(field.NumCells());
  std::iota(order.rbegin(), order.rend(), 0);  // reversed
  auto store = CellStore::Build(&pool, field, order);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->records().slots().lattice().has_value());
  EXPECT_EQ(*store->records().slots().lattice(), *field.Lattice());
  auto attached = CellStore::Attach(&pool, store->first_page(), store->size(),
                                    store->records().slots());
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  for (const CellStore* s : {&*store, &*attached}) {
    ASSERT_TRUE(s->records()
                    .Scan(0, s->size(),
                          [&](uint64_t, const CellRecord& cell) {
                            const CellRecord want = field.GetCell(cell.id);
                            EXPECT_EQ(std::memcmp(&cell, &want, sizeof(cell)),
                                      0)
                                << "cell " << cell.id;
                            return true;
                          })
                    .ok());
  }
}

TEST(CellSlotsTest, ExplicitCellsKeepCellRecordSlots) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  const GridField grid = OddGrid();
  auto store = CellStore::Build(&pool, ExplicitCellsField(grid), {});
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->records().slots().lattice().has_value());
  EXPECT_EQ(store->cells_per_page(), 4096u / sizeof(CellRecord));
  PinnedPage pin;
  ASSERT_TRUE(pool.Fetch(store->first_page(), &pin).ok());
  const CellRecord want = grid.GetCell(3);
  EXPECT_EQ(std::memcmp(pin.page().data() + 3 * sizeof(CellRecord), &want,
                        sizeof(want)),
            0);
}

TEST(CellSlotsTest, EncodeRefusesACellOffTheLattice) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  const GridField field = OddGrid();
  auto store = CellStore::Build(&pool, field, {});
  ASSERT_TRUE(store.ok());
  const CellRecord cell = field.GetCell(4);
  const CellSlots& slots = store->records().slots();
  uint8_t slot[sizeof(CellRecord)] = {};
  ASSERT_TRUE(slots.Encode(cell, slot).ok());
  CellRecord moved = cell;
  moved.x[1] = std::nextafter(moved.x[1], 1e9);  // one ulp off
  EXPECT_EQ(slots.Encode(moved, slot).code(), StatusCode::kInvalidArgument);
  const CellRecord triangle = CellRecord::Triangle(
      4, cell.Vertex(0), 1.0, cell.Vertex(1), 2.0, cell.Vertex(2), 3.0);
  EXPECT_EQ(slots.Encode(triangle, slot).code(),
            StatusCode::kInvalidArgument);
  CellStore::Change change;
  EXPECT_EQ(store
                ->Update(4,
                         [&](CellRecord* r) {
                           *r = moved;
                           return Status::OK();
                         },
                         &change)
                .code(),
            StatusCode::kInvalidArgument);
  CellRecord stored;
  ASSERT_TRUE(store->records().Get(4, &stored).ok());
  EXPECT_EQ(std::memcmp(&stored, &cell, sizeof(cell)), 0);
}

TEST(CellSlotsTest, AttachRefusesAnInvalidLatticeSlot) {
  // A lattice slot is {id, lattice id, w[4]}: the id must name a slot,
  // the lattice id a lattice cell, and every sample must be finite.
  const GridField field = OddGrid();  // 35 cells
  const auto corrupt_slot_5 = [&](auto&& edit) {
    MemPageFile file;
    BufferPool pool(&file, 64);
    auto store = CellStore::Build(&pool, field, {});
    EXPECT_TRUE(store.ok());
    {
      PinnedPage pin;
      EXPECT_TRUE(pool.Fetch(store->first_page(), &pin).ok());
      LatticeSlot s;
      uint8_t* const slot = pin.MutablePage().data() + 5 * sizeof(s);
      std::memcpy(&s, slot, sizeof(s));
      edit(&s);
      std::memcpy(slot, &s, sizeof(s));
    }
    return CellStore::Attach(&pool, store->first_page(), store->size(),
                             store->records().slots())
        .status();
  };
  EXPECT_TRUE(corrupt_slot_5([](LatticeSlot*) {}).ok());
  for (const auto& edit : std::vector<std::function<void(LatticeSlot*)>>{
           [](LatticeSlot* s) { s->id = 35; },
           [](LatticeSlot* s) { s->lattice_id = 35; },
           [](LatticeSlot* s) { s->w[2] = std::nan(""); },
           [](LatticeSlot* s) { s->w[0] = HUGE_VAL; }}) {
    const Status st = corrupt_slot_5(edit);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_NE(st.message().find("record store slot 5 "), std::string::npos)
        << st.ToString();
  }
}

}  // namespace
}  // namespace fielddb
