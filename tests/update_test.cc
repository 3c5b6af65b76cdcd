#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>

#include "common/rng.h"
#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "index/i_all.h"
#include "index/i_hilbert.h"
#include "index/interval_quadtree.h"
#include "index/linear_scan.h"
#include "index/row_ip_index.h"
#include "storage/page_file.h"
#include "query_util.h"

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
  switch (method) {
    case IndexMethod::kLinearScan: {
      auto idx = LinearScanIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
    case IndexMethod::kIAll: {
      auto idx = IAllIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
    case IndexMethod::kIHilbert: {
      auto idx = IHilbertIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
    case IndexMethod::kIntervalQuadtree: {
      auto idx = IntervalQuadtreeIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
    case IndexMethod::kRowIp: {
      auto idx = RowIpIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
  }
  return fx;
}

// Candidate runs expanded to individual positions for set comparisons.
std::vector<uint64_t> FilterPositions(const ValueIndex& index,
                                      const ValueInterval& q) {
  std::vector<PosRange> ranges;
  EXPECT_TRUE(index.FilterCandidateRanges(q, &ranges).ok());
  std::vector<uint64_t> positions;
  for (const PosRange& r : ranges) {
    for (uint64_t pos = r.begin; pos < r.end; ++pos) {
      positions.push_back(pos);
    }
  }
  return positions;
}

// Ground truth recomputed from the (mutated) store itself.
std::set<uint64_t> StoreGroundTruth(const ValueIndex& index,
                                    const ValueInterval& q) {
  std::set<uint64_t> hits;
  EXPECT_TRUE(index.cell_store()
                  .records().Scan(0, index.cell_store().size(),
                        [&](uint64_t pos, const CellRecord& cell) {
                          if (cell.Interval().Intersects(q)) {
                            hits.insert(pos);
                          }
                          return true;
                        })
                  .ok());
  return hits;
}

class UpdateTest : public ::testing::TestWithParam<IndexMethod> {};

TEST_P(UpdateTest, SingleUpdateVisibleInStore) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);

  const CellId target = 42;
  const std::vector<double> fresh = {100.0, 101.0, 102.0, 103.0};
  ASSERT_TRUE(fx.index->UpdateCellValues(target, fresh).ok());

  CellRecord rec;
  ASSERT_TRUE(fx.index->cell_store()
                  .records()
                  .Get(fx.index->cell_store().PositionOf(target), &rec)
                  .ok());
  EXPECT_EQ(rec.id, target);
  EXPECT_EQ(rec.Interval(), (ValueInterval{100, 103}));
}

TEST_P(UpdateTest, QueriesSeeNewValuesNoFalseNegatives) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);

  // Push a scattered batch of cells into a far-away value band, then
  // query that band: every moved cell must be found.
  Rng rng(71);
  std::set<CellId> moved;
  while (moved.size() < 25) {
    const CellId id =
        static_cast<CellId>(rng.NextBounded(field->NumCells()));
    if (!moved.insert(id).second) continue;
    ASSERT_TRUE(fx.index
                    ->UpdateCellValues(
                        id, {50.0 + rng.NextDouble(), 50.5, 51.0,
                             51.0 + rng.NextDouble()})
                    .ok());
  }

  const ValueInterval band{49.5, 52.5};
  std::vector<uint64_t> positions = FilterPositions(*fx.index, band);
  std::set<uint64_t> candidates(positions.begin(), positions.end());
  for (const CellId id : moved) {
    EXPECT_TRUE(candidates.count(fx.index->cell_store().PositionOf(id)))
        << IndexMethodName(GetParam()) << " lost updated cell " << id;
  }
  // And the filtering still covers the store-derived ground truth for
  // ordinary bands.
  const ValueInterval mid{field->ValueRange().min,
                          field->ValueRange().Center()};
  positions = FilterPositions(*fx.index, mid);
  candidates = std::set<uint64_t>(positions.begin(), positions.end());
  for (const uint64_t pos : StoreGroundTruth(*fx.index, mid)) {
    EXPECT_TRUE(candidates.count(pos));
  }
}

TEST_P(UpdateTest, RandomizedUpdateStorm) {
  FractalOptions fo;
  fo.size_exp = 4;  // 256 cells
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);

  Rng rng(73);
  for (int round = 0; round < 200; ++round) {
    const CellId id =
        static_cast<CellId>(rng.NextBounded(field->NumCells()));
    const double base = rng.NextDouble(-3, 3);
    ASSERT_TRUE(fx.index
                    ->UpdateCellValues(
                        id, {base, base + rng.NextDouble(),
                             base + rng.NextDouble(),
                             base + rng.NextDouble()})
                    .ok());
    if (round % 50 == 49) {
      // Full equivalence check against the mutated store.
      const ValueInterval q =
          ValueInterval::Of(rng.NextDouble(-3, 4), rng.NextDouble(-3, 4));
      const std::vector<uint64_t> positions = FilterPositions(*fx.index, q);
      const std::set<uint64_t> candidates(positions.begin(),
                                          positions.end());
      for (const uint64_t pos : StoreGroundTruth(*fx.index, q)) {
        ASSERT_TRUE(candidates.count(pos))
            << IndexMethodName(GetParam()) << " round " << round;
      }
    }
  }
}

TEST_P(UpdateTest, RejectsBadArguments) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);
  // Wrong arity (quads have 4 vertices).
  EXPECT_EQ(fx.index->UpdateCellValues(0, {1.0, 2.0}).code(),
            StatusCode::kInvalidArgument);
  // Unknown cell.
  EXPECT_EQ(
      fx.index->UpdateCellValues(field->NumCells() + 5, {1, 2, 3, 4})
          .code(),
      StatusCode::kOutOfRange);
  // Non-finite samples.
  for (const double bad :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(fx.index->UpdateCellValues(0, {1, 2, bad, 4}).code(),
              StatusCode::kInvalidArgument);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, UpdateTest,
    ::testing::Values(IndexMethod::kLinearScan, IndexMethod::kIAll,
                      IndexMethod::kIHilbert,
                      IndexMethod::kIntervalQuadtree,
                      IndexMethod::kRowIp),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(SubfieldUpdateTest, IntervalCanShrink) {
  // An update that pulls the extreme cell back must tighten the subfield
  // interval (the refresh recomputes the hull, it does not just extend).
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(IndexMethod::kIHilbert, *field);
  auto* ih = static_cast<IHilbertIndex*>(fx.index.get());

  // Blow one cell's values far out, then restore them.
  CellRecord before;
  ASSERT_TRUE(ih->cell_store().records().Get(0, &before).ok());
  const CellId target = before.id;
  const size_t sf_idx = 0;
  const ValueInterval original = ih->subfields()[sf_idx].interval;

  ASSERT_TRUE(
      fx.index->UpdateCellValues(target, {999, 999, 999, 999}).ok());
  EXPECT_GE(ih->subfields()[sf_idx].interval.max, 999.0);

  ASSERT_TRUE(fx.index
                  ->UpdateCellValues(target, {before.w[0], before.w[1],
                                              before.w[2], before.w[3]})
                  .ok());
  EXPECT_EQ(ih->subfields()[sf_idx].interval, original);
  EXPECT_TRUE(ih->tree().CheckInvariants().ok());
}

TEST(DatabaseUpdateTest, EndToEndUpdateChangesAnswers) {
  auto field = MakeFractalField([] {
    FractalOptions fo;
    fo.size_exp = 4;
    return fo;
  }());
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = IndexMethod::kIHilbert;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());

  const ValueInterval far_band{500, 510};
  ValueQueryResult result;
  ASSERT_TRUE(QueryOne(**db, far_band, &result).ok());
  EXPECT_TRUE(result.region.IsEmpty());

  ASSERT_TRUE(
      (*db)->UpdateCellValues(7, {505.0, 505.0, 505.0, 505.0}).ok());
  ASSERT_TRUE(QueryOne(**db, far_band, &result).ok());
  EXPECT_FALSE(result.region.IsEmpty());
  EXPECT_EQ(result.stats.answer_cells, 1u);
  // The whole cell sits at 505: the answer region is the full cell.
  const CellRecord cell = field->GetCell(7);
  EXPECT_NEAR(result.region.TotalArea(), cell.Bounds().Area(), 1e-9);
  // The cached value range was widened.
  EXPECT_GE((*db)->value_range().max, 505.0);
}

}  // namespace
}  // namespace fielddb
