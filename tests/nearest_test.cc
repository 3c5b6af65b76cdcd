#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/monotonic.h"
#include "rtree/rstar_tree.h"
#include "storage/page_file.h"

namespace fielddb {
namespace {

TEST(MinDistTest, PointToBox) {
  Box<2> b;
  b.lo = {1, 1};
  b.hi = {3, 2};
  EXPECT_DOUBLE_EQ(b.MinDist2({2, 1.5}), 0.0);  // inside
  EXPECT_DOUBLE_EQ(b.MinDist2({0, 1.5}), 1.0);  // left
  EXPECT_DOUBLE_EQ(b.MinDist2({4, 3}), 2.0);    // corner: 1 + 1
  EXPECT_DOUBLE_EQ(b.MinDist2({2, 5}), 9.0);    // above
}

TEST(RTreeNearestTest, MatchesBruteForce1D) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  Rng rng(61);
  std::vector<RTreeEntry<1>> entries(500);
  for (int i = 0; i < 500; ++i) {
    const double lo = rng.NextDouble();
    entries[i].box.lo = {lo};
    entries[i].box.hi = {lo + 0.01};
    entries[i].a = i;
  }
  auto tree = RStarTree<1>::BulkLoad(&pool, entries);
  ASSERT_TRUE(tree.ok());
  for (int trial = 0; trial < 20; ++trial) {
    const double q = rng.NextDouble(-0.2, 1.2);
    std::vector<RStarTree<1>::Neighbor> got;
    ASSERT_TRUE(tree->NearestNeighbors({q}, 5, &got).ok());
    ASSERT_EQ(got.size(), 5u);
    // Distances must be ascending and match brute force.
    std::vector<double> brute;
    for (const auto& e : entries) {
      brute.push_back(e.box.MinDist2({q}));
    }
    std::sort(brute.begin(), brute.end());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance2, brute[i], 1e-12);
      if (i > 0) {
        EXPECT_GE(got[i].distance2, got[i - 1].distance2);
      }
    }
  }
}

TEST(RTreeNearestTest, MatchesBruteForce2D) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  Rng rng(67);
  std::vector<RTreeEntry<2>> entries(800);
  for (int i = 0; i < 800; ++i) {
    entries[i].box.lo = {rng.NextDouble(), rng.NextDouble()};
    entries[i].box.hi = {entries[i].box.lo[0] + 0.02,
                         entries[i].box.lo[1] + 0.02};
    entries[i].a = i;
  }
  auto tree = RStarTree<2>::BulkLoad(&pool, entries);
  ASSERT_TRUE(tree.ok());
  for (int trial = 0; trial < 10; ++trial) {
    const std::array<double, 2> q = {rng.NextDouble(), rng.NextDouble()};
    std::vector<RStarTree<2>::Neighbor> got;
    ASSERT_TRUE(tree->NearestNeighbors(q, 10, &got).ok());
    ASSERT_EQ(got.size(), 10u);
    std::vector<double> brute;
    for (const auto& e : entries) brute.push_back(e.box.MinDist2(q));
    std::sort(brute.begin(), brute.end());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance2, brute[i], 1e-12);
    }
  }
}

TEST(RTreeNearestTest, EdgeCases) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  auto empty = RStarTree<1>::BulkLoad(&pool, {});
  ASSERT_TRUE(empty.ok());
  std::vector<RStarTree<1>::Neighbor> got;
  // Empty tree and k = 0.
  ASSERT_TRUE(empty->NearestNeighbors({0.5}, 3, &got).ok());
  EXPECT_TRUE(got.empty());
  std::vector<RTreeEntry<1>> one(1);
  one[0].box.lo = {0};
  one[0].box.hi = {1};
  one[0].a = 1;
  auto tree = RStarTree<1>::BulkLoad(&pool, one);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->NearestNeighbors({0.5}, 0, &got).ok());
  EXPECT_TRUE(got.empty());
  // k larger than tree size returns everything.
  ASSERT_TRUE(tree->NearestNeighbors({0.5}, 10, &got).ok());
  EXPECT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].distance2, 0.0);
}

class NearestValueTest : public ::testing::TestWithParam<IndexMethod> {};

TEST_P(NearestValueTest, MatchesBruteForceDistances) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = GetParam();
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());

  Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    const double w = rng.NextDouble(field->ValueRange().min - 1,
                                    field->ValueRange().max + 1);
    std::vector<FieldDatabase::NearestCell> got;
    ASSERT_TRUE((*db)->NearestValueQuery(w, 7, &got).ok());
    ASSERT_EQ(got.size(), 7u);

    std::vector<double> brute;
    for (CellId id = 0; id < field->NumCells(); ++id) {
      const ValueInterval iv = field->GetCell(id).Interval();
      brute.push_back(w < iv.min ? iv.min - w
                                 : (w > iv.max ? w - iv.max : 0.0));
    }
    std::sort(brute.begin(), brute.end());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, brute[i], 1e-9)
          << IndexMethodName(GetParam()) << " hit " << i;
      if (i > 0) {
        EXPECT_GE(got[i].distance, got[i - 1].distance - 1e-12);
      }
    }
  }
}

TEST_P(NearestValueTest, InsideRangeDistanceZero) {
  auto field = MakeMonotonicField(8, 8);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = GetParam();
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  std::vector<FieldDatabase::NearestCell> got;
  ASSERT_TRUE((*db)->NearestValueQuery(1.0, 3, &got).ok());
  ASSERT_EQ(got.size(), 3u);
  for (const auto& hit : got) {
    EXPECT_DOUBLE_EQ(hit.distance, 0.0);
    EXPECT_TRUE(hit.interval.Contains(1.0));
  }
}

TEST_P(NearestValueTest, NanTargetRejected) {
  auto field = MakeMonotonicField(8, 8);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = GetParam();
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  std::vector<FieldDatabase::NearestCell> got;
  EXPECT_EQ((*db)
                ->NearestValueQuery(std::numeric_limits<double>::quiet_NaN(),
                                    3, &got)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(got.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, NearestValueTest,
    ::testing::Values(IndexMethod::kLinearScan, IndexMethod::kIAll,
                      IndexMethod::kIHilbert,
                      IndexMethod::kIntervalQuadtree),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace fielddb
