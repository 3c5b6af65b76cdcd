#include "field/isoline.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/monotonic.h"

namespace fielddb {
namespace {

TEST(CellIsolineTest, TriangleCrossing) {
  // w = x on the unit right triangle: the isoline x = 0.5 is a vertical
  // segment from (0.5, 0) to (0.5, 0.5).
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 0, {1, 0}, 1, {0, 1}, 0);
  std::vector<IsoSegment> segments;
  auto n = CellIsolineSegments(tri, 0.5, &segments);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 1u);
  const double length =
      Distance(segments[0].first, segments[0].second);
  EXPECT_NEAR(length, 0.5, 1e-12);
  EXPECT_NEAR(segments[0].first.x, 0.5, 1e-12);
  EXPECT_NEAR(segments[0].second.x, 0.5, 1e-12);
}

TEST(CellIsolineTest, LevelOutsideCell) {
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 0, {1, 0}, 1, {0, 1}, 0);
  std::vector<IsoSegment> segments;
  auto n = CellIsolineSegments(tri, 5.0, &segments);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST(CellIsolineTest, ConstantCellYieldsNoLine) {
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 2, {1, 0}, 2, {0, 1}, 2);
  std::vector<IsoSegment> segments;
  auto n = CellIsolineSegments(tri, 2.0, &segments);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST(CellIsolineTest, QuadDiagonalLevelLine) {
  // w = x + y on the unit quad: isoline w = 1 is the anti-diagonal of
  // length sqrt(2), split across the fan triangles.
  const CellRecord quad =
      CellRecord::Quad(0, Rect2{{0, 0}, {1, 1}}, 0, 1, 2, 1);
  std::vector<IsoSegment> segments;
  auto n = CellIsolineSegments(quad, 1.0, &segments);
  ASSERT_TRUE(n.ok());
  ASSERT_GT(*n, 0u);
  double length = 0;
  for (const IsoSegment& s : segments) {
    length += Distance(s.first, s.second);
  }
  EXPECT_NEAR(length, std::sqrt(2.0), 1e-9);
}

TEST(AssembleTest, ChainsSegmentsIntoOnePolyline) {
  std::vector<IsoSegment> segments = {
      {{0, 0}, {1, 0}}, {{2, 0}, {1, 0}}, {{2, 0}, {3, 1}}};
  const Isoline iso = AssembleIsoline(segments);
  ASSERT_EQ(iso.polylines.size(), 1u);
  EXPECT_EQ(iso.polylines[0].size(), 4u);
  EXPECT_EQ(iso.NumSegments(), 3u);
  EXPECT_NEAR(iso.TotalLength(), 2.0 + std::sqrt(2.0), 1e-12);
}

TEST(AssembleTest, SeparateComponentsStaySeparate) {
  std::vector<IsoSegment> segments = {
      {{0, 0}, {1, 0}}, {{5, 5}, {6, 5}}};
  const Isoline iso = AssembleIsoline(segments);
  EXPECT_EQ(iso.polylines.size(), 2u);
}

TEST(AssembleTest, EmptyInput) {
  const Isoline iso = AssembleIsoline({});
  EXPECT_TRUE(iso.polylines.empty());
  EXPECT_DOUBLE_EQ(iso.TotalLength(), 0.0);
}

class IsolineQueryTest : public ::testing::TestWithParam<IndexMethod> {};

TEST_P(IsolineQueryTest, MonotonicFieldAnalyticLength) {
  // w = x + y on the unit square: the isoline w = c (for c <= 1) is the
  // anti-diagonal segment from (c, 0) to (0, c), length c*sqrt(2).
  auto field = MakeMonotonicField(32, 32);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = GetParam();
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());

  for (const double c : {0.25, 0.5, 0.75, 1.0}) {
    IsolineQueryResult result;
    ASSERT_TRUE((*db)->IsolineQuery(c, &result).ok());
    EXPECT_NEAR(result.isoline.TotalLength(), c * std::sqrt(2.0), 1e-9)
        << "level " << c;
    // The anti-diagonal is one connected curve.
    EXPECT_EQ(result.isoline.polylines.size(), 1u);
  }
}

TEST_P(IsolineQueryTest, LevelOutsideRangeIsEmpty) {
  auto field = MakeMonotonicField(8, 8);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = GetParam();
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  IsolineQueryResult result;
  ASSERT_TRUE((*db)->IsolineQuery(5.0, &result).ok());
  EXPECT_TRUE(result.isoline.polylines.empty());
  EXPECT_EQ(result.stats.answer_cells, 0u);
}

TEST_P(IsolineQueryTest, NanLevelRejected) {
  auto field = MakeMonotonicField(8, 8);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = GetParam();
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  IsolineQueryResult result;
  EXPECT_EQ((*db)
                ->IsolineQuery(std::numeric_limits<double>::quiet_NaN(),
                               &result)
                .code(),
            StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, IsolineQueryTest,
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

TEST(IsolineQueryTest, FractalIsolineConsistentAcrossMethods) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  const double level = field->ValueRange().Center();

  double reference_length = -1;
  for (const IndexMethod method :
       {IndexMethod::kLinearScan, IndexMethod::kIHilbert}) {
    FieldDatabaseOptions options;
    options.method = method;
    auto db = FieldDatabase::Build(*field, options);
    ASSERT_TRUE(db.ok());
    IsolineQueryResult result;
    ASSERT_TRUE((*db)->IsolineQuery(level, &result).ok());
    EXPECT_GT(result.isoline.TotalLength(), 0);
    if (reference_length < 0) {
      reference_length = result.isoline.TotalLength();
    } else {
      EXPECT_NEAR(result.isoline.TotalLength(), reference_length, 1e-9);
    }
  }
}

TEST(IsolineQueryTest, IsolineBoundsIsobandForSmallBands) {
  // The isoline at level c must lie inside the isoband [c-e, c+e]; as a
  // cheap proxy, every polyline vertex must evaluate to ~c.
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  const double level = field->ValueRange().Center();
  IsolineQueryResult result;
  ASSERT_TRUE((*db)->IsolineQuery(level, &result).ok());
  ASSERT_FALSE(result.isoline.polylines.empty());
  int checked = 0;
  for (const auto& line : result.isoline.polylines) {
    for (const Point2& p : line) {
      // The fan-decomposition interpolant differs from bilinear off the
      // triangle edges, so evaluate leniently.
      StatusOr<double> w = field->ValueAt(p);
      if (!w.ok()) continue;
      EXPECT_NEAR(*w, level, 0.15 * field->ValueRange().Length());
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

}  // namespace
}  // namespace fielddb
