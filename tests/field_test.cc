#include "field/field.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "field/grid_field.h"
#include "field/tin_field.h"

namespace fielddb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// 2x2-cell grid over [0,2]^2 with samples w(i,j) = i + 10*j — the Fig. 1
// shape of a "DEM for a continuous field".
GridField MakeSmallGrid() {
  std::vector<double> samples;
  for (int j = 0; j <= 2; ++j) {
    for (int i = 0; i <= 2; ++i) {
      samples.push_back(i + 10.0 * j);
    }
  }
  auto field = GridField::Create(2, 2, Rect2{{0, 0}, {2, 2}}, samples);
  EXPECT_TRUE(field.ok());
  return std::move(field).value();
}

TinField MakeTwoTriangleTin() {
  // Unit square split along the main diagonal.
  std::vector<TinVertex> vertices = {
      {{0, 0}, 1.0}, {{1, 0}, 2.0}, {{1, 1}, 3.0}, {{0, 1}, 4.0}};
  std::vector<TinTriangle> triangles = {{{0, 1, 2}}, {{0, 2, 3}}};
  auto tin = TinField::Create(vertices, triangles);
  EXPECT_TRUE(tin.ok());
  return std::move(tin).value();
}

TEST(GridFieldTest, CreateValidatesArguments) {
  EXPECT_FALSE(GridField::Create(0, 2, Rect2{{0, 0}, {1, 1}}, {}).ok());
  EXPECT_FALSE(
      GridField::Create(2, 2, Rect2{{0, 0}, {1, 1}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(GridField::Create(1, 1, Rect2{{0, 0}, {0, 1}},
                                 {1, 2, 3, 4})
                   .ok());
  // Non-finite samples.
  for (const double bad : {kInf, -kInf, kNaN}) {
    EXPECT_EQ(GridField::Create(1, 1, Rect2{{0, 0}, {1, 1}}, {1, 2, bad, 4})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(GridFieldTest, CellGeometry) {
  const GridField field = MakeSmallGrid();
  EXPECT_EQ(field.NumCells(), 4u);
  const CellRecord c0 = field.GetCell(0);
  EXPECT_EQ(c0.num_vertices, 4u);
  EXPECT_EQ(c0.Bounds(), (Rect2{{0, 0}, {1, 1}}));
  const CellRecord c3 = field.GetCell(3);
  EXPECT_EQ(c3.Bounds(), (Rect2{{1, 1}, {2, 2}}));
}

TEST(GridFieldTest, CellValuesMatchSamples) {
  const GridField field = MakeSmallGrid();
  // Cell (1,1): corners (1,1),(2,1),(2,2),(1,2) -> 11, 12, 22, 21.
  const CellRecord c = field.GetCell(field.CellIdAt(1, 1));
  EXPECT_DOUBLE_EQ(c.w[0], 11.0);
  EXPECT_DOUBLE_EQ(c.w[1], 12.0);
  EXPECT_DOUBLE_EQ(c.w[2], 22.0);
  EXPECT_DOUBLE_EQ(c.w[3], 21.0);
}

TEST(GridFieldTest, FindCellDirect) {
  const GridField field = MakeSmallGrid();
  EXPECT_EQ(*field.FindCell({0.5, 0.5}), field.CellIdAt(0, 0));
  EXPECT_EQ(*field.FindCell({1.5, 0.5}), field.CellIdAt(1, 0));
  EXPECT_EQ(*field.FindCell({0.5, 1.5}), field.CellIdAt(0, 1));
  // Domain boundary maps into the last cell.
  EXPECT_EQ(*field.FindCell({2.0, 2.0}), field.CellIdAt(1, 1));
  EXPECT_EQ(field.FindCell({2.5, 0.5}).status().code(),
            StatusCode::kNotFound);
}

TEST(GridFieldTest, ValueAtIsBilinear) {
  const GridField field = MakeSmallGrid();
  // w(x, y) = x + 10y is affine, so interpolation is exact everywhere.
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const Point2 p{rng.NextDouble(0, 2), rng.NextDouble(0, 2)};
    EXPECT_NEAR(*field.ValueAt(p), p.x + 10 * p.y, 1e-12);
  }
}

TEST(GridFieldTest, ValueRange) {
  const GridField field = MakeSmallGrid();
  EXPECT_EQ(field.ValueRange(), (ValueInterval{0, 22}));
}

TEST(GridFieldTest, Q1ConventionalQueryExample) {
  // The paper's Q1: "what is the value at point v'?"
  const GridField field = MakeSmallGrid();
  const StatusOr<double> w = field.ValueAt({1.0, 1.0});
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ(*w, 11.0);
}

TEST(TinFieldTest, CreateValidates) {
  std::vector<TinVertex> v = {{{0, 0}, 1}, {{1, 0}, 2}, {{2, 0}, 3}};
  // Index out of range.
  EXPECT_FALSE(TinField::Create(v, {{{0, 1, 5}}}).ok());
  // Degenerate (collinear) triangle.
  EXPECT_FALSE(TinField::Create(v, {{{0, 1, 2}}}).ok());
  // No triangles at all.
  EXPECT_FALSE(TinField::Create(v, {}).ok());
  // Non-finite samples.
  for (const double bad : {kInf, -kInf, kNaN}) {
    const std::vector<TinVertex> nonfinite = {
        {{0, 0}, 1}, {{1, 0}, bad}, {{0, 1}, 3}};
    EXPECT_EQ(TinField::Create(nonfinite, {{{0, 1, 2}}}).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(TinFieldTest, CellRecords) {
  const TinField tin = MakeTwoTriangleTin();
  EXPECT_EQ(tin.NumCells(), 2u);
  const CellRecord c0 = tin.GetCell(0);
  EXPECT_EQ(c0.num_vertices, 3u);
  EXPECT_EQ(c0.id, 0u);
  EXPECT_EQ(c0.Interval(), (ValueInterval{1, 3}));
  const CellRecord c1 = tin.GetCell(1);
  EXPECT_EQ(c1.Interval(), (ValueInterval{1, 4}));
}

TEST(TinFieldTest, DomainAndRange) {
  const TinField tin = MakeTwoTriangleTin();
  EXPECT_EQ(tin.Domain(), (Rect2{{0, 0}, {1, 1}}));
  EXPECT_EQ(tin.ValueRange(), (ValueInterval{1, 4}));
}

TEST(TinFieldTest, FindCellScan) {
  const TinField tin = MakeTwoTriangleTin();
  // Below the diagonal -> triangle 0; above -> triangle 1.
  EXPECT_EQ(*tin.FindCell({0.7, 0.2}), 0u);
  EXPECT_EQ(*tin.FindCell({0.2, 0.7}), 1u);
  EXPECT_EQ(tin.FindCell({1.5, 1.5}).status().code(),
            StatusCode::kNotFound);
}

TEST(TinFieldTest, ValueAtInterpolatesLinearly) {
  const TinField tin = MakeTwoTriangleTin();
  // At vertex positions, exact sample values.
  EXPECT_NEAR(*tin.ValueAt({0, 0}), 1.0, 1e-12);
  EXPECT_NEAR(*tin.ValueAt({1, 1}), 3.0, 1e-12);
  // Midpoint of the diagonal edge (shared by both triangles).
  EXPECT_NEAR(*tin.ValueAt({0.5, 0.5}), 2.0, 1e-12);
}

}  // namespace
}  // namespace fielddb
