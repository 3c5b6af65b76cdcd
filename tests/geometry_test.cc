#include "common/geometry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

namespace fielddb {
namespace {

TEST(Point2Test, Arithmetic) {
  const Point2 a{1, 2}, b{3, 5};
  EXPECT_EQ(a + b, (Point2{4, 7}));
  EXPECT_EQ(b - a, (Point2{2, 3}));
  EXPECT_EQ(2.0 * a, (Point2{2, 4}));
  EXPECT_DOUBLE_EQ(Dot(a, b), 13.0);
  EXPECT_DOUBLE_EQ(Cross(a, b), -1.0);
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
}

TEST(Rect2Test, EmptyBehaviour) {
  Rect2 r = Rect2::Empty();
  EXPECT_TRUE(r.IsEmpty());
  EXPECT_DOUBLE_EQ(r.Area(), 0.0);
  r.Extend(Point2{1, 1});
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_EQ(r.lo, (Point2{1, 1}));
  EXPECT_EQ(r.hi, (Point2{1, 1}));
}

TEST(Rect2Test, ExtendAndMetrics) {
  Rect2 r = Rect2::Empty();
  r.Extend(Point2{0, 0});
  r.Extend(Point2{2, 3});
  EXPECT_DOUBLE_EQ(r.Width(), 2.0);
  EXPECT_DOUBLE_EQ(r.Height(), 3.0);
  EXPECT_DOUBLE_EQ(r.Area(), 6.0);
  EXPECT_EQ(r.Center(), (Point2{1, 1.5}));
}

TEST(Rect2Test, ContainsBoundaryInclusive) {
  const Rect2 r{{0, 0}, {1, 1}};
  EXPECT_TRUE(r.Contains({0, 0}));
  EXPECT_TRUE(r.Contains({1, 1}));
  EXPECT_TRUE(r.Contains({0.5, 0.5}));
  EXPECT_FALSE(r.Contains({1.0001, 0.5}));
  EXPECT_FALSE(r.Contains({0.5, -0.0001}));
}

TEST(Rect2Test, IntersectsSharedEdge) {
  const Rect2 a{{0, 0}, {1, 1}};
  const Rect2 b{{1, 0}, {2, 1}};  // shares an edge
  const Rect2 c{{1.5, 1.5}, {2, 2}};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Intersects(a));
}

TEST(Rect2Test, ExtendByEmptyRectIsNoop) {
  Rect2 r{{0, 0}, {1, 1}};
  r.Extend(Rect2::Empty());
  EXPECT_EQ(r, (Rect2{{0, 0}, {1, 1}}));
}

TEST(Triangle2Test, AreaAndOrientation) {
  const Triangle2 ccw{{Point2{0, 0}, Point2{1, 0}, Point2{0, 1}}};
  EXPECT_DOUBLE_EQ(ccw.SignedArea(), 0.5);
  const Triangle2 cw{{Point2{0, 0}, Point2{0, 1}, Point2{1, 0}}};
  EXPECT_DOUBLE_EQ(cw.SignedArea(), -0.5);
  EXPECT_DOUBLE_EQ(cw.Area(), 0.5);
}

TEST(Triangle2Test, BarycentricAtVertices) {
  const Triangle2 t{{Point2{0, 0}, Point2{2, 0}, Point2{0, 2}}};
  const auto l0 = t.Barycentric({0, 0});
  EXPECT_DOUBLE_EQ(l0[0], 1.0);
  EXPECT_DOUBLE_EQ(l0[1], 0.0);
  EXPECT_DOUBLE_EQ(l0[2], 0.0);
  const auto lc = t.Barycentric(t.Centroid());
  EXPECT_NEAR(lc[0], 1.0 / 3, 1e-12);
  EXPECT_NEAR(lc[1], 1.0 / 3, 1e-12);
  EXPECT_NEAR(lc[2], 1.0 / 3, 1e-12);
}

TEST(Triangle2Test, BarycentricSumsToOneOutside) {
  const Triangle2 t{{Point2{0, 0}, Point2{1, 0}, Point2{0, 1}}};
  const auto l = t.Barycentric({5, 5});
  EXPECT_NEAR(l[0] + l[1] + l[2], 1.0, 1e-9);
  EXPECT_FALSE(t.Contains({5, 5}));
}

TEST(Triangle2Test, ContainsEdgeAndInterior) {
  const Triangle2 t{{Point2{0, 0}, Point2{1, 0}, Point2{0, 1}}};
  EXPECT_TRUE(t.Contains({0.25, 0.25}));
  EXPECT_TRUE(t.Contains({0.5, 0}));    // on an edge
  EXPECT_TRUE(t.Contains({0.5, 0.5}));  // on the hypotenuse
  EXPECT_FALSE(t.Contains({0.6, 0.6}));
}

TEST(Triangle2Test, DegenerateBarycentricIsNaN) {
  const Triangle2 t{{Point2{0, 0}, Point2{1, 1}, Point2{2, 2}}};
  const auto l = t.Barycentric({0.5, 0.5});
  EXPECT_TRUE(std::isnan(l[0]));
  EXPECT_FALSE(t.Contains({0.5, 0.5}));
}

std::vector<Point2> Ramp(size_t n) {
  std::vector<Point2> points;
  for (size_t i = 0; i < n; ++i) {
    points.push_back({static_cast<double>(i), 0.5 * static_cast<double>(i)});
  }
  return points;
}

bool Holds(const VertexList& list, const std::vector<Point2>& want) {
  return list.size() == want.size() &&
         std::equal(list.begin(), list.end(), want.begin());
}

TEST(VertexListTest, SpillsAtFifthVertexAndClearReturnsInline) {
  VertexList list;
  const Point2* inline_data = list.data();
  const std::vector<Point2> points = Ramp(9);
  for (size_t i = 0; i < VertexList::kInline; ++i) list.push_back(points[i]);
  EXPECT_EQ(list.data(), inline_data);
  list.push_back(points[4]);
  EXPECT_NE(list.data(), inline_data);
  for (size_t i = 5; i < points.size(); ++i) list.push_back(points[i]);
  EXPECT_TRUE(Holds(list, points));
  list.clear();
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.data(), inline_data);
  list.push_back(points[0]);
  EXPECT_EQ(list.data(), inline_data);
  EXPECT_EQ(list[0], points[0]);
}

TEST(VertexListTest, CopyAndMoveInlineAndSpilled) {
  for (const size_t n : {size_t{0}, size_t{3}, size_t{4}, size_t{5},
                         size_t{12}}) {
    const std::vector<Point2> points = Ramp(n);
    VertexList source;
    source.assign(points.data(), points.data() + n);
    ASSERT_TRUE(Holds(source, points));

    const VertexList copy(source);
    EXPECT_TRUE(Holds(copy, points));
    EXPECT_TRUE(Holds(source, points));
    EXPECT_NE(copy.data(), source.data());

    VertexList assigned = VertexList{{9, 9}, {8, 8}, {7, 7}, {6, 6}, {5, 5}};
    assigned = source;
    EXPECT_TRUE(Holds(assigned, points));

    VertexList moved(std::move(assigned));
    EXPECT_TRUE(Holds(moved, points));
    EXPECT_TRUE(assigned.empty());  // NOLINT(bugprone-use-after-move)

    VertexList target{{1, 1}};
    target = std::move(moved);
    EXPECT_TRUE(Holds(target, points));
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
    // A moved-from list is usable again.
    moved.push_back({3, 3});
    EXPECT_EQ(moved.size(), 1u);
  }
  static_assert(std::is_nothrow_move_constructible_v<VertexList>);
  static_assert(std::is_nothrow_move_assignable_v<VertexList>);
}

TEST(VertexListTest, SelfAssignmentKeepsContents) {
  for (const size_t n : {size_t{3}, size_t{7}}) {
    const std::vector<Point2> points = Ramp(n);
    VertexList list;
    list.assign(points.data(), points.data() + n);
    VertexList& alias = list;
    list = alias;
    EXPECT_TRUE(Holds(list, points));
    list = std::move(alias);
    EXPECT_TRUE(Holds(list, points));
  }
}

TEST(VertexListTest, EqualityAndInitializerListAssignment) {
  VertexList a;
  a = {{0, 0}, {1, 0}, {0, 1}};
  VertexList b{{0, 0}, {1, 0}, {0, 1}};
  EXPECT_TRUE(a == b);
  b.push_back({1, 1});
  EXPECT_FALSE(a == b);
  a = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  EXPECT_TRUE(a == b);
  a[3] = {2, 2};
  EXPECT_FALSE(a == b);
  // Equality looks at the vertices, not at where they are stored.
  const std::vector<Point2> points = Ramp(6);
  VertexList spilled;
  for (const Point2& p : points) spilled.push_back(p);
  VertexList reserved;
  reserved.reserve(32);
  reserved.assign(points.data(), points.data() + points.size());
  EXPECT_TRUE(spilled == reserved);
  a = {};
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a == VertexList{});
}

TEST(ConvexPolygonTest, AreaShoelace) {
  ConvexPolygon square;
  square.vertices = {{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  EXPECT_DOUBLE_EQ(square.Area(), 4.0);
  // Clockwise orientation still yields positive area.
  ConvexPolygon cw;
  cw.vertices = {{0, 0}, {0, 2}, {2, 2}, {2, 0}};
  EXPECT_DOUBLE_EQ(cw.Area(), 4.0);
}

TEST(ConvexPolygonTest, CentroidOfSquare) {
  ConvexPolygon square = PolygonFromRect(Rect2{{0, 0}, {2, 2}});
  const Point2 c = square.Centroid();
  EXPECT_NEAR(c.x, 1.0, 1e-12);
  EXPECT_NEAR(c.y, 1.0, 1e-12);
}

TEST(ConvexPolygonTest, EmptyPolygon) {
  ConvexPolygon p;
  EXPECT_TRUE(p.IsEmpty());
  EXPECT_DOUBLE_EQ(p.Area(), 0.0);
  EXPECT_TRUE(p.BoundingBox().IsEmpty());
}

TEST(ClipHalfPlaneTest, KeepAll) {
  const ConvexPolygon square = PolygonFromRect(Rect2{{0, 0}, {1, 1}});
  // x >= -1 keeps everything.
  const ConvexPolygon out = ClipHalfPlane(square, 1, 0, 1);
  EXPECT_DOUBLE_EQ(out.Area(), 1.0);
}

TEST(ClipHalfPlaneTest, RemoveAll) {
  const ConvexPolygon square = PolygonFromRect(Rect2{{0, 0}, {1, 1}});
  // x >= 2 removes everything.
  const ConvexPolygon out = ClipHalfPlane(square, 1, 0, -2);
  EXPECT_TRUE(out.IsEmpty());
}

TEST(ClipHalfPlaneTest, HalvesSquare) {
  const ConvexPolygon square = PolygonFromRect(Rect2{{0, 0}, {1, 1}});
  // x >= 0.5.
  const ConvexPolygon out = ClipHalfPlane(square, 1, 0, -0.5);
  EXPECT_NEAR(out.Area(), 0.5, 1e-12);
  for (const Point2& p : out.vertices) EXPECT_GE(p.x, 0.5 - 1e-12);
}

TEST(ClipHalfPlaneTest, DiagonalCut) {
  const ConvexPolygon square = PolygonFromRect(Rect2{{0, 0}, {1, 1}});
  // x + y <= 1  <=>  -x - y + 1 >= 0: keeps the lower-left triangle.
  const ConvexPolygon out = ClipHalfPlane(square, -1, -1, 1);
  EXPECT_NEAR(out.Area(), 0.5, 1e-12);
}

TEST(ClipHalfPlaneTest, SequentialClipsCommute) {
  const ConvexPolygon square = PolygonFromRect(Rect2{{0, 0}, {1, 1}});
  const ConvexPolygon a =
      ClipHalfPlane(ClipHalfPlane(square, 1, 0, -0.25), 0, 1, -0.25);
  const ConvexPolygon b =
      ClipHalfPlane(ClipHalfPlane(square, 0, 1, -0.25), 1, 0, -0.25);
  EXPECT_NEAR(a.Area(), b.Area(), 1e-12);
  EXPECT_NEAR(a.Area(), 0.75 * 0.75, 1e-12);
}

TEST(PolygonFromTriangleTest, NormalizesOrientation) {
  const Triangle2 cw{{Point2{0, 0}, Point2{0, 1}, Point2{1, 0}}};
  const ConvexPolygon p = PolygonFromTriangle(cw);
  // Shoelace on the produced order must be positive (CCW).
  double twice = 0;
  for (size_t i = 0; i < 3; ++i) {
    twice += Cross(p.vertices[i], p.vertices[(i + 1) % 3]);
  }
  EXPECT_GT(twice, 0);
}

}  // namespace
}  // namespace fielddb
