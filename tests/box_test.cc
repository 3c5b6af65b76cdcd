#include "rtree/box.h"

#include <gtest/gtest.h>

namespace fielddb {
namespace {

Box<2> MakeBox(double x0, double y0, double x1, double y1) {
  Box<2> b;
  b.lo = {x0, y0};
  b.hi = {x1, y1};
  return b;
}

TEST(BoxTest, EmptyIdentity) {
  Box<2> e = Box<2>::Empty();
  EXPECT_TRUE(e.IsEmpty());
  e.Extend(MakeBox(1, 2, 3, 4));
  EXPECT_FALSE(e.IsEmpty());
  EXPECT_EQ(e, MakeBox(1, 2, 3, 4));
}

TEST(BoxTest, IntersectsClosedBoundaries) {
  const Box<2> a = MakeBox(0, 0, 1, 1);
  EXPECT_TRUE(a.Intersects(MakeBox(1, 0, 2, 1)));   // shared edge
  EXPECT_TRUE(a.Intersects(MakeBox(1, 1, 2, 2)));   // shared corner
  EXPECT_FALSE(a.Intersects(MakeBox(1.01, 0, 2, 1)));
  EXPECT_TRUE(a.Intersects(a));
}

TEST(BoxTest, Contains) {
  const Box<2> outer = MakeBox(0, 0, 4, 4);
  EXPECT_TRUE(outer.Contains(MakeBox(1, 1, 2, 2)));
  EXPECT_TRUE(outer.Contains(outer));
  EXPECT_FALSE(outer.Contains(MakeBox(3, 3, 5, 5)));
  EXPECT_FALSE(MakeBox(1, 1, 2, 2).Contains(outer));
}

TEST(BoxTest, IntervalAdapters) {
  const ValueInterval iv{2, 5};
  const Box<1> b = BoxFromInterval(iv);
  EXPECT_DOUBLE_EQ(b.lo[0], 2.0);
  EXPECT_DOUBLE_EQ(b.hi[0], 5.0);
}

TEST(BoxTest, RectAdapters) {
  const Rect2 r{{1, 2}, {3, 4}};
  EXPECT_EQ(BoxFromRect(r), MakeBox(1, 2, 3, 4));
  const Box<2> p = BoxFromPoint({5, 6});
  EXPECT_EQ(p.lo, p.hi);
  EXPECT_TRUE(p.Intersects(MakeBox(5, 6, 7, 8)));
}

TEST(BoxTest, DegenerateBoxBehaves) {
  // Zero-extent boxes (exact-value intervals) are not "empty".
  Box<1> point;
  point.lo = {3};
  point.hi = {3};
  EXPECT_FALSE(point.IsEmpty());
  Box<1> other;
  other.lo = {3};
  other.hi = {9};
  EXPECT_TRUE(point.Intersects(other));
}

}  // namespace
}  // namespace fielddb
