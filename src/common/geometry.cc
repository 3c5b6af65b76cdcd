#include "common/geometry.h"

#include <algorithm>
#include <vector>

namespace fielddb {

std::array<double, 3> Triangle2::Barycentric(Point2 p) const {
  const Point2 a = v[0], b = v[1], c = v[2];
  const double denom = Cross(b - a, c - a);
  if (std::abs(denom) < kGeomEpsilon * kGeomEpsilon) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan, nan};
  }
  const double l1 = Cross(p - a, c - a) / denom;
  const double l2 = Cross(b - a, p - a) / denom;
  return {1.0 - l1 - l2, l1, l2};
}

bool Triangle2::Contains(Point2 p) const {
  const std::array<double, 3> l = Barycentric(p);
  // Scale the tolerance a little: barycentric coords of points on an edge
  // computed in floating point can be slightly negative.
  constexpr double tol = 1e-9;
  return l[0] >= -tol && l[1] >= -tol && l[2] >= -tol &&
         !std::isnan(l[0]);
}

double ConvexPolygon::Area() const {
  if (IsEmpty()) return 0.0;
  double twice = 0.0;
  for (size_t i = 0; i < vertices.size(); ++i) {
    const Point2 p = vertices[i];
    const Point2 q = vertices[(i + 1) % vertices.size()];
    twice += Cross(p, q);
  }
  return std::abs(twice) / 2.0;
}

Point2 ConvexPolygon::Centroid() const {
  if (vertices.empty()) return {0, 0};
  if (vertices.size() < 3) {
    Point2 sum{0, 0};
    for (const Point2& p : vertices) sum = sum + p;
    return {sum.x / vertices.size(), sum.y / vertices.size()};
  }
  // Area-weighted centroid; falls back to the vertex mean for degenerate
  // (zero-area) polygons.
  double twice_area = 0.0;
  Point2 acc{0, 0};
  for (size_t i = 0; i < vertices.size(); ++i) {
    const Point2 p = vertices[i];
    const Point2 q = vertices[(i + 1) % vertices.size()];
    const double w = Cross(p, q);
    twice_area += w;
    acc.x += (p.x + q.x) * w;
    acc.y += (p.y + q.y) * w;
  }
  if (std::abs(twice_area) < kGeomEpsilon) {
    Point2 sum{0, 0};
    for (const Point2& p : vertices) sum = sum + p;
    return {sum.x / vertices.size(), sum.y / vertices.size()};
  }
  return {acc.x / (3.0 * twice_area), acc.y / (3.0 * twice_area)};
}

Rect2 ConvexPolygon::BoundingBox() const {
  Rect2 r = Rect2::Empty();
  for (const Point2& p : vertices) r.Extend(p);
  return r;
}

size_t ClipConvex(const Point2* in, size_t count, const HalfPlane& h,
                  Point2* out) {
  if (count == 0) return 0;
  // Signed distances, each computed once: dc for the edge's start
  // vertex, dn for its end (the first vertex's again for the last edge).
  const double d0 = SignedDistance(h, in[0]);
  double dc = d0;
  size_t kept = 0;
  for (size_t i = 0; i < count; ++i) {
    const Point2 cur = in[i];
    const size_t next = i + 1 == count ? 0 : i + 1;
    const Point2 nxt = in[next];
    const double dn = next == 0 ? d0 : SignedDistance(h, nxt);
    if (dc >= 0) out[kept++] = cur;
    // Edge crosses the boundary: emit the intersection point.
    if ((dc > 0 && dn < 0) || (dc < 0 && dn > 0)) {
      const double t = dc / (dc - dn);
      out[kept++] = cur + t * (nxt - cur);
    }
    dc = dn;
  }
  return kept < 3 ? 0 : kept;
}

ConvexPolygon ClipHalfPlane(const ConvexPolygon& poly, Point2 n, double c) {
  std::vector<Point2> buffer(MaxClipVertices(poly.vertices.size()));
  const size_t kept = ClipConvex(poly.vertices.data(), poly.vertices.size(),
                                 HalfPlane{n, c}, buffer.data());
  ConvexPolygon out;
  out.vertices.assign(buffer.data(), buffer.data() + kept);
  return out;
}

ConvexPolygon PolygonFromTriangle(const Triangle2& t) {
  ConvexPolygon poly;
  if (t.SignedArea() >= 0) {
    poly.vertices = {t.v[0], t.v[1], t.v[2]};
  } else {
    poly.vertices = {t.v[0], t.v[2], t.v[1]};
  }
  return poly;
}

ConvexPolygon PolygonFromRect(const Rect2& r) {
  ConvexPolygon poly;
  if (r.IsEmpty()) return poly;
  poly.vertices = {{r.lo.x, r.lo.y},
                   {r.hi.x, r.lo.y},
                   {r.hi.x, r.hi.y},
                   {r.lo.x, r.hi.y}};
  return poly;
}

}  // namespace fielddb
