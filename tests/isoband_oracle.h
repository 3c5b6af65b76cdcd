#ifndef FIELDDB_TESTS_ISOBAND_ORACLE_H_
#define FIELDDB_TESTS_ISOBAND_ORACLE_H_

// Oracle for the golden estimation-step tests (isoband_test, vector_test):
// the library's original clip chain, kept verbatim on std::vector<Point2>
// — orient the triangle, fit its plane, then one heap-allocating
// Sutherland–Hodgman pass per half-plane. The library's in-place vertices
// and stack-buffered clip loop must reproduce its pieces bit for bit.
// Below it, the adversarial inputs both suites draw from.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/geometry.h"
#include "common/interval.h"
#include "common/rng.h"
#include "field/cell.h"
#include "field/region.h"
#include "vector/vector_field.h"
#include "vector/vector_record.h"

namespace fielddb::oracle {

using Polygon = std::vector<Point2>;

struct Plane {
  double gx = 0.0;
  double gy = 0.0;
  double c = 0.0;
};

inline Polygon ClipHalfPlane(const Polygon& poly, Point2 n, double c) {
  Polygon out;
  const size_t count = poly.size();
  if (count == 0) return out;
  out.reserve(count + 1);
  for (size_t i = 0; i < count; ++i) {
    const Point2 cur = poly[i];
    const Point2 nxt = poly[(i + 1) % count];
    const double dc = Dot(n, cur) + c;
    const double dn = Dot(n, nxt) + c;
    if (dc >= 0) out.push_back(cur);
    if ((dc > 0 && dn < 0) || (dc < 0 && dn > 0)) {
      const double t = dc / (dc - dn);
      out.push_back(cur + t * (nxt - cur));
    }
  }
  if (out.size() < 3) out.clear();
  return out;
}

inline Polygon PolygonFromTriangle(const Triangle2& t) {
  if (t.SignedArea() >= 0) return {t.v[0], t.v[1], t.v[2]};
  return {t.v[0], t.v[2], t.v[1]};
}

// Returns false for a degenerate triangle.
inline bool FitTrianglePlane(Point2 a, double wa, Point2 b, double wb,
                             Point2 c, double wc, Plane* lc) {
  const double denom = Cross(b - a, c - a);
  if (std::abs(denom) < kGeomEpsilon * kGeomEpsilon) return false;
  lc->gx = ((wb - wa) * (c.y - a.y) - (wc - wa) * (b.y - a.y)) / denom;
  lc->gy = ((wc - wa) * (b.x - a.x) - (wb - wa) * (c.x - a.x)) / denom;
  lc->c = wa - lc->gx * a.x - lc->gy * a.y;
  return true;
}

// Scalar fan triangle: clipped by w >= q.min, then w <= q.max.
inline bool ClipTriangle(Point2 a, double wa, Point2 b, double wb, Point2 c,
                         double wc, const ValueInterval& q,
                         std::vector<Polygon>* out) {
  ValueInterval iv = ValueInterval::Empty();
  iv.Extend(wa);
  iv.Extend(wb);
  iv.Extend(wc);
  if (!iv.Intersects(q)) return true;
  Plane plane;
  if (!FitTrianglePlane(a, wa, b, wb, c, wc, &plane)) return false;
  Polygon poly = oracle::PolygonFromTriangle(Triangle2{{a, b, c}});
  poly = oracle::ClipHalfPlane(poly, Point2{plane.gx, plane.gy},
                               plane.c - q.min);
  poly = oracle::ClipHalfPlane(poly, Point2{-plane.gx, -plane.gy},
                               q.max - plane.c);
  if (poly.size() >= 3) out->push_back(std::move(poly));
  return true;
}

// CellIsoband's pieces in order; false where CellIsoband fails (pieces
// appended before the failure stay, as they do in the library).
inline bool CellIsoband(const CellRecord& cell, const ValueInterval& q,
                        std::vector<Polygon>* out) {
  if (q.IsEmpty()) return false;
  if (!cell.Interval().Intersects(q)) return true;
  if (cell.num_vertices == 3) {
    return ClipTriangle(cell.Vertex(0), cell.w[0], cell.Vertex(1), cell.w[1],
                        cell.Vertex(2), cell.w[2], q, out);
  }
  if (cell.num_vertices == 4) {
    const Point2 center = cell.Bounds().Center();
    const double wc = (cell.w[0] + cell.w[1] + cell.w[2] + cell.w[3]) / 4.0;
    for (int i = 0; i < 4; ++i) {
      const int j = (i + 1) % 4;
      if (!ClipTriangle(cell.Vertex(i), cell.w[i], cell.Vertex(j), cell.w[j],
                        center, wc, q, out)) {
        return false;
      }
    }
    return true;
  }
  return false;
}

// Vector fan triangle: clipped by both bounds of u, then both of v.
inline bool ClipVectorTriangle(Point2 a, double ua, double va, Point2 b,
                               double ub, double vb, Point2 c, double uc,
                               double vc, const VectorBandQuery& q,
                               std::vector<Polygon>* out) {
  ValueInterval iu = ValueInterval::Empty(), iv = ValueInterval::Empty();
  iu.Extend(ua); iu.Extend(ub); iu.Extend(uc);
  iv.Extend(va); iv.Extend(vb); iv.Extend(vc);
  if (!iu.Intersects(q.u) || !iv.Intersects(q.v)) return true;
  Plane pu, pv;
  if (!FitTrianglePlane(a, ua, b, ub, c, uc, &pu)) return false;
  if (!FitTrianglePlane(a, va, b, vb, c, vc, &pv)) return false;
  Polygon poly = oracle::PolygonFromTriangle(Triangle2{{a, b, c}});
  poly = oracle::ClipHalfPlane(poly, Point2{pu.gx, pu.gy}, pu.c - q.u.min);
  poly = oracle::ClipHalfPlane(poly, Point2{-pu.gx, -pu.gy},
                               q.u.max - pu.c);
  poly = oracle::ClipHalfPlane(poly, Point2{pv.gx, pv.gy}, pv.c - q.v.min);
  poly = oracle::ClipHalfPlane(poly, Point2{-pv.gx, -pv.gy},
                               q.v.max - pv.c);
  if (poly.size() >= 3) out->push_back(std::move(poly));
  return true;
}

// VectorCellIsoband's pieces in order; false where it fails.
inline bool VectorCellIsoband(const VectorCellRecord& cell,
                              const VectorBandQuery& q,
                              std::vector<Polygon>* out) {
  if (q.u.IsEmpty() || q.v.IsEmpty()) return false;
  if (!cell.ValueBox().Intersects(q.AsBox())) return true;
  if (cell.num_vertices == 3) {
    return ClipVectorTriangle(cell.Vertex(0), cell.u[0], cell.v[0],
                              cell.Vertex(1), cell.u[1], cell.v[1],
                              cell.Vertex(2), cell.u[2], cell.v[2], q, out);
  }
  if (cell.num_vertices == 4) {
    const Point2 center = cell.Bounds().Center();
    const double uc = (cell.u[0] + cell.u[1] + cell.u[2] + cell.u[3]) / 4;
    const double vc = (cell.v[0] + cell.v[1] + cell.v[2] + cell.v[3]) / 4;
    for (int i = 0; i < 4; ++i) {
      const int j = (i + 1) % 4;
      if (!ClipVectorTriangle(cell.Vertex(i), cell.u[i], cell.v[i],
                              cell.Vertex(j), cell.u[j], cell.v[j], center,
                              uc, vc, q, out)) {
        return false;
      }
    }
    return true;
  }
  return false;
}

// Expects `got` to hold exactly `want`: the same pieces in the same order,
// every vertex double bit-identical (stricter than ==, which also equates
// 0.0 with -0.0).
inline void ExpectSamePieces(const Region& got,
                             const std::vector<Polygon>& want) {
  ASSERT_EQ(got.pieces.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const VertexList& vertices = got.pieces[i].vertices;
    ASSERT_EQ(vertices.size(), want[i].size()) << "piece " << i;
    for (size_t j = 0; j < want[i].size(); ++j) {
      EXPECT_EQ(vertices[j], want[i][j]) << "piece " << i << " vertex " << j;
    }
    EXPECT_EQ(std::memcmp(vertices.data(), want[i].data(),
                          want[i].size() * sizeof(Point2)),
              0)
        << "piece " << i;
  }
}

// --- Adversarial inputs: values one ulp from a band edge -------------
//
// A vertex whose value lies strictly inside the band can still lie just
// outside a fitted half-plane: the plane fit rounds, and far from the
// origin or on a sliver it rounds by much more than an ulp of the
// value. The clip chain then cuts a sliver off the triangle. A shortcut
// that trusted the vertex values alone and emitted such a triangle
// unclipped gets these inputs wrong.

// A band edge at `w`, one ulp beyond it (so `w` is one ulp inside the
// band) or one ulp short of it (`w` one ulp outside). `outward` is the
// direction away from the band's interior.
inline double EdgeNear(Rng& rng, double w, double outward) {
  switch (rng.NextBounded(4)) {
    case 0: return w;
    case 1: return std::nextafter(w, -outward);
    default: return std::nextafter(w, outward);  // the shortcut's trap
  }
}

// A band whose edges sit within an ulp of the extreme values of `w` or,
// for a quad's four values, sometimes of its fan center's value.
inline ValueInterval UlpBand(Rng& rng, const double* w, size_t n) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  double lo = *std::min_element(w, w + n);
  double hi = *std::max_element(w, w + n);
  if (n == 4 && rng.NextBounded(4) == 0) {
    const double center = (w[0] + w[1] + w[2] + w[3]) / 4.0;
    (rng.NextBounded(2) == 0 ? lo : hi) = center;
  }
  return ValueInterval{EdgeNear(rng, lo, -inf), EdgeNear(rng, hi, inf)};
}

// Vertex values: a level plus small spreads, some only a few ulps wide.
inline void UlpValues(Rng& rng, double* w, size_t n) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double level = rng.NextDouble(-2.0, 2.0);
  const double spread = rng.NextBounded(2) == 0
                            ? rng.NextDouble(0.0, 1.0)
                            : 8 * (std::nextafter(level, inf) - level);
  for (size_t i = 0; i < n; ++i) w[i] = level + rng.NextDouble() * spread;
}

// The pieces a vertex-value-only shortcut emits for a cell whose values
// all lie strictly inside the band: every fan triangle unclipped.
inline std::vector<Polygon> UnclippedFan(const CellRecord& cell) {
  std::vector<Polygon> fan;
  if (cell.num_vertices == 3) {
    fan.push_back(oracle::PolygonFromTriangle(
        Triangle2{{cell.Vertex(0), cell.Vertex(1), cell.Vertex(2)}}));
    return fan;
  }
  const Point2 center = cell.Bounds().Center();
  for (int i = 0; i < 4; ++i) {
    fan.push_back(oracle::PolygonFromTriangle(
        Triangle2{{cell.Vertex(i), cell.Vertex((i + 1) % 4), center}}));
  }
  return fan;
}

}  // namespace fielddb::oracle

#endif  // FIELDDB_TESTS_ISOBAND_ORACLE_H_
