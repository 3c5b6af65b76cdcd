#ifndef FIELDDB_FIELD_ISOBAND_H_
#define FIELDDB_FIELD_ISOBAND_H_

#include <array>
#include <cstddef>
#include <new>
#include <utility>

#include "common/geometry.h"
#include "common/interval.h"
#include "common/status.h"
#include "field/cell.h"
#include "field/region.h"

namespace fielddb {

/// Estimation step (paper Section 3.2, algorithm `Estimate`): the exact
/// sub-region of `cell` where wlo <= F(p) <= whi, as convex polygon
/// pieces. This is the inverse interpolation f^-1 applied to the cell's
/// sample points:
///  - triangles: the linear interpolant w(p) = g.p + c is clipped by the
///    two iso half-planes w(p) >= wlo and w(p) <= whi;
///  - grid quads: the bilinear patch is evaluated as four linear triangles
///    fanned around the cell center (whose value the bilinear interpolant
///    fixes to the corner average), each clipped as above. This is exact
///    for the piecewise-linear reading of the DEM and conservative for
///    the bilinear one.
/// Appends pieces to `*out`; returns the number of pieces appended.
StatusOr<size_t> CellIsoband(const CellRecord& cell, const ValueInterval& q,
                             Region* out);

/// The clip chain of one linear triangle of a cell, shared by the scalar
/// and the vector estimation steps: orients the triangle (a, b, c)
/// counter-clockwise as PolygonFromTriangle does (by the sign of its
/// non-degenerate doubled area `cross` = Cross(b - a, c - a)), clips it
/// by each half-plane in turn in stack buffers, and appends a surviving
/// piece to `*out`. Returns whether it appended one.
///
/// `values_inside` says the caller's vertex values lie strictly inside
/// every band, so the band probably covers the triangle. The triangle
/// then takes the unclipped path: when each vertex has SignedDistance
/// >= 0 to each half-plane, every ClipConvex pass would return its
/// input unchanged, so the oriented triangle is appended as it is (the
/// chain's piece, bit for bit) and the clip loop is skipped. Every
/// other triangle runs the chain.
template <size_t K>
bool AppendClippedTriangle(Point2 a, Point2 b, Point2 c, double cross,
                           const std::array<HalfPlane, K>& planes,
                           bool values_inside, Region* out) {
  // Clip k writes at most 3 << k vertices (MaxClipVertices), alternately
  // to the second and the first buffer, which also holds the triangle.
  // Byte storage is not zero-filled on entry as Point2[] would be (a
  // sixth of the step's time); every vertex is written before it is read.
  alignas(Point2) unsigned char storage[2][(3 << K) * sizeof(Point2)];
  Point2* in = std::launder(reinterpret_cast<Point2*>(storage[0]));
  Point2* dst = std::launder(reinterpret_cast<Point2*>(storage[1]));
  in[0] = a;
  in[1] = cross >= 0 ? b : c;
  in[2] = cross >= 0 ? c : b;
  if (values_inside) {
    // No early exit: the 3K tests run branch-free. A NaN distance fails
    // its test, as it fails ClipConvex's.
    bool covered = true;
    for (const HalfPlane& h : planes) {
      for (size_t i = 0; i < 3; ++i) {
        covered &= SignedDistance(h, in[i]) >= 0;
      }
    }
    if (covered) {
      out->pieces.emplace_back().vertices.assign(in, in + 3);
      return true;
    }
  }
  size_t count = 3;
  for (const HalfPlane& h : planes) {
    count = ClipConvex(in, count, h, dst);
    if (count == 0) return false;
    std::swap(in, dst);
  }
  out->pieces.emplace_back().vertices.assign(in, in + count);
  return true;
}

}  // namespace fielddb

#endif  // FIELDDB_FIELD_ISOBAND_H_
