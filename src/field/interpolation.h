#ifndef FIELDDB_FIELD_INTERPOLATION_H_
#define FIELDDB_FIELD_INTERPOLATION_H_

#include <cmath>

#include "common/geometry.h"
#include "common/status.h"
#include "field/cell.h"

namespace fielddb {

/// True when `p` lies inside (or on the boundary of) `cell`.
bool CellContains(const CellRecord& cell, Point2 p);

/// Interpolates the field value at `p`, which must lie inside the cell
/// (returns OutOfRange otherwise): barycentric for triangles, bilinear for
/// quads — the "simple linear interpolation" of the paper's experiments.
StatusOr<double> InterpolateCell(const CellRecord& cell, Point2 p);

/// Coefficients of the affine function w(p) = gx*x + gy*y + c through a
/// triangle's three sample points.
struct LinearCoeffs {
  double gx = 0.0;
  double gy = 0.0;
  double c = 0.0;

  double Eval(Point2 p) const { return gx * p.x + gy * p.y + c; }
};

/// True when a triangle whose doubled signed area is `cross` =
/// Cross(b - a, c - a) is too thin to fit a plane through.
inline bool IsDegenerateTriangle(double cross) {
  return std::abs(cross) < kGeomEpsilon * kGeomEpsilon;
}

/// The plane through a non-degenerate triangle's sample points, given
/// its doubled signed area `cross` = Cross(b - a, c - a). Inline so the
/// estimation step fits its fan triangles without a call or a Status;
/// FitTrianglePlane is the checked form.
inline LinearCoeffs PlaneThrough(Point2 a, double wa, Point2 b, double wb,
                                 Point2 c, double wc, double cross) {
  LinearCoeffs lc;
  lc.gx = ((wb - wa) * (c.y - a.y) - (wc - wa) * (b.y - a.y)) / cross;
  lc.gy = ((wc - wa) * (b.x - a.x) - (wb - wa) * (c.x - a.x)) / cross;
  lc.c = wa - lc.gx * a.x - lc.gy * a.y;
  return lc;
}

/// Fits the plane through the triangle's vertices. Degenerate triangles
/// (zero area) yield InvalidArgument.
StatusOr<LinearCoeffs> FitTrianglePlane(Point2 a, double wa, Point2 b,
                                        double wb, Point2 c, double wc);

}  // namespace fielddb

#endif  // FIELDDB_FIELD_INTERPOLATION_H_
