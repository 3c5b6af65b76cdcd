#include "field/interpolation.h"

#include <cmath>

namespace fielddb {

bool CellContains(const CellRecord& cell, Point2 p) {
  if (cell.num_vertices == 3) {
    Triangle2 t{{cell.Vertex(0), cell.Vertex(1), cell.Vertex(2)}};
    return t.Contains(p);
  }
  if (cell.num_vertices == 4) {
    return cell.Bounds().Contains(p);
  }
  return false;
}

StatusOr<double> InterpolateCell(const CellRecord& cell, Point2 p) {
  if (!CellContains(cell, p)) {
    return Status::OutOfRange("point not inside cell");
  }
  if (cell.num_vertices == 3) {
    Triangle2 t{{cell.Vertex(0), cell.Vertex(1), cell.Vertex(2)}};
    const std::array<double, 3> l = t.Barycentric(p);
    if (std::isnan(l[0])) {
      return Status::InvalidArgument("degenerate triangle");
    }
    return l[0] * cell.w[0] + l[1] * cell.w[1] + l[2] * cell.w[2];
  }
  if (cell.num_vertices == 4) {
    const Rect2 r = cell.Bounds();
    const double dx = r.Width();
    const double dy = r.Height();
    if (dx <= 0 || dy <= 0) {
      return Status::InvalidArgument("degenerate quad");
    }
    const double u = (p.x - r.lo.x) / dx;
    const double v = (p.y - r.lo.y) / dy;
    // Corners: w[0]=ll, w[1]=lr, w[2]=ur, w[3]=ul.
    const double bottom = cell.w[0] * (1 - u) + cell.w[1] * u;
    const double top = cell.w[3] * (1 - u) + cell.w[2] * u;
    return bottom * (1 - v) + top * v;
  }
  return Status::InvalidArgument("unsupported cell arity");
}

StatusOr<LinearCoeffs> FitTrianglePlane(Point2 a, double wa, Point2 b,
                                        double wb, Point2 c, double wc) {
  const double cross = Cross(b - a, c - a);
  if (IsDegenerateTriangle(cross)) {
    return Status::InvalidArgument("degenerate triangle");
  }
  return PlaneThrough(a, wa, b, wb, c, wc, cross);
}

}  // namespace fielddb
