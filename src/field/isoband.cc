#include "field/isoband.h"

#include "field/interpolation.h"

namespace fielddb {

namespace {

// Clips one linearly-interpolated triangle against the band
// [q.min, q.max] and appends the surviving piece (if any).
Status ClipTriangle(Point2 a, double wa, Point2 b, double wb, Point2 c,
                    double wc, const ValueInterval& q, Region* out,
                    size_t* appended) {
  // Quick reject: the triangle's own interval misses the band.
  ValueInterval iv = ValueInterval::Empty();
  iv.Extend(wa);
  iv.Extend(wb);
  iv.Extend(wc);
  if (!iv.Intersects(q)) return Status::OK();

  const double cross = Cross(b - a, c - a);
  if (IsDegenerateTriangle(cross)) {
    return Status::InvalidArgument("degenerate triangle");
  }
  const LinearCoeffs plane = PlaneThrough(a, wa, b, wb, c, wc, cross);
  // w(p) >= q.min  <=>  gx*x + gy*y + (c - q.min) >= 0
  // w(p) <= q.max  <=>  -gx*x - gy*y + (q.max - c) >= 0
  const std::array<HalfPlane, 2> band = {
      HalfPlane{{plane.gx, plane.gy}, plane.c - q.min},
      HalfPlane{{-plane.gx, -plane.gy}, q.max - plane.c}};
  const bool values_inside = q.ContainsInInterior(iv);
  if (AppendClippedTriangle(a, b, c, cross, band, values_inside, out)) {
    ++*appended;
  }
  return Status::OK();
}

}  // namespace

StatusOr<size_t> CellIsoband(const CellRecord& cell, const ValueInterval& q,
                             Region* out) {
  if (q.IsEmpty()) {
    return Status::InvalidArgument("empty query interval");
  }
  size_t appended = 0;
  if (!cell.Interval().Intersects(q)) return appended;

  if (cell.num_vertices == 3) {
    FIELDDB_RETURN_IF_ERROR(ClipTriangle(cell.Vertex(0), cell.w[0],
                                         cell.Vertex(1), cell.w[1],
                                         cell.Vertex(2), cell.w[2], q, out,
                                         &appended));
    return appended;
  }
  if (cell.num_vertices == 4) {
    const Point2 center = cell.Bounds().Center();
    const double wc =
        (cell.w[0] + cell.w[1] + cell.w[2] + cell.w[3]) / 4.0;
    for (int i = 0; i < 4; ++i) {
      const int j = (i + 1) % 4;
      FIELDDB_RETURN_IF_ERROR(ClipTriangle(cell.Vertex(i), cell.w[i],
                                           cell.Vertex(j), cell.w[j], center,
                                           wc, q, out, &appended));
    }
    return appended;
  }
  return Status::InvalidArgument("unsupported cell arity");
}

}  // namespace fielddb
