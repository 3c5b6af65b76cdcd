#include "vector/vector_isoband.h"

#include <array>

#include "field/interpolation.h"
#include "field/isoband.h"

namespace fielddb {

namespace {

// Clips one linear sub-triangle (with per-vertex u and v samples)
// against both component bands.
Status ClipVectorTriangle(Point2 a, double ua, double va, Point2 b,
                          double ub, double vb, Point2 c, double uc,
                          double vc, const VectorBandQuery& q, Region* out,
                          size_t* appended) {
  ValueInterval iu = ValueInterval::Empty(), iv = ValueInterval::Empty();
  iu.Extend(ua); iu.Extend(ub); iu.Extend(uc);
  iv.Extend(va); iv.Extend(vb); iv.Extend(vc);
  if (!iu.Intersects(q.u) || !iv.Intersects(q.v)) return Status::OK();

  const double cross = Cross(b - a, c - a);
  if (IsDegenerateTriangle(cross)) {
    return Status::InvalidArgument("degenerate triangle");
  }
  const LinearCoeffs pu = PlaneThrough(a, ua, b, ub, c, uc, cross);
  const LinearCoeffs pv = PlaneThrough(a, va, b, vb, c, vc, cross);
  const std::array<HalfPlane, 4> band = {
      HalfPlane{{pu.gx, pu.gy}, pu.c - q.u.min},
      HalfPlane{{-pu.gx, -pu.gy}, q.u.max - pu.c},
      HalfPlane{{pv.gx, pv.gy}, pv.c - q.v.min},
      HalfPlane{{-pv.gx, -pv.gy}, q.v.max - pv.c}};
  const bool values_inside =
      q.u.ContainsInInterior(iu) && q.v.ContainsInInterior(iv);
  if (AppendClippedTriangle(a, b, c, cross, band, values_inside, out)) {
    ++*appended;
  }
  return Status::OK();
}

}  // namespace

StatusOr<size_t> VectorCellIsoband(const VectorCellRecord& cell,
                                   const VectorBandQuery& query,
                                   Region* out) {
  if (query.u.IsEmpty() || query.v.IsEmpty()) {
    return Status::InvalidArgument("empty query band");
  }
  size_t appended = 0;
  if (!cell.ValueBox().Intersects(query.AsBox())) return appended;

  if (cell.num_vertices == 3) {
    FIELDDB_RETURN_IF_ERROR(ClipVectorTriangle(
        cell.Vertex(0), cell.u[0], cell.v[0], cell.Vertex(1), cell.u[1],
        cell.v[1], cell.Vertex(2), cell.u[2], cell.v[2], query, out,
        &appended));
    return appended;
  }
  if (cell.num_vertices == 4) {
    const Point2 center = cell.Bounds().Center();
    const double uc = (cell.u[0] + cell.u[1] + cell.u[2] + cell.u[3]) / 4;
    const double vc = (cell.v[0] + cell.v[1] + cell.v[2] + cell.v[3]) / 4;
    for (int i = 0; i < 4; ++i) {
      const int j = (i + 1) % 4;
      FIELDDB_RETURN_IF_ERROR(ClipVectorTriangle(
          cell.Vertex(i), cell.u[i], cell.v[i], cell.Vertex(j), cell.u[j],
          cell.v[j], center, uc, vc, query, out, &appended));
    }
    return appended;
  }
  return Status::InvalidArgument("unsupported cell arity");
}

}  // namespace fielddb
