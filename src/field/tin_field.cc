#include "field/tin_field.h"

#include <cmath>

namespace fielddb {

TinField::TinField(std::vector<TinVertex> vertices,
                   std::vector<TinTriangle> triangles)
    : vertices_(std::move(vertices)), triangles_(std::move(triangles)) {
  domain_ = Rect2::Empty();
  value_range_ = ValueInterval::Empty();
  for (const TinVertex& v : vertices_) {
    domain_.Extend(v.pos);
    value_range_.Extend(v.value);
  }
}

StatusOr<TinField> TinField::Create(std::vector<TinVertex> vertices,
                                    std::vector<TinTriangle> triangles) {
  if (triangles.empty()) {
    return Status::InvalidArgument("TIN must have at least one triangle");
  }
  for (const TinVertex& v : vertices) {
    if (!std::isfinite(v.value)) {
      return Status::InvalidArgument("samples must be finite");
    }
  }
  for (const TinTriangle& t : triangles) {
    for (const uint32_t vi : t.v) {
      if (vi >= vertices.size()) {
        return Status::InvalidArgument("triangle vertex index out of range");
      }
    }
    const Triangle2 tri{{vertices[t.v[0]].pos, vertices[t.v[1]].pos,
                         vertices[t.v[2]].pos}};
    if (tri.Area() <= 0.0) {
      return Status::InvalidArgument("degenerate triangle in TIN");
    }
  }
  return TinField(std::move(vertices), std::move(triangles));
}

CellRecord TinField::GetCell(CellId id) const {
  const TinTriangle& t = triangles_[id];
  const TinVertex& a = vertices_[t.v[0]];
  const TinVertex& b = vertices_[t.v[1]];
  const TinVertex& c = vertices_[t.v[2]];
  return CellRecord::Triangle(id, a.pos, a.value, b.pos, b.value, c.pos,
                              c.value);
}

}  // namespace fielddb
