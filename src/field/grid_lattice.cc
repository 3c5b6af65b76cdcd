#include "field/grid_lattice.h"

#include <algorithm>
#include <cmath>

namespace fielddb {

StatusOr<uint32_t> GridLattice::FindCell(Point2 p) const {
  if (!domain.Contains(p)) {
    return Status::NotFound("point outside field domain");
  }
  const double fx = (p.x - domain.lo.x) / domain.Width() * cols;
  const double fy = (p.y - domain.lo.y) / domain.Height() * rows;
  const uint32_t ci = static_cast<uint32_t>(
      std::clamp(std::floor(fx), 0.0, static_cast<double>(cols - 1)));
  const uint32_t cj = static_cast<uint32_t>(
      std::clamp(std::floor(fy), 0.0, static_cast<double>(rows - 1)));
  return cj * cols + ci;
}

}  // namespace fielddb
