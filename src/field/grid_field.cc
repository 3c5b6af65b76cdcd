#include "field/grid_field.h"

#include <algorithm>
#include <cmath>

#include "field/interpolation.h"

namespace fielddb {

GridField::GridField(uint32_t cols, uint32_t rows, const Rect2& domain,
                     std::vector<double> samples)
    : cols_(cols), rows_(rows), domain_(domain),
      samples_(std::move(samples)) {
  value_range_ = ValueInterval::Empty();
  for (const double w : samples_) value_range_.Extend(w);
}

StatusOr<GridField> GridField::Create(uint32_t cols, uint32_t rows,
                                      const Rect2& domain,
                                      std::vector<double> samples) {
  if (cols == 0 || rows == 0) {
    return Status::InvalidArgument("grid must have at least one cell");
  }
  if (domain.IsEmpty() || domain.Width() <= 0 || domain.Height() <= 0) {
    return Status::InvalidArgument("grid domain must have positive area");
  }
  const size_t expected =
      static_cast<size_t>(cols + 1) * static_cast<size_t>(rows + 1);
  if (samples.size() != expected) {
    return Status::InvalidArgument(
        "expected " + std::to_string(expected) + " samples, got " +
        std::to_string(samples.size()));
  }
  if (!AllFinite(samples)) {
    return Status::InvalidArgument("samples must be finite");
  }
  return GridField(cols, rows, domain, std::move(samples));
}

CellRecord GridField::GetCell(CellId id) const {
  const uint32_t ci = id % cols_;
  const uint32_t cj = id / cols_;
  const double dx = domain_.Width() / cols_;
  const double dy = domain_.Height() / rows_;
  const Rect2 rect{{domain_.lo.x + ci * dx, domain_.lo.y + cj * dy},
                   {domain_.lo.x + (ci + 1) * dx, domain_.lo.y + (cj + 1) * dy}};
  return CellRecord::Quad(id, rect, SampleAt(ci, cj), SampleAt(ci + 1, cj),
                          SampleAt(ci + 1, cj + 1), SampleAt(ci, cj + 1));
}

StatusOr<CellId> GridField::FindCell(Point2 p) const {
  if (!domain_.Contains(p)) {
    return Status::NotFound("point outside field domain");
  }
  const double fx = (p.x - domain_.lo.x) / domain_.Width() * cols_;
  const double fy = (p.y - domain_.lo.y) / domain_.Height() * rows_;
  const uint32_t ci = static_cast<uint32_t>(
      std::clamp(std::floor(fx), 0.0, static_cast<double>(cols_ - 1)));
  const uint32_t cj = static_cast<uint32_t>(
      std::clamp(std::floor(fy), 0.0, static_cast<double>(rows_ - 1)));
  return CellIdAt(ci, cj);
}

}  // namespace fielddb
