#include "field/grid_field.h"

#include "field/interpolation.h"

namespace fielddb {

GridField::GridField(uint32_t cols, uint32_t rows, const Rect2& domain,
                     std::vector<double> samples)
    : lattice_{cols, rows, domain},
      steps_(lattice_.CellSteps()),
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
  const uint32_t ci = id % cols();
  const uint32_t cj = id / cols();
  return CellRecord::Quad(id, lattice_.CellRect(ci, cj, steps_),
                          SampleAt(ci, cj), SampleAt(ci + 1, cj),
                          SampleAt(ci + 1, cj + 1), SampleAt(ci, cj + 1));
}

}  // namespace fielddb
