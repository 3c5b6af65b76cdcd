#ifndef FIELDDB_FIELD_GRID_FIELD_H_
#define FIELDDB_FIELD_GRID_FIELD_H_

#include <vector>

#include "field/field.h"

namespace fielddb {

/// A DEM-style grid field: `cols` x `rows` rectangular cells over a
/// rectangular domain, with samples at the (cols+1) x (rows+1) grid
/// vertices and bilinear interpolation inside each cell (the "DEM for a
/// continuous field" of the paper's Fig. 1, as opposed to the raster DEM
/// with one value per cell).
class GridField final : public Field {
 public:
  /// `samples` holds (cols+1)*(rows+1) values in row-major order
  /// (index j*(cols+1)+i for vertex column i, row j).
  static StatusOr<GridField> Create(uint32_t cols, uint32_t rows,
                                    const Rect2& domain,
                                    std::vector<double> samples);

  /// Cell ids are lattice ids.
  CellId NumCells() const override { return cols() * rows(); }
  CellRecord GetCell(CellId id) const override;
  Rect2 Domain() const override { return lattice_.domain; }
  StatusOr<CellId> FindCell(Point2 p) const override {
    return lattice_.FindCell(p);
  }
  ValueInterval ValueRange() const override { return value_range_; }
  std::optional<GridLattice> Lattice() const override { return lattice_; }

  uint32_t cols() const { return lattice_.cols; }
  uint32_t rows() const { return lattice_.rows; }

  /// Sample value at vertex (i, j), i <= cols, j <= rows.
  double SampleAt(uint32_t i, uint32_t j) const {
    return samples_[static_cast<size_t>(j) * (cols() + 1) + i];
  }

  /// Cell id of grid cell (ci, cj); ci < cols, cj < rows.
  CellId CellIdAt(uint32_t ci, uint32_t cj) const {
    return cj * cols() + ci;
  }

 private:
  GridField(uint32_t cols, uint32_t rows, const Rect2& domain,
            std::vector<double> samples);

  GridLattice lattice_;
  GridLattice::Steps steps_;  // lattice_.CellSteps(), computed once
  std::vector<double> samples_;
  ValueInterval value_range_;
};

}  // namespace fielddb

#endif  // FIELDDB_FIELD_GRID_FIELD_H_
