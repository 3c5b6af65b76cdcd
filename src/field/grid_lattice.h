#ifndef FIELDDB_FIELD_GRID_LATTICE_H_
#define FIELDDB_FIELD_GRID_LATTICE_H_

#include <cstdint>

#include "common/geometry.h"
#include "common/status.h"

namespace fielddb {

/// The geometry of a regular `cols` x `rows` grid of rectangular cells
/// over `domain` (the DEM of the paper's Fig. 1). Lattice cell g is
/// column g % cols, row g / cols. The one place a grid cell's rectangle
/// and the cell of a point are computed: GridField::GetCell and
/// FindCell call it, and so does a lattice cell store decoding a slot,
/// so a decoded cell equals GetCell bit for bit by construction.
struct GridLattice {
  uint32_t cols = 0;
  uint32_t rows = 0;
  Rect2 domain;

  uint64_t NumCells() const { return uint64_t{cols} * rows; }

  /// A cell's width and height: domain.Width() / cols and
  /// domain.Height() / rows. A store that rebuilds many cells computes
  /// them once and passes them to CellRect.
  struct Steps {
    double dx = 0.0;
    double dy = 0.0;
  };
  Steps CellSteps() const {
    return {domain.Width() / cols, domain.Height() / rows};
  }

  /// The rectangle of the cell at column `ci`, row `cj`, for `steps` =
  /// CellSteps(). The last column and row end exactly on the domain's
  /// far edges, wherever rounding would put lo + cols * dx.
  Rect2 CellRect(uint32_t ci, uint32_t cj, Steps steps) const {
    const double dx = steps.dx;
    const double dy = steps.dy;
    return Rect2{{domain.lo.x + ci * dx, domain.lo.y + cj * dy},
                 {ci + 1 == cols ? domain.hi.x : domain.lo.x + (ci + 1) * dx,
                  cj + 1 == rows ? domain.hi.y : domain.lo.y + (cj + 1) * dy}};
  }
  Rect2 CellRect(uint32_t ci, uint32_t cj) const {
    return CellRect(ci, cj, CellSteps());
  }

  /// The rectangle of lattice cell `g`.
  Rect2 CellRect(uint32_t g, Steps steps) const {
    return CellRect(g % cols, g / cols, steps);
  }
  Rect2 CellRect(uint32_t g) const { return CellRect(g, CellSteps()); }

  /// The lattice cell containing `p`, up to rounding; NotFound outside
  /// the domain. A point on an edge between two cells goes to the upper
  /// or right one, except on the domain's far edges.
  StatusOr<uint32_t> FindCell(Point2 p) const;

  bool operator==(const GridLattice& other) const = default;
};

}  // namespace fielddb

#endif  // FIELDDB_FIELD_GRID_LATTICE_H_
