#ifndef FIELDDB_FIELD_FIELD_H_
#define FIELDDB_FIELD_FIELD_H_

#include <cstdint>
#include <optional>

#include "common/geometry.h"
#include "common/interval.h"
#include "common/status.h"
#include "field/cell.h"
#include "field/grid_lattice.h"

namespace fielddb {

/// A continuous scalar field over a 2-D domain, represented as a
/// subdivision into cells with sample points at vertices (the (C, F)
/// pair of the paper's Section 2.1, restricted to scalar values and the
/// linear-interpolation family used throughout its experiments).
class Field {
 public:
  virtual ~Field() = default;

  /// Number of cells; cell ids are [0, NumCells()).
  virtual CellId NumCells() const = 0;

  /// Materializes cell `id` as a self-contained record.
  virtual CellRecord GetCell(CellId id) const = 0;

  /// The spatial extent covered by the cells.
  virtual Rect2 Domain() const = 0;

  /// Finds the cell containing `p` (NotFound if outside the domain).
  /// Subclasses override with O(1)/indexed lookups where possible; this
  /// base implementation scans all cells.
  virtual StatusOr<CellId> FindCell(Point2 p) const;

  /// Hull of all cell value intervals — the field's value range, used to
  /// normalize query intervals and the subfield cost function.
  /// Computed by a scan; subclasses may cache.
  virtual ValueInterval ValueRange() const;

  /// The regular grid lattice whose cells this field's cells are
  /// (GridField and the router's slices of one), else nullopt (TINs).
  /// Cell `id`'s place on it is the lattice cell its centroid lies in.
  /// The field picks its store layout by this: a database over a
  /// lattice stores only each cell's values and rebuilds the rectangle
  /// from the lattice; any other field stores explicit CellRecords.
  virtual std::optional<GridLattice> Lattice() const { return std::nullopt; }

  /// Conventional Q1 query: the interpolated field value at `p`.
  StatusOr<double> ValueAt(Point2 p) const;
};

/// A view of `base` that forwards every call but names no lattice, so
/// a database built over it stores each cell as an explicit 104-byte
/// CellRecord: the paper's storage model. The figure benches build
/// through it, so their page counts stay those of EXPERIMENTS.md.
/// `base` must outlive the view.
class ExplicitCellsField final : public Field {
 public:
  explicit ExplicitCellsField(const Field& base) : base_(base) {}

  CellId NumCells() const override { return base_.NumCells(); }
  CellRecord GetCell(CellId id) const override { return base_.GetCell(id); }
  Rect2 Domain() const override { return base_.Domain(); }
  StatusOr<CellId> FindCell(Point2 p) const override {
    return base_.FindCell(p);
  }
  ValueInterval ValueRange() const override { return base_.ValueRange(); }

 private:
  const Field& base_;
};

}  // namespace fielddb

#endif  // FIELDDB_FIELD_FIELD_H_
