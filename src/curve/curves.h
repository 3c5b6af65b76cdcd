#ifndef FIELDDB_CURVE_CURVES_H_
#define FIELDDB_CURVE_CURVES_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/geometry.h"

namespace fielddb {

/// Linearization orders for 2-D cell grids. The paper adopts Hilbert
/// (Section 3.1.2, citing [7, 13] for its superior clustering); the others
/// exist as ablation baselines.
enum class CurveType {
  kHilbert,
  kZOrder,
  kGrayCode,
  kRowMajor,
};

const char* CurveTypeName(CurveType type);

/// Bits per dimension of the grid every curve-ordered build quantizes
/// cell centers onto: I-Hilbert, the vector and temporal stores and the
/// router's partition. 16 gives a 65536^2 grid — far below a center
/// spacing that would alias for every workload in this repository.
constexpr int kCurveOrder = 16;

/// A bijection between 2-D grid coordinates and positions along a linear
/// traversal of the grid. `order` is the number of bits per dimension; the
/// curve covers the 2^order x 2^order grid and produces indexes in
/// [0, 2^(2*order)).
class SpaceFillingCurve {
 public:
  explicit SpaceFillingCurve(int order) : order_(order) {}
  virtual ~SpaceFillingCurve() = default;

  int order() const { return order_; }
  /// Side length of the covered grid (2^order).
  uint32_t side() const { return uint32_t{1} << order_; }
  /// Number of grid points (2^(2*order)).
  uint64_t num_points() const { return uint64_t{1} << (2 * order_); }

  virtual CurveType type() const = 0;

  /// Maps grid coordinates (x, y), each < side(), to the curve index.
  virtual uint64_t Encode(uint32_t x, uint32_t y) const = 0;

  /// Inverse of Encode.
  virtual void Decode(uint64_t index, uint32_t* x, uint32_t* y) const = 0;

  /// Curve index of an arbitrary point in [0,1)^2, quantized onto the grid.
  /// Coordinates outside [0,1) are clamped.
  uint64_t EncodeUnit(double ux, double uy) const;

 private:
  int order_;
};

/// The curve key of a cell: its centroid normalized to `domain` (each
/// side taken as at least kGeomEpsilon) and quantized onto `curve`'s
/// grid. Every curve-ordered build sorts cells by (key, id) — I-Hilbert,
/// the vector and temporal stores and the router's partition — so a
/// shard's cells are a contiguous run of the unsharded order.
uint64_t CellCurveKey(const SpaceFillingCurve& curve, const Rect2& domain,
                      const Point2& centroid);

/// Factory. `order` must be in [1, 31].
std::unique_ptr<SpaceFillingCurve> MakeCurve(CurveType type, int order);

}  // namespace fielddb

#endif  // FIELDDB_CURVE_CURVES_H_
