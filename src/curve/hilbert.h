#ifndef FIELDDB_CURVE_HILBERT_H_
#define FIELDDB_CURVE_HILBERT_H_

#include <cstdint>
#include <vector>

#include "curve/curves.h"

namespace fielddb {

/// Hilbert index of (x, y) on the 2^order x 2^order grid: the classic
/// quadrant-rotation curve, read four levels per table lookup; bits of
/// x and y at and above `order` are ignored. Successive indexes are
/// always 4-neighbors in the grid (no "jumps"), the property the
/// subfield builder relies on (Section 3.1.2).
uint64_t HilbertEncode2D(int order, uint32_t x, uint32_t y);

/// Inverse of HilbertEncode2D (index bits at and above 2 * order are
/// ignored).
void HilbertDecode2D(int order, uint64_t index, uint32_t* x, uint32_t* y);

/// d-dimensional Hilbert index via Skilling's transpose algorithm
/// ("Programming the Hilbert curve", AIP 2004) — the generalization the
/// paper points at ([2]) for 3-D volume fields. `coords.size()` is the
/// dimensionality; each coordinate must be < 2^order and
/// order * dims <= 63.
uint64_t HilbertEncodeND(int order, const std::vector<uint32_t>& coords);

/// Inverse of HilbertEncodeND; `coords->size()` selects dimensionality.
void HilbertDecodeND(int order, uint64_t index, std::vector<uint32_t>* coords);

/// 2-D Hilbert curve as a SpaceFillingCurve.
class HilbertCurve final : public SpaceFillingCurve {
 public:
  explicit HilbertCurve(int order) : SpaceFillingCurve(order) {}

  CurveType type() const override { return CurveType::kHilbert; }
  uint64_t Encode(uint32_t x, uint32_t y) const override {
    return HilbertEncode2D(order(), x, y);
  }
  void Decode(uint64_t index, uint32_t* x, uint32_t* y) const override {
    HilbertDecode2D(order(), index, x, y);
  }
};

}  // namespace fielddb

#endif  // FIELDDB_CURVE_HILBERT_H_
