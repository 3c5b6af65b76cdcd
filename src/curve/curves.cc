#include "curve/curves.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "curve/gray.h"
#include "curve/hilbert.h"
#include "curve/zorder.h"

namespace fielddb {

namespace {

/// Plain row-major scan: index = y * side + x. The degenerate
/// linearization the ablation bench uses as a floor — it jumps across the
/// whole grid at every row boundary, so it has the worst clustering.
class RowMajorCurve final : public SpaceFillingCurve {
 public:
  explicit RowMajorCurve(int order) : SpaceFillingCurve(order) {}

  CurveType type() const override { return CurveType::kRowMajor; }
  uint64_t Encode(uint32_t x, uint32_t y) const override {
    return static_cast<uint64_t>(y) * side() + x;
  }
  void Decode(uint64_t index, uint32_t* x, uint32_t* y) const override {
    *x = static_cast<uint32_t>(index % side());
    *y = static_cast<uint32_t>(index / side());
  }
};

}  // namespace

const char* CurveTypeName(CurveType type) {
  switch (type) {
    case CurveType::kHilbert:
      return "hilbert";
    case CurveType::kZOrder:
      return "z-order";
    case CurveType::kGrayCode:
      return "gray-code";
    case CurveType::kRowMajor:
      return "row-major";
  }
  return "unknown";
}

uint64_t SpaceFillingCurve::EncodeUnit(double ux, double uy) const {
  const double n = static_cast<double>(side());
  const auto quantize = [&](double u) -> uint32_t {
    const double scaled = std::floor(u * n);
    const double clamped = std::clamp(scaled, 0.0, n - 1.0);
    return static_cast<uint32_t>(clamped);
  };
  return Encode(quantize(ux), quantize(uy));
}

uint64_t CellCurveKey(const SpaceFillingCurve& curve, const Rect2& domain,
                      const Point2& centroid) {
  const double w = std::max(domain.Width(), kGeomEpsilon);
  const double h = std::max(domain.Height(), kGeomEpsilon);
  return curve.EncodeUnit((centroid.x - domain.lo.x) / w,
                          (centroid.y - domain.lo.y) / h);
}

std::unique_ptr<SpaceFillingCurve> MakeCurve(CurveType type, int order) {
  assert(order >= 1 && order <= 31);
  switch (type) {
    case CurveType::kHilbert:
      return std::make_unique<HilbertCurve>(order);
    case CurveType::kZOrder:
      return std::make_unique<ZOrderCurve>(order);
    case CurveType::kGrayCode:
      return std::make_unique<GrayCodeCurve>(order);
    case CurveType::kRowMajor:
      return std::make_unique<RowMajorCurve>(order);
  }
  return nullptr;
}

}  // namespace fielddb
