#ifndef FIELDDB_FIELD_REGION_H_
#define FIELDDB_FIELD_REGION_H_

#include <vector>

#include "common/geometry.h"

namespace fielddb {

/// The answer of a field value query: a set of convex polygon pieces
/// (one or more per contributing cell) whose union is the exact region
/// where the query condition holds under the piecewise-linear
/// interpretation of the field.
struct Region {
  std::vector<ConvexPolygon> pieces;

  bool IsEmpty() const { return pieces.empty(); }
  size_t NumPieces() const { return pieces.size(); }

  /// Sum of piece areas. Pieces produced by the estimation step do not
  /// overlap (each lives inside its own cell / sub-triangle), so this is
  /// the area of the union.
  double TotalArea() const;

  Rect2 BoundingBox() const;
};

/// Writes the region (plus optional context polygons) as a standalone SVG
/// file, used by the examples to visualize answers and subfield maps.
/// Returns false if the file cannot be written.
struct SvgLayer {
  std::vector<ConvexPolygon> polygons;
  const char* fill = "#4477aa";
  const char* stroke = "#223355";
  double fill_opacity = 0.6;
};

bool WriteSvg(const char* path, const Rect2& viewport,
              const std::vector<SvgLayer>& layers, int pixel_width = 800);

}  // namespace fielddb

#endif  // FIELDDB_FIELD_REGION_H_
