#ifndef FIELDDB_RTREE_BOX_H_
#define FIELDDB_RTREE_BOX_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

#include "common/geometry.h"
#include "common/interval.h"

namespace fielddb {

/// Axis-aligned box in Dim dimensions — the MBR type stored in R*-tree
/// entries. Dim=1 boxes are the value intervals of cells/subfields;
/// Dim=2 boxes are spatial cell MBRs for conventional (Q1) queries.
template <int Dim>
struct Box {
  static_assert(Dim >= 1 && Dim <= 8);

  std::array<double, Dim> lo;
  std::array<double, Dim> hi;

  static Box Empty() {
    Box b;
    constexpr double inf = std::numeric_limits<double>::infinity();
    b.lo.fill(inf);
    b.hi.fill(-inf);
    return b;
  }

  bool IsEmpty() const {
    for (int d = 0; d < Dim; ++d) {
      if (lo[d] > hi[d]) return true;
    }
    return false;
  }

  bool Intersects(const Box& o) const {
    for (int d = 0; d < Dim; ++d) {
      if (lo[d] > o.hi[d] || o.lo[d] > hi[d]) return false;
    }
    return true;
  }

  bool Contains(const Box& o) const {
    for (int d = 0; d < Dim; ++d) {
      if (o.lo[d] < lo[d] || o.hi[d] > hi[d]) return false;
    }
    return true;
  }

  void Extend(const Box& o) {
    for (int d = 0; d < Dim; ++d) {
      lo[d] = std::min(lo[d], o.lo[d]);
      hi[d] = std::max(hi[d], o.hi[d]);
    }
  }

  /// Squared Euclidean distance from a point to the nearest point of
  /// this box (0 when the point is inside) — MINDIST of the classic
  /// R-tree nearest-neighbor algorithms.
  double MinDist2(const std::array<double, Dim>& p) const {
    double s = 0.0;
    for (int d = 0; d < Dim; ++d) {
      double dd = 0.0;
      if (p[d] < lo[d]) {
        dd = lo[d] - p[d];
      } else if (p[d] > hi[d]) {
        dd = p[d] - hi[d];
      }
      s += dd * dd;
    }
    return s;
  }

  bool operator==(const Box& other) const = default;
};

/// Adapters between the domain types and boxes.
inline Box<1> BoxFromInterval(const ValueInterval& iv) {
  Box<1> b;
  b.lo[0] = iv.min;
  b.hi[0] = iv.max;
  return b;
}

inline Box<2> BoxFromRect(const Rect2& r) {
  Box<2> b;
  b.lo = {r.lo.x, r.lo.y};
  b.hi = {r.hi.x, r.hi.y};
  return b;
}

/// A degenerate box covering exactly one point.
inline Box<2> BoxFromPoint(Point2 p) {
  Box<2> b;
  b.lo = {p.x, p.y};
  b.hi = {p.x, p.y};
  return b;
}

}  // namespace fielddb

#endif  // FIELDDB_RTREE_BOX_H_
