#ifndef FIELDDB_COMMON_INTERVAL_H_
#define FIELDDB_COMMON_INTERVAL_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace fielddb {

/// A closed interval [min, max] on the field-value domain. This is the
/// 1-D MBR that the paper indexes: every cell / subfield carries the
/// interval of all explicit and implicit values inside it.
struct ValueInterval {
  double min = 0.0;
  double max = 0.0;

  /// The identity for Hull(): contains nothing.
  static ValueInterval Empty() {
    constexpr double inf = std::numeric_limits<double>::infinity();
    return ValueInterval{inf, -inf};
  }

  static ValueInterval Of(double a, double b) {
    return ValueInterval{std::min(a, b), std::max(a, b)};
  }

  /// Contains nothing: min > max, or a NaN bound (which no value is
  /// above or below), so every entry point that refuses an empty
  /// interval refuses NaN bounds too.
  bool IsEmpty() const { return !(min <= max); }

  bool Contains(double w) const { return w >= min && w <= max; }

  /// Closed containment: every value of `o` lies in this interval.
  bool Contains(const ValueInterval& o) const {
    return min <= o.min && o.max <= max;
  }

  /// `o` lies in the interior: strictly above min and below max.
  bool ContainsInInterior(const ValueInterval& o) const {
    return min < o.min && o.max < max;
  }

  /// Closed-interval intersection test (shared endpoints intersect).
  bool Intersects(const ValueInterval& o) const {
    return min <= o.max && o.min <= max;
  }

  /// Grows this interval to cover value `w`.
  void Extend(double w) {
    min = std::min(min, w);
    max = std::max(max, w);
  }

  /// Grows this interval to cover `o`.
  void Extend(const ValueInterval& o) {
    if (o.IsEmpty()) return;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }

  /// Smallest interval covering both inputs.
  static ValueInterval Hull(const ValueInterval& a, const ValueInterval& b) {
    ValueInterval h = a;
    h.Extend(b);
    return h;
  }

  /// Geometric length (max - min); 0 for degenerate intervals.
  double Length() const { return IsEmpty() ? 0.0 : max - min; }

  /// Midpoint of the interval.
  double Center() const { return (min + max) / 2.0; }

  /// The paper's "interval size" I = max - min + 1 (Section 3.1): a
  /// degenerate interval (constant cell) has size 1 so that the cost
  /// function's denominator never vanishes.
  double PaperSize() const { return IsEmpty() ? 0.0 : max - min + 1.0; }

  bool operator==(const ValueInterval& other) const = default;

  std::string ToString() const;
};

/// Whether every sample is finite. Value intervals — and so zone maps,
/// subfield keys and catalogs — exist only over finite samples, so
/// fields and updates refuse the rest.
inline bool AllFinite(const std::vector<double>& samples) {
  return std::all_of(samples.begin(), samples.end(),
                     [](double w) { return std::isfinite(w); });
}

}  // namespace fielddb

#endif  // FIELDDB_COMMON_INTERVAL_H_
