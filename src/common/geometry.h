#ifndef FIELDDB_COMMON_GEOMETRY_H_
#define FIELDDB_COMMON_GEOMETRY_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>

namespace fielddb {

/// Tolerance for geometric predicates on normalized coordinates.
inline constexpr double kGeomEpsilon = 1e-12;

/// A point in the 2-D spatial domain of a field.
struct Point2 {
  double x = 0.0;
  double y = 0.0;

  bool operator==(const Point2& other) const = default;
};

inline Point2 operator+(Point2 a, Point2 b) { return {a.x + b.x, a.y + b.y}; }
inline Point2 operator-(Point2 a, Point2 b) { return {a.x - b.x, a.y - b.y}; }
inline Point2 operator*(double s, Point2 p) { return {s * p.x, s * p.y}; }

/// Dot product of two 2-D vectors.
inline double Dot(Point2 a, Point2 b) { return a.x * b.x + a.y * b.y; }

/// Z-component of the cross product (signed parallelogram area).
inline double Cross(Point2 a, Point2 b) { return a.x * b.y - a.y * b.x; }

/// Euclidean distance between two points.
inline double Distance(Point2 a, Point2 b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

/// An axis-aligned rectangle; the 2-D MBR used throughout the spatial layer.
/// An "empty" rect has lo > hi on some axis (see Empty()).
struct Rect2 {
  Point2 lo;
  Point2 hi;

  /// A rect that contains nothing and acts as the identity for Extend.
  static Rect2 Empty() {
    constexpr double inf = std::numeric_limits<double>::infinity();
    return Rect2{{inf, inf}, {-inf, -inf}};
  }

  bool IsEmpty() const { return lo.x > hi.x || lo.y > hi.y; }

  bool Contains(Point2 p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }

  bool Intersects(const Rect2& o) const {
    return lo.x <= o.hi.x && o.lo.x <= hi.x && lo.y <= o.hi.y &&
           o.lo.y <= hi.y;
  }

  /// Grows this rect to cover `p`.
  void Extend(Point2 p) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }

  /// Grows this rect to cover `o`.
  void Extend(const Rect2& o) {
    if (o.IsEmpty()) return;
    Extend(o.lo);
    Extend(o.hi);
  }

  Point2 Center() const {
    return {(lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0};
  }

  double Width() const { return hi.x - lo.x; }
  double Height() const { return hi.y - lo.y; }
  double Area() const { return IsEmpty() ? 0.0 : Width() * Height(); }

  bool operator==(const Rect2& other) const = default;
};

/// A triangle given by its three vertices (counter-clockwise preferred but
/// not required; predicates handle either orientation).
struct Triangle2 {
  std::array<Point2, 3> v;

  /// Signed area: positive when the vertices are counter-clockwise.
  double SignedArea() const {
    return 0.5 * Cross(v[1] - v[0], v[2] - v[0]);
  }

  double Area() const { return std::abs(SignedArea()); }

  Point2 Centroid() const {
    return {(v[0].x + v[1].x + v[2].x) / 3.0,
            (v[0].y + v[1].y + v[2].y) / 3.0};
  }

  Rect2 BoundingBox() const {
    Rect2 r = Rect2::Empty();
    for (const Point2& p : v) r.Extend(p);
    return r;
  }

  /// Barycentric coordinates of `p` with respect to this triangle.
  /// Returns {l0, l1, l2} with l0 + l1 + l2 == 1. Any coordinate may be
  /// negative when `p` lies outside. Degenerate triangles return NaNs.
  std::array<double, 3> Barycentric(Point2 p) const;

  /// True when `p` is inside the triangle or on its boundary
  /// (within kGeomEpsilon on barycentric coordinates).
  bool Contains(Point2 p) const;
};

/// The vertex list of a ConvexPolygon. The first kInline vertices live
/// inside the object; a longer list moves to the heap and returns inline
/// on clear(). The estimation step emits whole triangles and 4-gons
/// almost always, so an answer region costs no allocation per piece.
/// Offers the subset of std::vector<Point2> that polygon code uses.
class VertexList {
 public:
  static constexpr size_t kInline = 4;

  VertexList() = default;
  VertexList(std::initializer_list<Point2> init) {
    assign(init.begin(), init.end());
  }
  VertexList(const VertexList& other) { assign(other.begin(), other.end()); }
  VertexList(VertexList&& other) noexcept { TakeFrom(&other); }
  ~VertexList() {
    if (spilled()) delete[] heap_;
  }

  VertexList& operator=(const VertexList& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  VertexList& operator=(VertexList&& other) noexcept {
    if (this != &other) {
      clear();
      TakeFrom(&other);
    }
    return *this;
  }
  VertexList& operator=(std::initializer_list<Point2> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Point2* data() { return spilled() ? heap_ : inline_.points; }
  const Point2* data() const { return spilled() ? heap_ : inline_.points; }
  Point2& operator[](size_t i) { return data()[i]; }
  const Point2& operator[](size_t i) const { return data()[i]; }
  Point2* begin() { return data(); }
  Point2* end() { return data() + size_; }
  const Point2* begin() const { return data(); }
  const Point2* end() const { return data() + size_; }

  void push_back(Point2 p) {
    if (size_ == capacity_) Reallocate(2 * capacity_);
    data()[size_++] = p;
  }

  /// Empties the list and frees a heap buffer.
  void clear() {
    if (spilled()) {
      delete[] heap_;
      BackToInline();
    }
    size_ = 0;
  }

  void reserve(size_t n) {
    if (n > capacity_) Reallocate(n);
  }

  /// Replaces the contents with [first, last), which must not point
  /// into this list.
  void assign(const Point2* first, const Point2* last) {
    const size_t n = static_cast<size_t>(last - first);
    if (n > capacity_) {
      clear();
      Reallocate(n);
    }
    std::copy(first, last, data());
    size_ = static_cast<uint32_t>(n);
  }

  friend bool operator==(const VertexList& a, const VertexList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  struct Inline {
    Point2 points[kInline];
  };

  bool spilled() const { return capacity_ > kInline; }

  // Moves the vertices to a heap buffer of `capacity` (> size_).
  void Reallocate(size_t capacity) {
    Point2* heap = new Point2[capacity];
    std::copy(begin(), end(), heap);
    if (spilled()) delete[] heap_;
    heap_ = heap;
    capacity_ = static_cast<uint32_t>(capacity);
  }

  // Makes the inline storage the active member again.
  void BackToInline() noexcept {
    std::construct_at(&inline_);
    capacity_ = kInline;
  }

  // Takes `other`'s vertices (this list is empty and inline) and leaves
  // `other` empty and inline.
  void TakeFrom(VertexList* other) noexcept {
    if (other->spilled()) {
      heap_ = other->heap_;
      capacity_ = other->capacity_;
      other->BackToInline();
    } else {
      std::copy(other->begin(), other->end(), inline_.points);
    }
    size_ = other->size_;
    other->size_ = 0;
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = kInline;  // above kInline once on the heap
  union {
    Inline inline_ = {};
    Point2* heap_;
  };
};

/// A simple convex polygon, vertices in counter-clockwise order.
/// Produced by the estimation step when clipping cells against iso-lines.
struct ConvexPolygon {
  VertexList vertices;

  bool IsEmpty() const { return vertices.size() < 3; }

  /// Area by the shoelace formula (vertices assumed CCW; returns the
  /// absolute value so CW input is also handled).
  double Area() const;

  Point2 Centroid() const;

  Rect2 BoundingBox() const;
};

/// The half-plane Dot(n, p) + c >= 0. `n` need not be unit length.
struct HalfPlane {
  Point2 n;
  double c = 0.0;
};

/// Where `p` lies relative to `h`: Dot(n, p) + c, >= 0 inside. The one
/// expression every clip evaluates, so a caller that tests vertices
/// with it sees exactly the distances ClipConvex would.
inline double SignedDistance(const HalfPlane& h, Point2 p) {
  return Dot(h.n, p) + h.c;
}

/// Room the output of ClipConvex needs for `count` input vertices: each
/// input vertex emits itself and at most one edge crossing. A convex
/// input gains at most one vertex, but rounding can make a clipped
/// polygon very slightly non-convex, so buffers use this bound.
constexpr size_t MaxClipVertices(size_t count) { return 2 * count; }

/// One Sutherland–Hodgman pass: clips the convex polygon `in[0, count)`
/// against `h` into `out`, which has room for MaxClipVertices(count)
/// vertices, and returns the output's vertex count. The result is 0 when
/// fewer than 3 vertices survive. The loop of every clip in the library.
size_t ClipConvex(const Point2* in, size_t count, const HalfPlane& h,
                  Point2* out);

/// Clips a convex polygon against the half-plane `Dot(n, p) + c >= 0`
/// (ClipConvex into a new polygon). The result is convex (possibly
/// empty). `n` need not be unit length.
ConvexPolygon ClipHalfPlane(const ConvexPolygon& poly, Point2 n, double c);

/// Convenience: clips against `a*x + b*y + c >= 0`.
inline ConvexPolygon ClipHalfPlane(const ConvexPolygon& poly, double a,
                                   double b, double c) {
  return ClipHalfPlane(poly, Point2{a, b}, c);
}

/// Builds a polygon from a triangle, normalizing orientation to CCW.
ConvexPolygon PolygonFromTriangle(const Triangle2& t);

/// Builds a polygon from an axis-aligned rectangle (CCW).
ConvexPolygon PolygonFromRect(const Rect2& r);

}  // namespace fielddb

#endif  // FIELDDB_COMMON_GEOMETRY_H_
