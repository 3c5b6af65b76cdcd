#include "field/isoband.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "field/region.h"
#include "isoband_oracle.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

double BandArea(const CellRecord& cell, double lo, double hi) {
  Region region;
  const StatusOr<size_t> n = CellIsoband(cell, ValueInterval{lo, hi},
                                         &region);
  EXPECT_TRUE(n.ok());
  return region.TotalArea();
}

TEST(IsobandTest, TriangleFullCoverage) {
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 1, {1, 0}, 2, {0, 1}, 3);
  EXPECT_NEAR(BandArea(tri, 0, 10), 0.5, 1e-12);
}

TEST(IsobandTest, TriangleNoCoverage) {
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 1, {1, 0}, 2, {0, 1}, 3);
  Region region;
  const StatusOr<size_t> n = CellIsoband(tri, ValueInterval{5, 6}, &region);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_TRUE(region.IsEmpty());
}

TEST(IsobandTest, TriangleHalfPlaneCut) {
  // w = x on the unit right triangle: w <= 0.5 keeps the left part,
  // whose area is 1/2 - (1/2)(1/2)^2 = 3/8.
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 0, {1, 0}, 1, {0, 1}, 0);
  EXPECT_NEAR(BandArea(tri, -1, 0.5), 0.375, 1e-12);
  // Complementary band: w >= 0.5 keeps 1/8.
  EXPECT_NEAR(BandArea(tri, 0.5, 2), 0.125, 1e-12);
}

TEST(IsobandTest, TriangleBandsPartition) {
  // Bands [0, t] and [t, 1] must tile the triangle for any threshold.
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 0, {1, 0}, 1, {0, 1}, 0.3);
  for (const double t : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double below = BandArea(tri, -1, t);
    const double above = BandArea(tri, t, 2);
    EXPECT_NEAR(below + above, 0.5, 1e-9) << "t=" << t;
  }
}

TEST(IsobandTest, ConstantTriangleAllOrNothing) {
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 5, {1, 0}, 5, {0, 1}, 5);
  EXPECT_NEAR(BandArea(tri, 4, 6), 0.5, 1e-12);
  EXPECT_NEAR(BandArea(tri, 5, 5), 0.5, 1e-12);  // exact-value query
  EXPECT_NEAR(BandArea(tri, 6, 7), 0.0, 1e-12);
}

TEST(IsobandTest, QuadAffinePlane) {
  // w = x on the unit quad: band [0.25, 0.75] is a vertical strip of
  // area 0.5, regardless of the 4-triangle fan decomposition.
  const CellRecord quad =
      CellRecord::Quad(0, Rect2{{0, 0}, {1, 1}}, 0, 1, 1, 0);
  EXPECT_NEAR(BandArea(quad, 0.25, 0.75), 0.5, 1e-12);
  EXPECT_NEAR(BandArea(quad, 0, 1), 1.0, 1e-12);
  EXPECT_NEAR(BandArea(quad, 0.9, 2), 0.1, 1e-12);
}

TEST(IsobandTest, QuadDiagonalPlane) {
  // w = x + y: band [0, 1] on the unit quad is the lower-left half.
  const CellRecord quad =
      CellRecord::Quad(0, Rect2{{0, 0}, {1, 1}}, 0, 1, 2, 1);
  EXPECT_NEAR(BandArea(quad, 0, 1), 0.5, 1e-12);
  EXPECT_NEAR(BandArea(quad, 1, 2), 0.5, 1e-12);
}

TEST(IsobandTest, QuadBandsPartitionRandom) {
  Rng rng(13);
  for (int trial = 0; trial < 25; ++trial) {
    const CellRecord quad = CellRecord::Quad(
        0, Rect2{{0, 0}, {1, 1}}, rng.NextDouble(), rng.NextDouble(),
        rng.NextDouble(), rng.NextDouble());
    const double t = rng.NextDouble();
    const double below = BandArea(quad, -1, t);
    const double above = BandArea(quad, t, 2);
    EXPECT_NEAR(below + above, 1.0, 1e-9);
  }
}

TEST(IsobandTest, MonotoneInBandWidth) {
  Rng rng(31);
  const CellRecord quad = CellRecord::Quad(
      0, Rect2{{0, 0}, {1, 1}}, rng.NextDouble(), rng.NextDouble(),
      rng.NextDouble(), rng.NextDouble());
  double prev = 0.0;
  for (const double hw : {0.05, 0.1, 0.2, 0.4, 0.8}) {
    const double area = BandArea(quad, 0.5 - hw, 0.5 + hw);
    EXPECT_GE(area, prev - 1e-12);
    prev = area;
  }
}

TEST(IsobandTest, RegionPiecesStayInsideCell) {
  const CellRecord quad = CellRecord::Quad(
      0, Rect2{{2, 3}, {4, 5}}, 1, 9, 4, 7);
  Region region;
  ASSERT_TRUE(CellIsoband(quad, ValueInterval{3, 6}, &region).ok());
  for (const ConvexPolygon& piece : region.pieces) {
    for (const Point2& p : piece.vertices) {
      EXPECT_TRUE(quad.Bounds().Contains(p));
    }
  }
}

TEST(IsobandTest, EmptyQueryRejected) {
  const CellRecord quad =
      CellRecord::Quad(0, Rect2{{0, 0}, {1, 1}}, 0, 0, 0, 0);
  Region region;
  const StatusOr<size_t> n =
      CellIsoband(quad, ValueInterval::Empty(), &region);
  EXPECT_FALSE(n.ok());
}

// A band over values in about [0, 1]: mostly random, sometimes with an
// end exactly at one of the cell's vertex values, sometimes zero-width.
ValueInterval RandomBand(Rng& rng, const double* w, size_t n) {
  const auto vertex_value = [&] { return w[rng.NextBounded(n)]; };
  double lo = rng.NextDouble(-0.2, 1.2);
  double hi = rng.NextDouble(-0.2, 1.2);
  switch (rng.NextBounded(8)) {
    case 0: lo = vertex_value(); break;
    case 1: hi = vertex_value(); break;
    case 2: lo = vertex_value(); hi = vertex_value(); break;
    case 3: hi = lo; break;
    default: break;
  }
  if (lo > hi) std::swap(lo, hi);
  return ValueInterval{lo, hi};
}

// Runs CellIsoband and the oracle on one cell and band and expects the
// same status and bit-identical pieces.
void ExpectMatchesOracle(const CellRecord& cell, const ValueInterval& q) {
  Region got;
  const StatusOr<size_t> n = CellIsoband(cell, q, &got);
  std::vector<oracle::Polygon> want;
  const bool want_ok = oracle::CellIsoband(cell, q, &want);
  ASSERT_EQ(n.ok(), want_ok) << "band [" << q.min << ", " << q.max << "]";
  if (n.ok()) {
    EXPECT_EQ(*n, want.size());
  }
  oracle::ExpectSamePieces(got, want);
}

TEST(IsobandGoldenTest, RandomTrianglesMatchOracle) {
  Rng rng(101);
  for (int trial = 0; trial < 12000; ++trial) {
    const Point2 a{rng.NextDouble(), rng.NextDouble()};
    const Point2 b{rng.NextDouble(), rng.NextDouble()};
    Point2 c{rng.NextDouble(), rng.NextDouble()};
    if (trial % 10 == 0) {
      // A sliver: c just off the segment ab.
      const double t = rng.NextDouble();
      c = a + t * (b - a) + 1e-7 * Point2{b.y - a.y, a.x - b.x};
    }
    double w[3] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    if (trial % 16 == 0) w[1] = w[2] = w[0];
    const CellRecord tri = CellRecord::Triangle(0, a, w[0], b, w[1], c, w[2]);
    ExpectMatchesOracle(tri, RandomBand(rng, w, 3));
    if (HasFatalFailure()) return;
  }
}

TEST(IsobandGoldenTest, RandomQuadsMatchOracle) {
  Rng rng(202);
  for (int trial = 0; trial < 12000; ++trial) {
    const Point2 lo{rng.NextDouble(), rng.NextDouble()};
    const Rect2 rect{lo, lo + Point2{rng.NextDouble(1e-3, 1.0),
                                     rng.NextDouble(1e-3, 1.0)}};
    double w[4] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble(),
                   rng.NextDouble()};
    if (trial % 16 == 0) w[1] = w[2] = w[3] = w[0];
    const CellRecord quad = CellRecord::Quad(0, rect, w[0], w[1], w[2], w[3]);
    ExpectMatchesOracle(quad, RandomBand(rng, w, 4));
    if (HasFatalFailure()) return;
  }
}

TEST(IsobandGoldenTest, EdgeCasesMatchOracle) {
  const CellRecord tri =
      CellRecord::Triangle(0, {0, 0}, 0.3, {1, 0}, 0.5, {0, 1}, 0.9);
  const CellRecord quad =
      CellRecord::Quad(0, Rect2{{0, 0}, {1, 1}}, 0.3, 0.5, 0.9, 0.7);
  for (const CellRecord& cell : {tri, quad}) {
    // A vertex value exactly at q.min or at q.max.
    ExpectMatchesOracle(cell, ValueInterval{0.3, 0.6});
    ExpectMatchesOracle(cell, ValueInterval{0.5, 0.9});
    ExpectMatchesOracle(cell, ValueInterval{0.3, 0.9});
    // The band touches one vertex only.
    ExpectMatchesOracle(cell, ValueInterval{0.1, 0.3});
    ExpectMatchesOracle(cell, ValueInterval{0.9, 1.2});
    ExpectMatchesOracle(cell, ValueInterval{0.5, 0.5});
  }
  // Constant cells: the band holds the value, ends at it, or misses it.
  const CellRecord flat_tri =
      CellRecord::Triangle(0, {0, 0}, 5, {1, 0}, 5, {0, 1}, 5);
  const CellRecord flat_quad =
      CellRecord::Quad(0, Rect2{{2, 3}, {4, 5}}, 5, 5, 5, 5);
  for (const CellRecord& cell : {flat_tri, flat_quad}) {
    for (const ValueInterval q : {ValueInterval{4, 6}, ValueInterval{5, 5},
                                  ValueInterval{5, 6}, ValueInterval{4, 5},
                                  ValueInterval{6, 7}}) {
      ExpectMatchesOracle(cell, q);
    }
  }
}

TEST(IsobandGoldenTest, DegenerateTriangleFails) {
  // Collinear vertices whose values span the band: no plane to fit.
  const CellRecord line =
      CellRecord::Triangle(0, {0, 0}, 0, {1, 1}, 1, {2, 2}, 2);
  Region region;
  const StatusOr<size_t> n = CellIsoband(line, ValueInterval{0.5, 1.5},
                                         &region);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(region.IsEmpty());
  ExpectMatchesOracle(line, ValueInterval{0.5, 1.5});
  // A degenerate quad fails the same way.
  ExpectMatchesOracle(
      CellRecord::Quad(0, Rect2{{1, 0}, {1, 1}}, 0, 1, 2, 3),
      ValueInterval{0.5, 1.5});
}

// --- Adversarial cases: vertex values one ulp from a band edge ---------
//
// Band edges one ulp beyond, at, or one ulp short of a cell's extreme
// vertex value or its fan center's value (isoband_oracle.h), on cells at
// offsets up to 1e15 with sizes down to 1e-9, on tiny cells near the
// degenerate-triangle threshold and on slivers.

// Expects CellIsoband to match the oracle on `cell` and `q`. Returns
// whether the cell's values lie strictly inside the band although the
// oracle's pieces are not its unclipped fan (or it fails): a case the
// vertex-value-only shortcut gets wrong.
bool ExpectMatchesOracleCountTrap(const CellRecord& cell,
                                  const ValueInterval& q) {
  ExpectMatchesOracle(cell, q);
  if (!q.ContainsInInterior(cell.Interval())) return false;
  std::vector<oracle::Polygon> want;
  return !oracle::CellIsoband(cell, q, &want) ||
         want != oracle::UnclippedFan(cell);
}

TEST(IsobandGoldenTest, UlpBandEdgesFarFromOriginMatchOracle) {
  Rng rng(404);
  int traps = 0;
  for (const double offset : {0.0, 1e6, 1e12, 1e15}) {
    for (const double size : {1.0, 1e-3, 1e-6, 1e-9}) {
      for (int trial = 0; trial < 400; ++trial) {
        const Point2 origin{offset * rng.NextDouble(0.5, 1.0),
                            offset * rng.NextDouble(0.5, 1.0)};
        const auto point = [&] {
          return origin + size * Point2{rng.NextDouble(), rng.NextDouble()};
        };
        const Point2 a = point(), b = point(), c = point();
        double w[4];
        oracle::UlpValues(rng, w, 3);
        const CellRecord tri =
            CellRecord::Triangle(0, a, w[0], b, w[1], c, w[2]);
        traps += ExpectMatchesOracleCountTrap(tri, oracle::UlpBand(rng, w, 3));
        oracle::UlpValues(rng, w, 4);
        const Point2 extent{rng.NextDouble(0.1, 1), rng.NextDouble(0.1, 1)};
        const Rect2 rect{origin, origin + size * extent};
        const CellRecord quad =
            CellRecord::Quad(0, rect, w[0], w[1], w[2], w[3]);
        traps += ExpectMatchesOracleCountTrap(quad, oracle::UlpBand(rng, w, 4));
        if (HasFatalFailure()) return;
      }
    }
  }
  // The cases reach the rounding the shortcut ignores.
  EXPECT_GT(traps, 100);
}

TEST(IsobandGoldenTest, TinyCellsDegenerateExactlyAsOracle) {
  // Doubled areas around the 1e-24 degenerate threshold: the check must
  // refuse exactly the triangles the oracle refuses, even when every
  // vertex value lies inside the band.
  Rng rng(505);
  int refused = 0, estimated = 0;
  for (const double size : {1e-10, 1e-11, 1e-12, 1e-13}) {
    for (int trial = 0; trial < 500; ++trial) {
      const auto point = [&] {
        return size * Point2{rng.NextDouble(), rng.NextDouble()};
      };
      const Point2 a = point(), b = point(), c = point();
      double w[3];
      oracle::UlpValues(rng, w, 3);
      const CellRecord tri = CellRecord::Triangle(0, a, w[0], b, w[1], c, w[2]);
      const ValueInterval band = oracle::UlpBand(rng, w, 3);
      ExpectMatchesOracle(tri, band);
      if (HasFatalFailure()) return;
      Region region;
      (CellIsoband(tri, band, &region).ok() ? estimated : refused) += 1;
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(estimated, 0);
}

TEST(IsobandGoldenTest, SliversInsideBandMatchOracle) {
  // Thin triangles whose values lie inside the band: steep fitted
  // planes, so their rounding is large next to the values' ulps.
  Rng rng(606);
  int traps = 0;
  for (const double thickness : {1e-4, 1e-7, 1e-10}) {
    for (int trial = 0; trial < 1000; ++trial) {
      const Point2 a{rng.NextDouble(), rng.NextDouble()};
      const Point2 b{rng.NextDouble(), rng.NextDouble()};
      const Point2 c = a + rng.NextDouble() * (b - a) +
                       thickness * Point2{b.y - a.y, a.x - b.x};
      double w[3];
      oracle::UlpValues(rng, w, 3);
      const CellRecord tri = CellRecord::Triangle(0, a, w[0], b, w[1], c, w[2]);
      traps += ExpectMatchesOracleCountTrap(tri, oracle::UlpBand(rng, w, 3));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(traps, 0);
}

TEST(RegionTest, Totals) {
  Region a;
  a.pieces.push_back(PolygonFromRect(Rect2{{0, 0}, {1, 1}}));
  a.pieces.push_back(PolygonFromRect(Rect2{{2, 2}, {4, 3}}));
  EXPECT_EQ(a.NumPieces(), 2u);
  EXPECT_NEAR(a.TotalArea(), 3.0, 1e-12);
  EXPECT_EQ(a.BoundingBox(), (Rect2{{0, 0}, {4, 3}}));
}

TEST(SvgTest, RejectsEmptyViewportAndBadPath) {
  Region region;
  region.pieces.push_back(PolygonFromRect(Rect2{{0, 0}, {1, 1}}));
  const std::string path = TestTempDir() + "/fielddb_bad.svg";
  EXPECT_FALSE(WriteSvg(path.c_str(), Rect2::Empty(),
                        {SvgLayer{region.pieces}}));
  EXPECT_FALSE(WriteSvg("/no/such/dir/out.svg", Rect2{{0, 0}, {1, 1}},
                        {SvgLayer{region.pieces}}));
  std::remove(path.c_str());
}

TEST(SvgTest, WritesFile) {
  Region region;
  region.pieces.push_back(PolygonFromRect(Rect2{{0, 0}, {1, 1}}));
  const std::string path = TestTempDir() + "/fielddb_region.svg";
  ASSERT_TRUE(WriteSvg(path.c_str(), Rect2{{0, 0}, {2, 2}},
                       {SvgLayer{region.pieces, "#ff0000", "#000000", 0.5}}));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  ASSERT_GT(std::fread(buf, 1, sizeof(buf) - 1, f), 0u);
  std::fclose(f);
  EXPECT_NE(std::string(buf).find("<svg"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fielddb
