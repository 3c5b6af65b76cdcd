#include "vector/vector_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/fractal.h"
#include "isoband_oracle.h"

namespace fielddb {
namespace {

// u = x + y, v = x - y over the unit square: both affine, so queries have
// analytic answers.
VectorGridField MakeAffineVectorField(uint32_t n) {
  std::vector<double> su, sv;
  for (uint32_t j = 0; j <= n; ++j) {
    for (uint32_t i = 0; i <= n; ++i) {
      const double x = static_cast<double>(i) / n;
      const double y = static_cast<double>(j) / n;
      su.push_back(x + y);
      sv.push_back(x - y);
    }
  }
  auto field = VectorGridField::Create(n, n, Rect2{{0, 0}, {1, 1}}, su, sv);
  EXPECT_TRUE(field.ok());
  return std::move(field).value();
}

VectorGridField MakeFractalVectorField(uint32_t size_exp, uint64_t seed) {
  FractalOptions fo;
  fo.size_exp = static_cast<int>(size_exp);
  fo.roughness_h = 0.7;
  fo.seed = seed;
  const std::vector<double> su = DiamondSquare(fo);
  fo.seed = seed + 1;
  const std::vector<double> sv = DiamondSquare(fo);
  const uint32_t n = uint32_t{1} << size_exp;
  auto field = VectorGridField::Create(n, n, Rect2{{0, 0}, {1, 1}}, su, sv);
  EXPECT_TRUE(field.ok());
  return std::move(field).value();
}

TEST(VectorFieldTest, ComponentsShareGeometry) {
  const VectorGridField field = MakeAffineVectorField(4);
  EXPECT_EQ(field.NumCells(), 16u);
  const CellRecord cu = field.ComponentCell(0, 5);
  const CellRecord cv = field.ComponentCell(1, 5);
  EXPECT_EQ(cu.Bounds(), cv.Bounds());
}

TEST(VectorFieldTest, ValueAtInterpolatesBoth) {
  const VectorGridField field = MakeAffineVectorField(8);
  auto uv = field.ValueAt({0.25, 0.5});
  ASSERT_TRUE(uv.ok());
  EXPECT_NEAR(uv->first, 0.75, 1e-12);
  EXPECT_NEAR(uv->second, -0.25, 1e-12);
}

TEST(VectorFieldTest, CellValueBoxIsPerComponentHull) {
  const VectorGridField field = MakeAffineVectorField(2);
  const Box<2> box = field.CellValueBox(0);  // cell [0,.5]^2
  EXPECT_DOUBLE_EQ(box.lo[0], 0.0);   // u = x + y in [0, 1]
  EXPECT_DOUBLE_EQ(box.hi[0], 1.0);
  EXPECT_DOUBLE_EQ(box.lo[1], -0.5);  // v = x - y in [-0.5, 0.5]
  EXPECT_DOUBLE_EQ(box.hi[1], 0.5);
}

TEST(VectorRecordTest, RoundTripComponents) {
  const VectorGridField field = MakeAffineVectorField(4);
  const VectorCellRecord rec = VectorCellRecord::FromField(field, 7);
  const CellRecord cu = rec.Component(0);
  const CellRecord expected = field.ComponentCell(0, 7);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(cu.w[i], expected.w[i]);
  }
  EXPECT_EQ(rec.ValueBox(), field.CellValueBox(7));
}

TEST(VectorIsobandTest, AffineBandsHaveAnalyticArea) {
  // On u = x + y, v = x - y: u in [0.5, 1.5] and v in [-0.25, 0.25] is a
  // rotated square; area = intersection of two diagonal strips. Over the
  // whole unit square with a single cell, the strips u in [0.5, 1.5]
  // (area 3/4... computed piecewise) — use Monte Carlo as reference.
  const VectorGridField field = MakeAffineVectorField(1);
  const VectorCellRecord rec = VectorCellRecord::FromField(field, 0);
  const VectorBandQuery q{{0.5, 1.5}, {-0.25, 0.25}};
  Region region;
  ASSERT_TRUE(VectorCellIsoband(rec, q, &region).ok());

  Rng rng(5);
  int inside = 0;
  const int samples = 200000;
  for (int s = 0; s < samples; ++s) {
    const double x = rng.NextDouble(), y = rng.NextDouble();
    if (q.u.Contains(x + y) && q.v.Contains(x - y)) ++inside;
  }
  EXPECT_NEAR(region.TotalArea(), static_cast<double>(inside) / samples,
              5e-3);
}

TEST(VectorIsobandTest, FullBandCoversCell) {
  const VectorGridField field = MakeAffineVectorField(2);
  const VectorCellRecord rec = VectorCellRecord::FromField(field, 0);
  Region region;
  ASSERT_TRUE(
      VectorCellIsoband(rec, {{-10, 10}, {-10, 10}}, &region).ok());
  EXPECT_NEAR(region.TotalArea(), 0.25, 1e-12);
}

TEST(VectorIsobandTest, DisjointBandEmpty) {
  const VectorGridField field = MakeAffineVectorField(2);
  const VectorCellRecord rec = VectorCellRecord::FromField(field, 0);
  Region region;
  auto n = VectorCellIsoband(rec, {{50, 60}, {-10, 10}}, &region);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

VectorCellRecord VectorCell(const std::vector<Point2>& vertices,
                            const std::vector<double>& u,
                            const std::vector<double>& v) {
  VectorCellRecord rec;
  rec.num_vertices = static_cast<uint32_t>(vertices.size());
  for (size_t i = 0; i < vertices.size(); ++i) {
    rec.x[i] = vertices[i].x;
    rec.y[i] = vertices[i].y;
    rec.u[i] = u[i];
    rec.v[i] = v[i];
  }
  return rec;
}

// One component's band: random, sometimes ending exactly at a vertex
// value, sometimes zero-width.
ValueInterval RandomComponentBand(Rng& rng, const double* w, uint32_t n) {
  double lo = rng.NextDouble(-0.2, 1.2);
  double hi = rng.NextDouble(-0.2, 1.2);
  switch (rng.NextBounded(6)) {
    case 0: lo = w[rng.NextBounded(n)]; break;
    case 1: hi = w[rng.NextBounded(n)]; break;
    case 2: hi = lo; break;
    default: break;
  }
  if (lo > hi) std::swap(lo, hi);
  return ValueInterval{lo, hi};
}

// VectorCellIsoband and the oracle agree on status and on every piece,
// bit for bit.
void ExpectMatchesOracle(const VectorCellRecord& cell,
                         const VectorBandQuery& q) {
  Region got;
  const StatusOr<size_t> n = VectorCellIsoband(cell, q, &got);
  std::vector<oracle::Polygon> want;
  const bool want_ok = oracle::VectorCellIsoband(cell, q, &want);
  ASSERT_EQ(n.ok(), want_ok);
  if (n.ok()) {
    EXPECT_EQ(*n, want.size());
  }
  oracle::ExpectSamePieces(got, want);
}

TEST(VectorIsobandGoldenTest, RandomCellsMatchOracle) {
  Rng rng(303);
  for (int trial = 0; trial < 24000; ++trial) {
    std::vector<Point2> vertices;
    if (trial % 2 == 0) {
      for (int i = 0; i < 3; ++i) {
        vertices.push_back({rng.NextDouble(), rng.NextDouble()});
      }
    } else {
      const Point2 lo{rng.NextDouble(), rng.NextDouble()};
      const Point2 hi = lo + Point2{rng.NextDouble(1e-3, 1.0),
                                    rng.NextDouble(1e-3, 1.0)};
      vertices = {lo, {hi.x, lo.y}, hi, {lo.x, hi.y}};
    }
    std::vector<double> u, v;
    for (size_t i = 0; i < vertices.size(); ++i) {
      u.push_back(rng.NextDouble());
      v.push_back(rng.NextDouble());
    }
    if (trial % 16 == 1) std::fill(u.begin(), u.end(), u[0]);
    const VectorCellRecord cell = VectorCell(vertices, u, v);
    const auto n = static_cast<uint32_t>(vertices.size());
    const VectorBandQuery q{RandomComponentBand(rng, u.data(), n),
                            RandomComponentBand(rng, v.data(), n)};
    ExpectMatchesOracle(cell, q);
    if (HasFatalFailure()) return;
  }
}

TEST(VectorIsobandGoldenTest, EdgeCasesMatchOracle) {
  const VectorCellRecord tri =
      VectorCell({{0, 0}, {1, 0}, {0, 1}}, {0.3, 0.5, 0.9}, {1, 2, 3});
  const VectorCellRecord quad = VectorCell(
      {{0, 0}, {1, 0}, {1, 1}, {0, 1}}, {0.3, 0.5, 0.9, 0.7}, {1, 2, 3, 2});
  for (const VectorCellRecord& cell : {tri, quad}) {
    // Bounds exactly at vertex values, a band touching one vertex, and
    // zero-width bands.
    for (const VectorBandQuery& q : {VectorBandQuery{{0.3, 0.6}, {0, 4}},
                                     VectorBandQuery{{0.5, 0.9}, {2, 3}},
                                     VectorBandQuery{{0.1, 0.3}, {0, 4}},
                                     VectorBandQuery{{0.3, 0.9}, {3, 3}},
                                     VectorBandQuery{{0.5, 0.5}, {2, 2}}}) {
      ExpectMatchesOracle(cell, q);
    }
  }
  // Constant components.
  const VectorCellRecord flat =
      VectorCell({{0, 0}, {1, 0}, {1, 1}, {0, 1}}, {5, 5, 5, 5}, {1, 1, 1, 1});
  for (const VectorBandQuery& q :
       {VectorBandQuery{{4, 6}, {0, 2}}, VectorBandQuery{{5, 5}, {1, 1}},
        VectorBandQuery{{5, 6}, {1, 2}}, VectorBandQuery{{6, 7}, {0, 2}}}) {
    ExpectMatchesOracle(flat, q);
  }
}

TEST(VectorIsobandGoldenTest, DegenerateTriangleFails) {
  const VectorCellRecord line =
      VectorCell({{0, 0}, {1, 1}, {2, 2}}, {0, 1, 2}, {0, 1, 2});
  const VectorBandQuery q{{0.5, 1.5}, {0.5, 1.5}};
  Region region;
  EXPECT_FALSE(VectorCellIsoband(line, q, &region).ok());
  EXPECT_TRUE(region.IsEmpty());
  ExpectMatchesOracle(line, q);
}

// --- Adversarial cases: component values one ulp from a band edge -----
//
// As in isoband_test: each component's band edges sit one ulp beyond,
// at, or one ulp short of the cell's extreme value of that component
// (or of its fan center's value), on cells far from the origin, tiny
// cells and slivers (isoband_oracle.h).

// True when both components' values lie strictly inside their bands but
// the oracle's pieces are not the unclipped fan (or it fails): a case
// the vertex-value-only shortcut gets wrong.
bool IsShortcutTrap(const VectorCellRecord& cell, const VectorBandQuery& q) {
  const Box<2> values = cell.ValueBox();
  if (!q.u.ContainsInInterior({values.lo[0], values.hi[0]}) ||
      !q.v.ContainsInInterior({values.lo[1], values.hi[1]})) {
    return false;
  }
  std::vector<oracle::Polygon> want;
  return !oracle::VectorCellIsoband(cell, q, &want) ||
         want != oracle::UnclippedFan(cell.Component(0));
}

TEST(VectorIsobandGoldenTest, UlpBandEdgesMatchOracle) {
  Rng rng(707);
  int traps = 0;
  for (const double offset : {0.0, 1e6, 1e12, 1e15}) {
    for (const double size : {1.0, 1e-3, 1e-9, 1e-12}) {
      for (int trial = 0; trial < 300; ++trial) {
        const Point2 origin{offset * rng.NextDouble(0.5, 1.0),
                            offset * rng.NextDouble(0.5, 1.0)};
        std::vector<Point2> vertices;
        switch (trial % 3) {
          case 0:  // a triangle
            for (int i = 0; i < 3; ++i) {
              vertices.push_back(
                  origin + size * Point2{rng.NextDouble(), rng.NextDouble()});
            }
            break;
          case 1: {  // a sliver: the third vertex just off the first edge
            const Point2 a = origin + size * Point2{rng.NextDouble(), 0.0};
            const Point2 b = origin + size * Point2{rng.NextDouble(), 1.0};
            vertices = {a, b,
                        a + rng.NextDouble() * (b - a) +
                            1e-7 * Point2{b.y - a.y, a.x - b.x}};
            break;
          }
          default: {  // a quad
            const Point2 hi = origin + size * Point2{rng.NextDouble(0.1, 1),
                                                     rng.NextDouble(0.1, 1)};
            vertices = {origin, {hi.x, origin.y}, hi, {origin.x, hi.y}};
          }
        }
        const size_t n = vertices.size();
        std::vector<double> u(n), v(n);
        oracle::UlpValues(rng, u.data(), n);
        oracle::UlpValues(rng, v.data(), n);
        const VectorCellRecord cell = VectorCell(vertices, u, v);
        const VectorBandQuery q{oracle::UlpBand(rng, u.data(), n),
                                oracle::UlpBand(rng, v.data(), n)};
        ExpectMatchesOracle(cell, q);
        if (HasFatalFailure()) return;
        traps += IsShortcutTrap(cell, q);
      }
    }
  }
  // The cases reach the rounding the shortcut ignores.
  EXPECT_GT(traps, 50);
}

TEST(VectorSubfieldTest, CostModelPrefersSimilarBoxes) {
  Box<2> range;
  range.lo = {0, 0};
  range.hi = {100, 100};
  const VectorSubfieldCostModel model(range, {});
  VectorSubfield sf;
  sf.box.lo = {10, 10};
  sf.box.hi = {20, 20};
  sf.sum_box_sizes = 121.0;
  // Identical box: SI doubles, P unchanged -> cost halves.
  EXPECT_TRUE(model.ShouldAppend(sf, sf.box));
  // A far-away box: P explodes.
  Box<2> far;
  far.lo = {90, 90};
  far.hi = {95, 95};
  EXPECT_FALSE(model.ShouldAppend(sf, far));
}

TEST(VectorSubfieldTest, PartitionInvariants) {
  Rng rng(9);
  std::vector<Box<2>> boxes(400);
  Box<2> range = Box<2>::Empty();
  double u = 0, v = 0;
  for (auto& b : boxes) {
    u += rng.NextGaussian();
    v += rng.NextGaussian();
    b.lo = {u, v};
    b.hi = {u + rng.NextDouble(), v + rng.NextDouble()};
    range.Extend(b);
  }
  const auto sfs = BuildVectorSubfields(boxes, range, {});
  ASSERT_FALSE(sfs.empty());
  EXPECT_EQ(sfs.front().start, 0u);
  EXPECT_EQ(sfs.back().end, boxes.size());
  for (size_t i = 0; i + 1 < sfs.size(); ++i) {
    EXPECT_EQ(sfs[i].end, sfs[i + 1].start);
  }
  for (const VectorSubfield& sf : sfs) {
    Box<2> hull = Box<2>::Empty();
    for (uint64_t pos = sf.start; pos < sf.end; ++pos) {
      hull.Extend(boxes[pos]);
    }
    EXPECT_EQ(sf.box, hull);
  }
}

class VectorDbTest : public ::testing::TestWithParam<VectorIndexMethod> {};

TEST_P(VectorDbTest, MatchesLinearScanOnFractal) {
  const VectorGridField field = MakeFractalVectorField(5, 31);
  VectorFieldDatabase::Options scan_options;
  scan_options.method = VectorIndexMethod::kLinearScan;
  auto reference = VectorFieldDatabase::Build(field, scan_options);
  ASSERT_TRUE(reference.ok());

  VectorFieldDatabase::Options options;
  options.method = GetParam();
  auto db = VectorFieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok());

  Rng rng(41);
  const Box<2> range = field.ValueRangeBox();
  for (int i = 0; i < 25; ++i) {
    const double ul = rng.NextDouble(range.lo[0], range.hi[0]);
    const double vl = rng.NextDouble(range.lo[1], range.hi[1]);
    const VectorBandQuery q{
        {ul, ul + 0.1 * (range.hi[0] - range.lo[0])},
        {vl, vl + 0.1 * (range.hi[1] - range.lo[1])}};
    VectorQueryResult expected, actual;
    ASSERT_TRUE((*reference)->BandQuery(q, &expected).ok());
    ASSERT_TRUE((*db)->BandQuery(q, &actual).ok());
    EXPECT_NEAR(actual.region.TotalArea(), expected.region.TotalArea(),
                1e-9);
    EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
  }
}

TEST_P(VectorDbTest, AffineFieldAnalyticArea) {
  const VectorGridField field = MakeAffineVectorField(16);
  VectorFieldDatabase::Options options;
  options.method = GetParam();
  auto db = VectorFieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok());
  // u = x + y in [0, 1] covers the lower-left half (area 1/2); v = x - y
  // in [0, 1] covers the lower-right half (area 1/2); conjunction is the
  // bottom quarter "wedge" (area 1/4).
  VectorQueryResult result;
  ASSERT_TRUE((*db)->BandQuery({{0, 1}, {0, 1}}, &result).ok());
  EXPECT_NEAR(result.region.TotalArea(), 0.25, 1e-9);
}

TEST_P(VectorDbTest, RejectsEmptyBand) {
  const VectorGridField field = MakeAffineVectorField(4);
  VectorFieldDatabase::Options options;
  options.method = GetParam();
  auto db = VectorFieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok());
  VectorQueryResult result;
  EXPECT_FALSE(
      (*db)->BandQuery({ValueInterval::Empty(), {0, 1}}, &result).ok());
  // A NaN bound is empty too. A forced index plan must refuse it as
  // well: the R*-tree's box test would otherwise match most cells.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const PlannerMode mode :
       {PlannerMode::kAuto, PlannerMode::kForceIndex}) {
    (*db)->set_planner_mode(mode);
    for (const ValueInterval& band :
         {ValueInterval{nan, 0.5}, ValueInterval{-0.5, nan},
          ValueInterval{nan, nan}}) {
      EXPECT_EQ((*db)->BandQuery({band, {0, 1}}, &result).code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ((*db)->BandQuery({{0, 1}, band}, &result).code(),
                StatusCode::kInvalidArgument);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, VectorDbTest,
                         ::testing::Values(VectorIndexMethod::kLinearScan,
                                           VectorIndexMethod::kIHilbert),
                         [](const auto& info) {
                           return info.param ==
                                          VectorIndexMethod::kLinearScan
                                      ? "LinearScan"
                                      : "IHilbert";
                         });

TEST(VectorDbTest, IHilbertReadsFewerPages) {
  const VectorGridField field = MakeFractalVectorField(7, 55);
  const Box<2> range = field.ValueRangeBox();
  const VectorBandQuery q{
      {range.lo[0] + 0.45 * (range.hi[0] - range.lo[0]),
       range.lo[0] + 0.50 * (range.hi[0] - range.lo[0])},
      {range.lo[1] + 0.45 * (range.hi[1] - range.lo[1]),
       range.lo[1] + 0.50 * (range.hi[1] - range.lo[1])}};

  const auto pages = [&](VectorIndexMethod method) {
    VectorFieldDatabase::Options options;
    options.method = method;
    // This test isolates the index's I/O advantage, so pin the physical
    // plan: under kAuto the cost-based planner is free to (correctly)
    // prefer the fused scan when the band is not selective enough.
    options.planner_mode = PlannerMode::kForceIndex;
    // The paper's page accesses: the claim is about the pages each
    // method's runs span, which the default scan does not all read.
    options.read_whole_runs = true;
    auto db = VectorFieldDatabase::Build(field, options);
    EXPECT_TRUE(db.ok());
    VectorQueryResult result;
    EXPECT_TRUE((*db)->BandQuery(q, &result).ok());
    return result.stats.io.logical_reads;
  };
  EXPECT_LT(2 * pages(VectorIndexMethod::kIHilbert),
            pages(VectorIndexMethod::kLinearScan));
}

TEST(VectorBuildTest, UnknownCurveRefused) {
  // As the grid's I-Hilbert build does: an invalid argument, not a crash.
  for (const VectorIndexMethod method :
       {VectorIndexMethod::kLinearScan, VectorIndexMethod::kIHilbert}) {
    VectorFieldDatabase::Options options;
    options.method = method;
    options.curve = static_cast<CurveType>(9);
    auto db = VectorFieldDatabase::Build(MakeFractalVectorField(3, 5), options);
    ASSERT_FALSE(db.ok());
    EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace fielddb
