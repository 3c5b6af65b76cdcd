#include "volume/volume_index.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "gen/workload.h"
#include "volume/tet_band.h"

namespace fielddb {
namespace {

TEST(TetFractionTest, BoundaryCases) {
  const std::array<double, 4> v = {0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(TetFractionBelow(v, -1), 0.0);
  EXPECT_DOUBLE_EQ(TetFractionBelow(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(TetFractionBelow(v, 3), 1.0);
  EXPECT_DOUBLE_EQ(TetFractionBelow(v, 99), 1.0);
}

TEST(TetFractionTest, FirstCornerCubic) {
  // For a < t <= b: F = (t-a)^3 / ((b-a)(c-a)(d-a)).
  const std::array<double, 4> v = {0, 1, 2, 4};
  EXPECT_NEAR(TetFractionBelow(v, 0.5), 0.125 / (1 * 2 * 4), 1e-12);
  EXPECT_NEAR(TetFractionBelow(v, 1.0), 1.0 / 8.0, 1e-9);
}

TEST(TetFractionTest, SymmetricMidpoint) {
  // Symmetric values: exactly half the volume below the midpoint.
  const std::array<double, 4> v = {0, 1, 3, 4};
  EXPECT_NEAR(TetFractionBelow(v, 2.0), 0.5, 1e-9);
}

TEST(TetFractionTest, MonotoneNondecreasing) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::array<double, 4> v;
    for (double& x : v) x = rng.NextDouble(-5, 5);
    double prev = 0;
    for (double t = -6; t <= 6; t += 0.1) {
      const double f = TetFractionBelow(v, t);
      EXPECT_GE(f, prev - 1e-12);
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0);
      prev = f;
    }
  }
}

TEST(TetFractionTest, MatchesMonteCarlo) {
  // Reference: sample barycentric points uniformly in a tetrahedron.
  Rng rng(7);
  const std::array<double, 4> v = {0.2, 0.9, 1.4, 2.7};
  for (const double t : {0.5, 1.0, 1.5, 2.0, 2.5}) {
    int below = 0;
    const int samples = 100000;
    for (int s = 0; s < samples; ++s) {
      // Uniform barycentric via sorted uniforms (spacings method).
      double u[3] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
      std::sort(u, u + 3);
      const double l0 = u[0], l1 = u[1] - u[0], l2 = u[2] - u[1],
                   l3 = 1 - u[2];
      const double w = l0 * v[0] + l1 * v[1] + l2 * v[2] + l3 * v[3];
      if (w <= t) ++below;
    }
    EXPECT_NEAR(TetFractionBelow(v, t),
                static_cast<double>(below) / samples, 6e-3)
        << "t=" << t;
  }
}

TEST(TetFractionTest, CoincidentValuesContinuous) {
  // Repeated knots must not blow up and must sit between neighbors.
  const std::array<double, 4> dup = {1, 1, 2, 3};
  const double f = TetFractionBelow(dup, 1.5);
  EXPECT_GT(f, 0.0);
  EXPECT_LT(f, 1.0);
  // All equal: step function.
  const std::array<double, 4> all = {2, 2, 2, 2};
  EXPECT_DOUBLE_EQ(TetFractionBelow(all, 1.9), 0.0);
  EXPECT_DOUBLE_EQ(TetFractionBelow(all, 2.1), 1.0);
}

TEST(TetBandTest, ConstantCellExactQuery) {
  const std::array<double, 4> all = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(TetBandFraction(all, ValueInterval{5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(TetBandFraction(all, ValueInterval{4, 6}), 1.0);
  EXPECT_DOUBLE_EQ(TetBandFraction(all, ValueInterval{6, 7}), 0.0);
}

TEST(VoxelBandTest, AffineFieldExact) {
  // w = x: corners bit0=+x. Band [0.25, 0.75] is a slab of volume 0.5.
  double corners[8];
  for (int c = 0; c < 8; ++c) corners[c] = (c & 1) ? 1.0 : 0.0;
  EXPECT_NEAR(VoxelBandFraction(corners, ValueInterval{0.25, 0.75}), 0.5,
              1e-9);
  EXPECT_NEAR(VoxelBandFraction(corners, ValueInterval{0, 1}), 1.0, 1e-9);
}

TEST(VoxelBandTest, DiagonalFieldMatchesMonteCarlo) {
  // w = x + y + z via corner values; Kuhn tets are exact for this
  // (tri-)linear function.
  double corners[8];
  for (int c = 0; c < 8; ++c) {
    corners[c] = (c & 1) + ((c >> 1) & 1) + ((c >> 2) & 1);
  }
  Rng rng(11);
  const ValueInterval band{0.8, 1.7};
  int inside = 0;
  const int samples = 200000;
  for (int s = 0; s < samples; ++s) {
    const double w =
        rng.NextDouble() + rng.NextDouble() + rng.NextDouble();
    if (band.Contains(w)) ++inside;
  }
  EXPECT_NEAR(VoxelBandFraction(corners, band),
              static_cast<double>(inside) / samples, 5e-3);
}

TEST(VolumeFieldTest, CreateValidates) {
  EXPECT_FALSE(VolumeGridField::Create(0, 2, 2, {}).ok());
  EXPECT_FALSE(VolumeGridField::Create(2, 2, 2, {1.0, 2.0}).ok());
  // Non-finite samples.
  for (const double bad :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<double> samples(8, 1.0);
    samples[5] = bad;
    EXPECT_EQ(VolumeGridField::Create(1, 1, 1, samples).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(VolumeFieldTest, VoxelCoordsRoundTrip) {
  auto field = MakeFractalVolume({4, 3, 2, 0.5, 3, 1});
  ASSERT_TRUE(field.ok());
  EXPECT_EQ(field->NumCells(), 24u);
  for (VoxelId id = 0; id < field->NumCells(); ++id) {
    const auto c = field->VoxelCoords(id);
    EXPECT_EQ(c[0] + c[1] * 4u + c[2] * 12u, id);
  }
}

TEST(VolumeFieldTest, TrilinearValueAt) {
  // Affine samples w = x: trilinear reproduces them exactly.
  const uint32_t n = 4;
  std::vector<double> samples;
  for (uint32_t k = 0; k <= n; ++k) {
    for (uint32_t j = 0; j <= n; ++j) {
      for (uint32_t i = 0; i <= n; ++i) {
        samples.push_back(static_cast<double>(i) / n);
      }
    }
  }
  auto field = VolumeGridField::Create(n, n, n, samples);
  ASSERT_TRUE(field.ok());
  Rng rng(13);
  for (int s = 0; s < 100; ++s) {
    const double x = rng.NextDouble();
    EXPECT_NEAR(*field->ValueAt(x, rng.NextDouble(), rng.NextDouble()), x,
                1e-12);
  }
  EXPECT_FALSE(field->ValueAt(1.5, 0, 0).ok());
}

TEST(VolumeFieldTest, FractalDeterministicAndBounded) {
  VolumeFractalOptions options;
  options.nx = options.ny = options.nz = 8;
  auto a = MakeFractalVolume(options);
  auto b = MakeFractalVolume(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ValueRange(), b->ValueRange());
  EXPECT_FALSE(a->ValueRange().IsEmpty());
}

class VolumeDbTest : public ::testing::TestWithParam<VolumeIndexMethod> {};

TEST_P(VolumeDbTest, AffineVolumeAnalytic) {
  // w = x: band [a, b] has volume b - a.
  const uint32_t n = 8;
  std::vector<double> samples;
  for (uint32_t k = 0; k <= n; ++k) {
    for (uint32_t j = 0; j <= n; ++j) {
      for (uint32_t i = 0; i <= n; ++i) {
        samples.push_back(static_cast<double>(i) / n);
      }
    }
  }
  auto field = VolumeGridField::Create(n, n, n, samples);
  ASSERT_TRUE(field.ok());
  VolumeFieldDatabase::Options options;
  options.method = GetParam();
  auto db = VolumeFieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  VolumeQueryResult result;
  ASSERT_TRUE((*db)->BandQuery(ValueInterval{0.25, 0.7}, &result).ok());
  EXPECT_NEAR(result.volume, 0.45, 1e-9);
  ASSERT_TRUE((*db)->BandQuery(ValueInterval{-5, 5}, &result).ok());
  EXPECT_NEAR(result.volume, 1.0, 1e-9);
}

TEST_P(VolumeDbTest, MatchesLinearScanOnFractal) {
  VolumeFractalOptions vo;
  vo.nx = vo.ny = vo.nz = 16;
  auto field = MakeFractalVolume(vo);
  ASSERT_TRUE(field.ok());

  VolumeFieldDatabase::Options scan_options;
  scan_options.method = VolumeIndexMethod::kLinearScan;
  auto reference = VolumeFieldDatabase::Build(*field, scan_options);
  ASSERT_TRUE(reference.ok());
  VolumeFieldDatabase::Options options;
  options.method = GetParam();
  auto db = VolumeFieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());

  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.05, 20, 17});
  for (const ValueInterval& q : queries) {
    VolumeQueryResult expected, actual;
    ASSERT_TRUE((*reference)->BandQuery(q, &expected).ok());
    ASSERT_TRUE((*db)->BandQuery(q, &actual).ok());
    EXPECT_NEAR(actual.volume, expected.volume, 1e-9);
    EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
  }
}

TEST_P(VolumeDbTest, RejectsEmptyBand) {
  VolumeFractalOptions vo;
  vo.nx = vo.ny = vo.nz = 4;
  auto field = MakeFractalVolume(vo);
  ASSERT_TRUE(field.ok());
  VolumeFieldDatabase::Options options;
  options.method = GetParam();
  auto db = VolumeFieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  VolumeQueryResult result;
  EXPECT_FALSE((*db)->BandQuery(ValueInterval::Empty(), &result).ok());
  // A NaN bound is empty too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const ValueInterval& band :
       {ValueInterval{nan, 0.5}, ValueInterval{-0.5, nan},
        ValueInterval{nan, nan}}) {
    EXPECT_EQ((*db)->BandQuery(band, &result).code(),
              StatusCode::kInvalidArgument);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, VolumeDbTest,
                         ::testing::Values(VolumeIndexMethod::kLinearScan,
                                           VolumeIndexMethod::kIHilbert),
                         [](const auto& info) {
                           return info.param ==
                                          VolumeIndexMethod::kLinearScan
                                      ? "LinearScan"
                                      : "IHilbert";
                         });

TEST(VolumeDbTest, SubfieldsPartitionVoxelStore) {
  VolumeFractalOptions vo;
  vo.nx = vo.ny = vo.nz = 12;
  auto field = MakeFractalVolume(vo);
  ASSERT_TRUE(field.ok());
  VolumeFieldDatabase::Options options;
  auto db = VolumeFieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  const auto& sfs = (*db)->subfields();
  ASSERT_FALSE(sfs.empty());
  EXPECT_EQ(sfs.front().start, 0u);
  EXPECT_EQ(sfs.back().end, (*db)->num_cells());
  for (size_t i = 0; i + 1 < sfs.size(); ++i) {
    EXPECT_EQ(sfs[i].end, sfs[i + 1].start);
    EXPECT_LT(sfs[i].start, sfs[i].end);
  }
}

TEST(VolumeDbTest, FullBandCoversUnitCube) {
  VolumeFractalOptions vo;
  vo.nx = vo.ny = vo.nz = 8;
  auto field = MakeFractalVolume(vo);
  ASSERT_TRUE(field.ok());
  VolumeFieldDatabase::Options options;
  auto db = VolumeFieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  VolumeQueryResult result;
  ASSERT_TRUE((*db)->BandQuery(field->ValueRange(), &result).ok());
  EXPECT_NEAR(result.volume, 1.0, 1e-9);
  EXPECT_EQ(result.stats.answer_cells, (*db)->num_cells());
}

TEST(VolumeDbTest, IHilbertGroupsAndWins) {
  VolumeFractalOptions vo;
  vo.nx = vo.ny = vo.nz = 32;  // 32768 voxels
  vo.roughness_h = 0.8;
  auto field = MakeFractalVolume(vo);
  ASSERT_TRUE(field.ok());

  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.02, 15, 21});
  const auto avg_reads = [&](VolumeIndexMethod method) {
    VolumeFieldDatabase::Options options;
    options.method = method;
    // This test isolates the index's I/O advantage, so pin the physical
    // plan: under kAuto the cost-based planner is free to (correctly)
    // prefer the fused scan for the wide bands in this workload.
    options.planner_mode = PlannerMode::kForceIndex;
    auto db = VolumeFieldDatabase::Build(*field, options);
    EXPECT_TRUE(db.ok());
    if (method == VolumeIndexMethod::kIHilbert) {
      EXPECT_GT((*db)->subfields().size(), 0u);
      EXPECT_LT((*db)->subfields().size(), (*db)->num_cells() / 4);
    }
    auto ws = (*db)->RunWorkload(queries);
    EXPECT_TRUE(ws.ok());
    return ws->avg_logical_reads;
  };
  EXPECT_LT(2 * avg_reads(VolumeIndexMethod::kIHilbert),
            avg_reads(VolumeIndexMethod::kLinearScan));
}

}  // namespace
}  // namespace fielddb
