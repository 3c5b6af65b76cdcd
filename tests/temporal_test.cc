#include "temporal/temporal_index.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/rng.h"
#include "gen/fractal.h"

namespace fielddb {
namespace {

// T snapshots of a drifting fractal terrain: snapshot k = base + k*trend,
// trend itself a smooth surface — values move linearly in time.
TemporalGridField MakeDriftingField(int size_exp, uint32_t num_snapshots,
                                    uint64_t seed) {
  FractalOptions fo;
  fo.size_exp = size_exp;
  fo.roughness_h = 0.7;
  fo.seed = seed;
  const std::vector<double> base = DiamondSquare(fo);
  fo.seed = seed + 1;
  std::vector<double> trend = DiamondSquare(fo);
  for (double& w : trend) w *= 0.3;

  std::vector<std::vector<double>> snapshots(num_snapshots);
  for (uint32_t k = 0; k < num_snapshots; ++k) {
    snapshots[k].resize(base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      snapshots[k][i] = base[i] + k * trend[i];
    }
  }
  const uint32_t n = uint32_t{1} << size_exp;
  auto field = TemporalGridField::Create(n, n, Rect2{{0, 0}, {1, 1}},
                                         std::move(snapshots));
  EXPECT_TRUE(field.ok());
  return std::move(field).value();
}

TEST(TemporalFieldTest, CreateValidates) {
  EXPECT_FALSE(
      TemporalGridField::Create(2, 2, Rect2{{0, 0}, {1, 1}}, {}).ok());
  std::vector<double> good(9, 0.0);
  EXPECT_FALSE(TemporalGridField::Create(2, 2, Rect2{{0, 0}, {1, 1}},
                                         {good})
                   .ok());  // only one snapshot
  EXPECT_FALSE(TemporalGridField::Create(2, 2, Rect2{{0, 0}, {1, 1}},
                                         {good, {1.0, 2.0}})
                   .ok());  // size mismatch
  EXPECT_TRUE(TemporalGridField::Create(2, 2, Rect2{{0, 0}, {1, 1}},
                                        {good, good})
                  .ok());
  // Non-finite samples.
  for (const double bad :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<double> nonfinite = good;
    nonfinite[4] = bad;
    EXPECT_EQ(TemporalGridField::Create(2, 2, Rect2{{0, 0}, {1, 1}},
                                        {good, nonfinite})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(TemporalFieldTest, TimeInterpolationIsLinear) {
  const TemporalGridField field = MakeDriftingField(3, 4, 5);
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const Point2 p{rng.NextDouble(), rng.NextDouble()};
    const double w0 = *field.ValueAt(p, 1.0);
    const double w1 = *field.ValueAt(p, 2.0);
    const double mid = *field.ValueAt(p, 1.5);
    EXPECT_NEAR(mid, (w0 + w1) / 2.0, 1e-9);
  }
  EXPECT_FALSE(field.ValueAt({0.5, 0.5}, -0.1).ok());
  EXPECT_FALSE(field.ValueAt({0.5, 0.5}, 3.1).ok());
}

TEST(TemporalFieldTest, SnapshotAtEndpointsMatchesSnapshots) {
  const TemporalGridField field = MakeDriftingField(3, 3, 9);
  const StatusOr<GridField> s1 = field.Snapshot(1);
  const StatusOr<GridField> at1 = field.SnapshotAt(1.0);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(at1.ok());
  for (uint32_t j = 0; j <= field.rows(); ++j) {
    for (uint32_t i = 0; i <= field.cols(); ++i) {
      EXPECT_DOUBLE_EQ(at1->SampleAt(i, j), s1->SampleAt(i, j));
    }
  }
}

TEST(TemporalDbTest, SnapshotQueryMatchesStaticDatabase) {
  const TemporalGridField field = MakeDriftingField(5, 4, 11);
  TemporalFieldDatabase::Options options;
  auto db = TemporalFieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok());

  Rng rng(13);
  for (const double t : {0.0, 0.7, 1.5, 2.3, 3.0}) {
    // Reference: a plain FieldDatabase over the interpolated snapshot.
    StatusOr<GridField> snapshot = field.SnapshotAt(t);
    ASSERT_TRUE(snapshot.ok());
    FieldDatabaseOptions ref_options;
    ref_options.method = IndexMethod::kLinearScan;
    ref_options.build_spatial_index = false;
    auto reference = FieldDatabase::Build(*snapshot, ref_options);
    ASSERT_TRUE(reference.ok());

    for (int trial = 0; trial < 10; ++trial) {
      const ValueInterval range = field.ValueRange();
      const double lo = rng.NextDouble(range.min, range.max);
      const ValueInterval band{lo, lo + 0.05 * range.Length()};
      ValueQueryResult expected, actual;
      ASSERT_TRUE((*reference)->ValueQuery(band, &expected).ok());
      ASSERT_TRUE((*db)->SnapshotValueQuery(t, band, &actual).ok());
      EXPECT_NEAR(actual.region.TotalArea(),
                  expected.region.TotalArea(), 1e-9)
          << "t=" << t << " band=" << band.ToString();
      EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
    }
  }
}

TEST(TemporalDbTest, RejectsBadQueries) {
  const TemporalGridField field = MakeDriftingField(3, 3, 15);
  TemporalFieldDatabase::Options options;
  auto db = TemporalFieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok());
  ValueQueryResult result;
  EXPECT_FALSE(
      (*db)->SnapshotValueQuery(-1.0, ValueInterval{0, 1}, &result).ok());
  EXPECT_FALSE(
      (*db)->SnapshotValueQuery(5.0, ValueInterval{0, 1}, &result).ok());
  EXPECT_FALSE(
      (*db)->SnapshotValueQuery(1.0, ValueInterval::Empty(), &result)
          .ok());
  // Non-finite times.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      (*db)->SnapshotValueQuery(nan, ValueInterval{0, 1}, &result).ok());
  EXPECT_FALSE(
      (*db)->SnapshotValueQuery(inf, ValueInterval{0, 1}, &result).ok());
  std::vector<CellId> cells;
  EXPECT_EQ((*db)->TimeRangeCandidates(ValueInterval{0, 1}, nan, 1.0, &cells)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*db)->TimeRangeCandidates(ValueInterval{0, 1}, 0.0, nan, &cells)
                .code(),
            StatusCode::kInvalidArgument);
  // A NaN value bound is empty too.
  for (const ValueInterval& band :
       {ValueInterval{nan, 0.5}, ValueInterval{-0.5, nan},
        ValueInterval{nan, nan}}) {
    EXPECT_EQ((*db)->SnapshotValueQuery(1.0, band, &result).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ((*db)->TimeRangeCandidates(band, 0.0, 1.0, &cells).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(cells.empty());
}

TEST(TemporalDbTest, TimeRangeCandidatesCoverGroundTruth) {
  const TemporalGridField field = MakeDriftingField(4, 5, 17);
  TemporalFieldDatabase::Options options;
  auto db = TemporalFieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok());

  const ValueInterval range = field.ValueRange();
  const ValueInterval band{range.Center(),
                           range.Center() + 0.1 * range.Length()};
  const double t0 = 1.2, t1 = 3.6;
  std::vector<CellId> candidates;
  ASSERT_TRUE((*db)->TimeRangeCandidates(band, t0, t1, &candidates).ok());
  const std::set<CellId> candidate_set(candidates.begin(),
                                       candidates.end());

  // Ground truth: sample times densely; any cell whose snapshot interval
  // intersects at some sampled time must be a candidate.
  for (double t = t0; t <= t1; t += 0.2) {
    StatusOr<GridField> snapshot = field.SnapshotAt(t);
    ASSERT_TRUE(snapshot.ok());
    for (CellId id = 0; id < snapshot->NumCells(); ++id) {
      if (snapshot->GetCell(id).Interval().Intersects(band)) {
        ASSERT_TRUE(candidate_set.count(id))
            << "cell " << id << " missing at t=" << t;
      }
    }
  }
}

TEST(TemporalDbTest, TimeRangeRespectsTimeBounds) {
  // A value present only in late snapshots must not be a candidate for
  // an early time range.
  const uint32_t n = 4;
  std::vector<double> flat(static_cast<size_t>(n + 1) * (n + 1), 0.0);
  std::vector<double> spiked = flat;
  spiked[12] = 100.0;
  auto field = TemporalGridField::Create(
      n, n, Rect2{{0, 0}, {1, 1}}, {flat, flat, flat, spiked});
  ASSERT_TRUE(field.ok());
  TemporalFieldDatabase::Options options;
  auto db = TemporalFieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());

  std::vector<CellId> early, late;
  ASSERT_TRUE(
      (*db)->TimeRangeCandidates(ValueInterval{50, 150}, 0.0, 1.9, &early)
          .ok());
  EXPECT_TRUE(early.empty());
  ASSERT_TRUE(
      (*db)->TimeRangeCandidates(ValueInterval{50, 150}, 2.5, 3.0, &late)
          .ok());
  EXPECT_FALSE(late.empty());
}

TEST(TemporalDbTest, NonSquareGridWorks) {
  // 6 x 3 cells, values drift linearly.
  const uint32_t cols = 6, rows = 3;
  std::vector<std::vector<double>> snapshots(3);
  for (uint32_t k = 0; k < 3; ++k) {
    for (uint32_t j = 0; j <= rows; ++j) {
      for (uint32_t i = 0; i <= cols; ++i) {
        snapshots[k].push_back(i + 10.0 * j + 100.0 * k);
      }
    }
  }
  auto field = TemporalGridField::Create(cols, rows,
                                         Rect2{{0, 0}, {2, 1}}, snapshots);
  ASSERT_TRUE(field.ok());
  TemporalFieldDatabase::Options options;
  auto db = TemporalFieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  // At t=1 values are samples + 100; query the whole range there.
  ValueQueryResult result;
  ASSERT_TRUE(
      (*db)->SnapshotValueQuery(1.0, ValueInterval{100, 200}, &result)
          .ok());
  EXPECT_NEAR(result.region.TotalArea(), 2.0, 1e-9);  // whole 2x1 domain
}

TEST(TemporalDbTest, SubfieldsPerSlab) {
  const TemporalGridField field = MakeDriftingField(5, 3, 21);
  TemporalFieldDatabase::Options options;
  auto db = TemporalFieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->num_slabs(), 2u);
  EXPECT_GT((*db)->num_subfields(), 0u);
  EXPECT_LT((*db)->num_subfields(), 2u * field.NumCells() / 4);
}

}  // namespace
}  // namespace fielddb
