#include "core/explain.h"
#include "core/field_database.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "gen/fractal.h"
#include "gen/monotonic.h"
#include "gen/noise_tin.h"
#include "gen/workload.h"
#include "query_util.h"

namespace fielddb {
namespace {

class DatabaseMethodTest : public ::testing::TestWithParam<IndexMethod> {
 protected:
  FieldDatabaseOptions OptionsFor(IndexMethod method) {
    FieldDatabaseOptions options;
    options.method = method;
    return options;
  }
};

TEST_P(DatabaseMethodTest, MonotonicFieldAnalyticArea) {
  // On w = x + y over the unit square, the region where a <= w <= b (for
  // 0 <= a <= b <= 1) is the strip between two anti-diagonals with area
  // (b^2 - a^2) / 2.
  auto field = MakeMonotonicField(32, 32);
  ASSERT_TRUE(field.ok());
  auto db = FieldDatabase::Build(*field, OptionsFor(GetParam()));
  ASSERT_TRUE(db.ok());

  for (const auto& [a, b] : std::vector<std::pair<double, double>>{
           {0.2, 0.5}, {0.0, 1.0}, {0.7, 0.9}, {0.45, 0.45}}) {
    ValueQueryResult result;
    ASSERT_TRUE(QueryOne(**db, ValueInterval{a, b}, &result).ok());
    const double expected = (b * b - a * a) / 2.0;
    EXPECT_NEAR(result.region.TotalArea(), expected, 1e-9)
        << "[" << a << ", " << b << "] with "
        << IndexMethodName(GetParam());
  }
}

TEST_P(DatabaseMethodTest, UpperHalfBandArea) {
  // 1 <= w <= 2 covers the complementary half: area 1/2 plus strip terms.
  auto field = MakeMonotonicField(16, 16);
  ASSERT_TRUE(field.ok());
  auto db = FieldDatabase::Build(*field, OptionsFor(GetParam()));
  ASSERT_TRUE(db.ok());
  ValueQueryResult result;
  ASSERT_TRUE(QueryOne(**db, ValueInterval{1.0, 2.0}, &result).ok());
  EXPECT_NEAR(result.region.TotalArea(), 0.5, 1e-9);
}

TEST_P(DatabaseMethodTest, AllMethodsAgreeOnFractal) {
  FractalOptions fo;
  fo.size_exp = 5;
  fo.roughness_h = 0.4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());

  FieldDatabaseOptions ref_options;
  ref_options.method = IndexMethod::kLinearScan;
  auto reference = FieldDatabase::Build(*field, ref_options);
  ASSERT_TRUE(reference.ok());
  auto db = FieldDatabase::Build(*field, OptionsFor(GetParam()));
  ASSERT_TRUE(db.ok());

  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.04, 20, 17});
  for (const ValueInterval& q : queries) {
    ValueQueryResult expected, actual;
    ASSERT_TRUE(QueryOne(**reference, q, &expected).ok());
    ASSERT_TRUE(QueryOne(**db, q, &actual).ok());
    EXPECT_NEAR(actual.region.TotalArea(), expected.region.TotalArea(),
                1e-9)
        << q.ToString();
    EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
  }
}

TEST_P(DatabaseMethodTest, PointQueriesMatchFieldOnGrid) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  auto db = FieldDatabase::Build(*field, OptionsFor(GetParam()));
  ASSERT_TRUE(db.ok());
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    const Point2 p{rng.NextDouble(), rng.NextDouble()};
    const StatusOr<double> expected = field->ValueAt(p);
    const StatusOr<double> actual = (*db)->PointQuery(p);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_NEAR(*actual, *expected, 1e-12);
  }
  EXPECT_EQ((*db)->PointQuery({3, 3}).status().code(),
            StatusCode::kNotFound);
}

TEST_P(DatabaseMethodTest, PointQueriesMatchFieldOnTin) {
  NoiseTinOptions no;
  no.num_sites = 300;
  auto field = MakeUrbanNoiseTin(no);
  ASSERT_TRUE(field.ok());
  auto db = FieldDatabase::Build(*field, OptionsFor(GetParam()));
  ASSERT_TRUE(db.ok());
  Rng rng(29);
  int tested = 0;
  while (tested < 50) {
    const Point2 p{rng.NextDouble(), rng.NextDouble()};
    const StatusOr<double> expected = field->ValueAt(p);
    if (!expected.ok()) continue;  // between hull and square edge
    const StatusOr<double> actual = (*db)->PointQuery(p);
    ASSERT_TRUE(actual.ok());
    EXPECT_NEAR(*actual, *expected, 1e-9);
    ++tested;
  }
}

TEST_P(DatabaseMethodTest, StatsModeMatchesFullQuery) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  auto db = FieldDatabase::Build(*field, OptionsFor(GetParam()));
  ASSERT_TRUE(db.ok());
  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.03, 10, 31});
  for (const ValueInterval& q : queries) {
    ValueQueryResult full;
    QueryStats stats_only;
    ASSERT_TRUE(QueryOne(**db, q, &full).ok());
    ASSERT_TRUE(CountOne(**db, q, &stats_only).ok());
    EXPECT_EQ(full.stats.candidate_cells, stats_only.candidate_cells);
    // Full mode counts cells yielding pieces; stats mode counts interval
    // intersections. Identical because a non-degenerate cell whose
    // interval intersects the band always contributes a piece.
    EXPECT_EQ(full.stats.answer_cells, stats_only.answer_cells);
  }
}

TEST_P(DatabaseMethodTest, EmptyQueryRejected) {
  auto field = MakeMonotonicField(4, 4);
  ASSERT_TRUE(field.ok());
  auto db = FieldDatabase::Build(*field, OptionsFor(GetParam()));
  ASSERT_TRUE(db.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A NaN bound is empty too: no value lies above or below it.
  for (const ValueInterval& q :
       {ValueInterval::Empty(), ValueInterval{nan, 0.5},
        ValueInterval{-0.5, nan}, ValueInterval{nan, nan}}) {
    SCOPED_TRACE(q.ToString());
    ValueQueryResult result;
    EXPECT_EQ(QueryOne(**db, q, &result).code(),
              StatusCode::kInvalidArgument);
    std::vector<QueryStats> shared;
    EXPECT_EQ(CountShared(**db, {ValueInterval{0, 1}, q}, &shared).code(),
              StatusCode::kInvalidArgument);
    ExplainResult explain;
    EXPECT_EQ(ExplainValueQuery(**db, q, &explain).code(),
              StatusCode::kInvalidArgument);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, DatabaseMethodTest,
    ::testing::Values(IndexMethod::kLinearScan, IndexMethod::kIAll,
                      IndexMethod::kIHilbert,
                      IndexMethod::kIntervalQuadtree),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(FieldDatabaseTest, RunWorkloadAggregates) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = IndexMethod::kIHilbert;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.02, 20, 41});
  auto ws = (*db)->RunWorkload(queries);
  ASSERT_TRUE(ws.ok());
  EXPECT_EQ(ws->num_queries, 20u);
  EXPECT_GT(ws->avg_candidates, 0.0);
  EXPECT_GT(ws->avg_logical_reads, 0.0);
  EXPECT_GE(ws->avg_candidates, ws->avg_answer_cells);
}

TEST(FieldDatabaseTest, IHilbertTouchesFewerPagesThanLinearScan) {
  // The headline claim, at unit-test scale: on a smooth field with a
  // narrow query, I-Hilbert must read far fewer pages than LinearScan.
  FractalOptions fo;
  fo.size_exp = 7;  // 16384 cells
  fo.roughness_h = 0.8;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());

  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.01, 30, 53});
  const auto avg_reads = [&](IndexMethod method) {
    FieldDatabaseOptions options;
    options.method = method;
    // Pin the indexed plan: this test compares the *methods'* page
    // counts, and auto mode would let I-Hilbert fall back to a fused
    // scan on queries where seeks outweigh the page savings.
    options.planner_mode = PlannerMode::kForceIndex;
    auto db = FieldDatabase::Build(*field, options);
    EXPECT_TRUE(db.ok());
    auto ws = (*db)->RunWorkload(queries);
    EXPECT_TRUE(ws.ok());
    return ws->avg_logical_reads;
  };
  const double scan = avg_reads(IndexMethod::kLinearScan);
  const double hilbert = avg_reads(IndexMethod::kIHilbert);
  EXPECT_LT(hilbert * 2.0, scan);
}

TEST(FieldDatabaseTest, SubfieldsAccessor) {
  auto field = MakeMonotonicField(16, 16);
  ASSERT_TRUE(field.ok());
  for (const IndexMethod method :
       {IndexMethod::kIHilbert, IndexMethod::kIntervalQuadtree}) {
    FieldDatabaseOptions options;
    options.method = method;
    auto db = FieldDatabase::Build(*field, options);
    ASSERT_TRUE(db.ok());
    ASSERT_NE((*db)->index().subfields(), nullptr);
    EXPECT_FALSE((*db)->index().subfields()->empty());
    EXPECT_NE((*db)->index().tree(), nullptr);
  }
  FieldDatabaseOptions options;
  options.method = IndexMethod::kIAll;
  auto iall = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(iall.ok());
  EXPECT_EQ((*iall)->index().subfields(), nullptr);
  EXPECT_NE((*iall)->index().tree(), nullptr);
  options.method = IndexMethod::kLinearScan;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->index().subfields(), nullptr);
  EXPECT_EQ((*db)->index().tree(), nullptr);
}

TEST(FieldDatabaseTest, PointQueryWithoutSpatialIndexFallsBackToScan) {
  auto field = MakeMonotonicField(8, 8);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.build_spatial_index = false;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  EXPECT_NEAR(*(*db)->PointQuery({0.3, 0.4}), 0.7, 1e-12);
  EXPECT_EQ((*db)->PointQuery({2, 2}).status().code(),
            StatusCode::kNotFound);
}

TEST(FieldDatabaseTest, WarmCacheWorkloadReadsFewerPhysicalPages) {
  FractalOptions fo;
  fo.size_exp = 6;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = IndexMethod::kIHilbert;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.02, 20, 43});
  auto cold = (*db)->RunWorkload(queries, /*cold_cache=*/true);
  auto warm = (*db)->RunWorkload(queries, /*cold_cache=*/false);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  // Logical work is identical; a warm cache serves it with fewer misses.
  EXPECT_DOUBLE_EQ(warm->avg_logical_reads, cold->avg_logical_reads);
  EXPECT_LT(warm->avg_physical_reads, cold->avg_physical_reads);
}

TEST(FieldDatabaseTest, CustomPageSize) {
  auto field = MakeMonotonicField(16, 16);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.page_size = 1024;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  ValueQueryResult result;
  ASSERT_TRUE(QueryOne(**db, ValueInterval{0.5, 0.6}, &result).ok());
  EXPECT_GT(result.region.TotalArea(), 0.0);
}

TEST(FieldDatabaseTest, OceanScenarioConjunctiveQuery) {
  // The paper's motivating example: temperature in [20, 25] AND salinity
  // in [12, 13], evaluated as two single-field value queries whose answer
  // regions are intersected by area sampling.
  auto temperature = MakeMonotonicField(16, 16);  // w = x + y in [0, 2]
  ASSERT_TRUE(temperature.ok());
  FractalOptions fo;
  fo.size_exp = 4;
  auto salinity = MakeFractalField(fo);
  ASSERT_TRUE(salinity.ok());

  FieldDatabaseOptions options;
  auto temp_db = FieldDatabase::Build(*temperature, options);
  auto sal_db = FieldDatabase::Build(*salinity, options);
  ASSERT_TRUE(temp_db.ok());
  ASSERT_TRUE(sal_db.ok());

  ValueQueryResult rt, rs;
  ASSERT_TRUE(
      QueryOne(**temp_db, ValueInterval{0.5, 1.5}, &rt).ok());
  const ValueInterval sal_range = salinity->ValueRange();
  ASSERT_TRUE(QueryOne(**sal_db,
                       ValueInterval{sal_range.min, sal_range.Center()}, &rs)
                  .ok());
  EXPECT_FALSE(rt.region.IsEmpty());
  EXPECT_FALSE(rs.region.IsEmpty());
}

}  // namespace
}  // namespace fielddb
