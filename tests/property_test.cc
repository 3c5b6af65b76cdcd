// Cross-cutting randomized properties: query answers must be invariant
// under every *representation* choice — page size, buffer-pool size,
// curve order, bulk-vs-insert builds — and the estimation step must
// agree with Monte-Carlo measure on random cells.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/field_database.h"
#include "field/isoband.h"
#include "field/interpolation.h"
#include "gen/fractal.h"
#include "gen/noise_tin.h"
#include "gen/workload.h"
#include "query_util.h"

namespace fielddb {
namespace {

TEST(IsobandMonteCarloTest, RandomQuadsMatchSampledMeasure) {
  Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    const CellRecord quad = CellRecord::Quad(
        0, Rect2{{0, 0}, {1, 1}}, rng.NextDouble(-2, 2),
        rng.NextDouble(-2, 2), rng.NextDouble(-2, 2),
        rng.NextDouble(-2, 2));
    const double lo = rng.NextDouble(-2, 2);
    const ValueInterval band{lo, lo + rng.NextDouble(0, 2)};

    Region region;
    ASSERT_TRUE(CellIsoband(quad, band, &region).ok());

    // Monte Carlo against the *fan* interpolant (4 triangles around the
    // center) that the estimation step defines.
    const Point2 center{0.5, 0.5};
    const double wc =
        (quad.w[0] + quad.w[1] + quad.w[2] + quad.w[3]) / 4.0;
    int inside = 0;
    const int samples = 40000;
    for (int s = 0; s < samples; ++s) {
      const Point2 p{rng.NextDouble(), rng.NextDouble()};
      // Locate the fan triangle containing p and interpolate linearly.
      double w = wc;
      for (int i = 0; i < 4; ++i) {
        const int j = (i + 1) % 4;
        const Triangle2 tri{{quad.Vertex(i), quad.Vertex(j), center}};
        if (!tri.Contains(p)) continue;
        auto plane = FitTrianglePlane(quad.Vertex(i), quad.w[i],
                                      quad.Vertex(j), quad.w[j], center,
                                      wc);
        ASSERT_TRUE(plane.ok());
        w = plane->Eval(p);
        break;
      }
      if (band.Contains(w)) ++inside;
    }
    EXPECT_NEAR(region.TotalArea(), static_cast<double>(inside) / samples,
                0.012)
        << "trial " << trial;
  }
}

TEST(RepresentationInvarianceTest, PageSizeDoesNotChangeAnswers) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.03, 10, 77});

  std::vector<double> reference_areas;
  for (const uint32_t page_size : {1024u, 4096u, 16384u}) {
    FieldDatabaseOptions options;
    options.page_size = page_size;
    auto db = FieldDatabase::Build(*field, options);
    ASSERT_TRUE(db.ok());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ValueQueryResult result;
      ASSERT_TRUE(QueryOne(**db, queries[qi], &result).ok());
      if (page_size == 1024u) {
        reference_areas.push_back(result.region.TotalArea());
      } else {
        EXPECT_NEAR(result.region.TotalArea(), reference_areas[qi], 1e-9)
            << "page_size " << page_size;
      }
    }
  }
}

TEST(RepresentationInvarianceTest, PoolSizeDoesNotChangeAnswers) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  const ValueInterval band{field->ValueRange().min,
                           field->ValueRange().Center()};
  double reference = -1;
  for (const size_t pool_pages : {4u, 64u, 4096u}) {
    FieldDatabaseOptions options;
    options.pool_pages = pool_pages;
    options.build_spatial_index = false;
    auto db = FieldDatabase::Build(*field, options);
    ASSERT_TRUE(db.ok());
    ValueQueryResult result;
    ASSERT_TRUE(QueryOne(**db, band, &result).ok());
    if (reference < 0) {
      reference = result.region.TotalArea();
    } else {
      EXPECT_NEAR(result.region.TotalArea(), reference, 1e-9)
          << "pool " << pool_pages;
    }
  }
}

TEST(RepresentationInvarianceTest, CurveOrderDoesNotChangeAnswers) {
  NoiseTinOptions no;
  no.num_sites = 300;
  auto field = MakeUrbanNoiseTin(no);
  ASSERT_TRUE(field.ok());
  const ValueInterval band{75.0, 85.0};
  double reference = -1;
  for (const int order : {4, 8, 16}) {
    FieldDatabaseOptions options;
    options.ihilbert.curve_order = order;
    auto db = FieldDatabase::Build(*field, options);
    ASSERT_TRUE(db.ok());
    ValueQueryResult result;
    ASSERT_TRUE(QueryOne(**db, band, &result).ok());
    if (reference < 0) {
      reference = result.region.TotalArea();
    } else {
      EXPECT_NEAR(result.region.TotalArea(), reference, 1e-9)
          << "order " << order;
    }
  }
}

TEST(RepresentationInvarianceTest, QueryAnswersAreDeterministic) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  const ValueInterval band{0.0, 0.2};
  ValueQueryResult first;
  ASSERT_TRUE(QueryOne(**db, band, &first).ok());
  for (int repeat = 0; repeat < 5; ++repeat) {
    ValueQueryResult again;
    ASSERT_TRUE(QueryOne(**db, band, &again).ok());
    EXPECT_EQ(again.region.NumPieces(), first.region.NumPieces());
    EXPECT_DOUBLE_EQ(again.region.TotalArea(), first.region.TotalArea());
  }
}

TEST(MonotonicityPropertyTest, WiderBandsNeverShrinkAnswers) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  const double center = field->ValueRange().Center();
  double prev_area = -1;
  uint64_t prev_cells = 0;
  for (const double half : {0.01, 0.05, 0.1, 0.3, 0.8}) {
    ValueQueryResult result;
    ASSERT_TRUE(
        QueryOne(**db, ValueInterval{center - half, center + half}, &result)
            .ok());
    EXPECT_GE(result.region.TotalArea(), prev_area - 1e-12);
    EXPECT_GE(result.stats.answer_cells, prev_cells);
    prev_area = result.region.TotalArea();
    prev_cells = result.stats.answer_cells;
  }
  // The all-covering band yields the whole domain.
  ValueQueryResult all;
  ASSERT_TRUE(QueryOne(**db,
                       ValueInterval{field->ValueRange().min,
                                     field->ValueRange().max},
                       &all)
                  .ok());
  EXPECT_NEAR(all.region.TotalArea(), 1.0, 1e-9);
}

}  // namespace
}  // namespace fielddb
