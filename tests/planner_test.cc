// Tests for the plan layer: cost-model golden page counts on a
// synthetic store shape, the planner's access-path decisions, and the
// differential suite — the planner-chosen plan must return bit-identical
// results to both forced plans across every index method and a
// selectivity sweep from 0.1% to 90%.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/field_database.h"
#include "gen/fractal.h"
#include "plan/cost_model.h"
#include "plan/planner.h"
#include "query_util.h"

namespace fielddb {
namespace {

// ---------------------------------------------------------------------------
// Cost-model goldens: a synthetic 1000-cell store, 10 cells per 4 KB
// page, 100 pages. Every expected count below is worked out by hand.

StoreShape SyntheticShape() {
  StoreShape shape;
  shape.num_cells = 1000;
  shape.cells_per_page = 10;
  shape.store_pages = 100;
  return shape;
}

TEST(CostModelTest, ScanPatternGolden) {
  const PlanCostModel cost;
  const PagePattern p = cost.ScanPattern(SyntheticShape());
  EXPECT_EQ(p.pages, 100u);
  EXPECT_EQ(p.random_reads, 1u);  // one seek to the store's first page
  EXPECT_EQ(p.sequential_reads, 99u);
  // Default disk model: 9.16 ms for the seek'd page, 0.16 ms per
  // sequential page.
  EXPECT_DOUBLE_EQ(cost.CostMs(p), 1 * (9.0 + 0.16) + 99 * 0.16);
}

TEST(CostModelTest, ScanPatternEmptyStore) {
  const PlanCostModel cost;
  const PagePattern p = cost.ScanPattern(StoreShape{});
  EXPECT_EQ(p.pages, 0u);
  EXPECT_EQ(p.random_reads, 0u);
  EXPECT_EQ(p.sequential_reads, 0u);
  EXPECT_DOUBLE_EQ(cost.CostMs(p), 0.0);
}

TEST(CostModelTest, FetchPatternSingleRunGolden) {
  const PlanCostModel cost;
  // Cells [25, 35) live on pages 2 and 3: one seek, one sequential.
  const PagePattern p =
      cost.FetchPattern(SyntheticShape(), {PosRange{25, 35}});
  EXPECT_EQ(p.pages, 2u);
  EXPECT_EQ(p.random_reads, 1u);
  EXPECT_EQ(p.sequential_reads, 1u);
}

TEST(CostModelTest, FetchPatternWholeStoreEqualsScan) {
  const PlanCostModel cost;
  const StoreShape shape = SyntheticShape();
  const PagePattern fetch =
      cost.FetchPattern(shape, {PosRange{0, shape.num_cells}});
  const PagePattern scan = cost.ScanPattern(shape);
  EXPECT_EQ(fetch.pages, scan.pages);
  EXPECT_EQ(fetch.random_reads, scan.random_reads);
  EXPECT_EQ(fetch.sequential_reads, scan.sequential_reads);
}

TEST(CostModelTest, FetchPatternSharedPageChargedOnce) {
  const PlanCostModel cost;
  // [5, 12) reads pages 0-1; [12, 18) lives entirely on page 1, which
  // the previous run already read — the buffer pool serves it free.
  const PagePattern p =
      cost.FetchPattern(SyntheticShape(), {PosRange{5, 12}, PosRange{12, 18}});
  EXPECT_EQ(p.pages, 2u);
  EXPECT_EQ(p.random_reads, 1u);
  EXPECT_EQ(p.sequential_reads, 1u);
}

TEST(CostModelTest, FetchPatternAbuttingRunsStaySequential) {
  const PlanCostModel cost;
  // [0, 10) reads page 0; [10, 30) starts on page 1 — exactly one past
  // the previous read, so its head page is sequential, not a seek.
  const PagePattern p =
      cost.FetchPattern(SyntheticShape(), {PosRange{0, 10}, PosRange{10, 30}});
  EXPECT_EQ(p.pages, 3u);
  EXPECT_EQ(p.random_reads, 1u);
  EXPECT_EQ(p.sequential_reads, 2u);
}

TEST(CostModelTest, FetchPatternDisjointRunsEachPaySeek) {
  const PlanCostModel cost;
  // Page 0, then pages 50-51: two seeks, one sequential follower.
  const PagePattern p = cost.FetchPattern(SyntheticShape(),
                                          {PosRange{0, 10}, PosRange{500, 515}});
  EXPECT_EQ(p.pages, 3u);
  EXPECT_EQ(p.random_reads, 2u);
  EXPECT_EQ(p.sequential_reads, 1u);
}

TEST(CostModelTest, CostMsUsesConfiguredDiskModel) {
  DiskModel disk;
  disk.seek_ms = 10.0;
  disk.transfer_ms_per_page = 1.0;
  const PlanCostModel cost(disk);
  PagePattern p;
  p.pages = 5;
  p.random_reads = 2;
  p.sequential_reads = 3;
  EXPECT_DOUBLE_EQ(cost.CostMs(p), 2 * (10.0 + 1.0) + 3 * 1.0);
}

// ---------------------------------------------------------------------------
// Shared fixtures: fractal DEMs at two sizes. The small one (4096
// cells) is cheap enough for the 5-method differential sweep; the big
// one (65536 cells) is the smallest where the scan/index crossover
// exists under the default disk model.

StatusOr<GridField> MakeDem(int size_exp) {
  FractalOptions options;
  options.size_exp = size_exp;
  options.roughness_h = 0.7;
  options.seed = 20020613;
  return MakeFractalField(options);
}

StatusOr<std::unique_ptr<FieldDatabase>> MakeDb(const Field& field,
                                                IndexMethod method) {
  FieldDatabaseOptions options;
  options.method = method;
  options.build_spatial_index = false;
  return FieldDatabase::Build(field, options);
}

ValueInterval Band(const FieldDatabase& db, double lo_frac, double hi_frac) {
  const ValueInterval& vr = db.value_range();
  const double span = vr.max - vr.min;
  return ValueInterval{vr.min + lo_frac * span, vr.min + hi_frac * span};
}

// ---------------------------------------------------------------------------
// Planner decisions.

TEST(PlannerTest, LinearScanOnlyEverPlansFusedScan) {
  auto dem = MakeDem(6);
  ASSERT_TRUE(dem.ok());
  auto db = MakeDb(*dem, IndexMethod::kLinearScan);
  ASSERT_TRUE(db.ok());
  const ValueInterval band = Band(**db, 0.0, 0.01);
  for (const PlannerMode mode :
       {PlannerMode::kAuto, PlannerMode::kForceScan, PlannerMode::kForceIndex}) {
    (*db)->set_planner_mode(mode);
    const PhysicalPlan plan = (*db)->PlanValueQuery(band);
    EXPECT_EQ(plan.kind, PlanKind::kFusedScan) << PlannerModeName(mode);
    EXPECT_DOUBLE_EQ(plan.predicted_cost_ms, plan.scan_cost_ms);
  }
}

TEST(PlannerTest, ForcedModesPinThePlan) {
  auto dem = MakeDem(6);
  ASSERT_TRUE(dem.ok());
  auto db = MakeDb(*dem, IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());
  const ValueInterval band = Band(**db, 0.2, 0.6);

  (*db)->set_planner_mode(PlannerMode::kForceScan);
  const PhysicalPlan scan = (*db)->PlanValueQuery(band);
  EXPECT_EQ(scan.kind, PlanKind::kFusedScan);
  EXPECT_DOUBLE_EQ(scan.predicted_cost_ms, scan.scan_cost_ms);

  (*db)->set_planner_mode(PlannerMode::kForceIndex);
  const PhysicalPlan index = (*db)->PlanValueQuery(band);
  EXPECT_EQ(index.kind, PlanKind::kIndexedFilter);
  EXPECT_DOUBLE_EQ(index.predicted_cost_ms, index.index_cost_ms);
  EXPECT_GT(index.predicted_candidates, 0u);
}

TEST(PlannerTest, AutoPicksIndexForSliversAndScanForWideBands) {
  // 65536 cells: big enough that three tree seeks undercut the full
  // scan. (On small stores the scan always wins — that behavior is
  // asserted by ReportsAdaptivePlanChoice in explain_test.)
  auto dem = MakeDem(8);
  ASSERT_TRUE(dem.ok());
  auto db = MakeDb(*dem, IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());

  const PhysicalPlan narrow = (*db)->PlanValueQuery(Band(**db, 0.0, 0.02));
  EXPECT_EQ(narrow.kind, PlanKind::kIndexedFilter);
  EXPECT_LT(narrow.index_cost_ms, narrow.scan_cost_ms);
  EXPECT_DOUBLE_EQ(narrow.predicted_cost_ms, narrow.index_cost_ms);

  const PhysicalPlan wide = (*db)->PlanValueQuery(Band(**db, 0.05, 0.95));
  EXPECT_EQ(wide.kind, PlanKind::kFusedScan);
  EXPECT_GE(wide.index_cost_ms, wide.scan_cost_ms);
  EXPECT_DOUBLE_EQ(wide.predicted_cost_ms, wide.scan_cost_ms);

  // In auto mode the chosen cost is the cheaper alternative, always.
  for (const double hi : {0.01, 0.1, 0.3, 0.6, 0.9}) {
    const PhysicalPlan plan = (*db)->PlanValueQuery(Band(**db, 0.0, hi));
    EXPECT_DOUBLE_EQ(plan.predicted_cost_ms,
                     std::min(plan.scan_cost_ms, plan.index_cost_ms));
    EXPECT_FALSE(plan.reason.empty());
  }
}

TEST(PlannerTest, PlanningIsPureOfExecutionState) {
  auto dem = MakeDem(6);
  ASSERT_TRUE(dem.ok());
  auto db = MakeDb(*dem, IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());
  const ValueInterval band = Band(**db, 0.1, 0.4);

  const PhysicalPlan before = (*db)->PlanValueQuery(band);
  // Execute queries to warm the buffer pool and bump every counter the
  // planner must NOT consult.
  for (int i = 0; i < 3; ++i) {
    QueryStats qs;
    ASSERT_TRUE(CountOne(**db, band, &qs).ok());
  }
  const PhysicalPlan after = (*db)->PlanValueQuery(band);

  EXPECT_EQ(before.kind, after.kind);
  EXPECT_EQ(before.predicted_candidates, after.predicted_candidates);
  EXPECT_EQ(before.predicted_runs, after.predicted_runs);
  EXPECT_DOUBLE_EQ(before.scan_cost_ms, after.scan_cost_ms);
  EXPECT_DOUBLE_EQ(before.index_cost_ms, after.index_cost_ms);
  EXPECT_EQ(before.reason, after.reason);
}

TEST(PlannerTest, ConcurrentAutoPlanningIsDeterministic) {
  auto dem = MakeDem(6);
  ASSERT_TRUE(dem.ok());
  auto db = MakeDb(*dem, IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());

  std::vector<ValueInterval> queries;
  for (const double width : {0.005, 0.05, 0.3, 0.8}) {
    queries.push_back(Band(**db, 0.1, 0.1 + width));
  }
  std::vector<PlanKind> baseline;
  for (const ValueInterval& q : queries) {
    baseline.push_back((*db)->PlanValueQuery(q).kind);
  }

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      QueryContext ctx;
      for (size_t i = 0; i < queries.size(); ++i) {
        if ((*db)->PlanValueQuery(queries[i]).kind != baseline[i]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        QueryStats qs;
        if (!CountOne(**db, queries[i], &qs, &ctx).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(PlannerTest, HullOfIntersectingBandsNeverCostsMoreThanBoth) {
  // Why shared-scan admission is the overlap test alone (DESIGN.md §17):
  // for intersecting bands a and b the hull is a ∪ b, so its candidates
  // are the union of theirs, its fetch reads the union of their pages
  // with no more seeks, its descent is subadditive and the scan cost is
  // one constant. Sharing one sweep is never priced above running both.
  auto dem = MakeDem(8);
  ASSERT_TRUE(dem.ok());
  for (const IndexMethod method :
       {IndexMethod::kLinearScan, IndexMethod::kIAll, IndexMethod::kIHilbert,
        IndexMethod::kIntervalQuadtree, IndexMethod::kRowIp}) {
    SCOPED_TRACE(IndexMethodName(method));
    auto db = MakeDb(*dem, method);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    std::vector<ValueInterval> bands;
    for (const double width : {0.002, 0.02, 0.1, 0.4}) {
      for (const double lo : {0.0, 0.05, 0.3, 0.55, 0.9}) {
        bands.push_back(Band(**db, lo, std::min(lo + width, 1.0)));
      }
    }
    const QueryPlanner& planner = (*db)->planner();
    for (const PlannerMode mode : {PlannerMode::kAuto, PlannerMode::kForceScan,
                                   PlannerMode::kForceIndex}) {
      std::vector<double> alone_ms;
      for (const ValueInterval& band : bands) {
        alone_ms.push_back(planner.Plan(band, mode).predicted_cost_ms);
      }
      for (size_t i = 0; i < bands.size(); ++i) {
        for (size_t j = i; j < bands.size(); ++j) {
          if (!bands[i].Intersects(bands[j])) continue;
          const ValueInterval hull = ValueInterval::Hull(bands[i], bands[j]);
          EXPECT_LE(planner.Plan(hull, mode).predicted_cost_ms,
                    alone_ms[i] + alone_ms[j])
              << PlannerModeName(mode) << " " << bands[i].ToString() << " + "
              << bands[j].ToString();
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The differential suite: for every index method and a selectivity
// sweep from ~0.1% to 90%, the plan the planner picks must return
// bit-identical answers to both forced plans, and its I/O must match
// the forced plan of the same kind.

class DifferentialTest : public ::testing::TestWithParam<IndexMethod> {};

TEST_P(DifferentialTest, AutoMatchesBothForcedPlansAcrossSelectivities) {
  const IndexMethod method = GetParam();
  auto dem = MakeDem(6);
  ASSERT_TRUE(dem.ok());
  auto db = MakeDb(*dem, method);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  std::vector<ValueInterval> queries;
  for (const double width : {0.001, 0.01, 0.05, 0.2, 0.5, 0.9}) {
    for (const double lo : {0.0, 0.35, 0.7}) {
      const double hi = std::min(lo + width, 1.0);
      queries.push_back(Band(**db, lo, hi));
    }
  }

  const auto run = [&](const ValueInterval& q, PlannerMode mode) {
    (*db)->set_planner_mode(mode);
    ValueQueryResult r;
    EXPECT_TRUE(QueryOne(**db, q, &r).ok()) << PlannerModeName(mode);
    return r;
  };

  for (const ValueInterval& q : queries) {
    (*db)->set_planner_mode(PlannerMode::kAuto);
    const PhysicalPlan plan = (*db)->PlanValueQuery(q);
    const ValueQueryResult chosen = run(q, PlannerMode::kAuto);
    const ValueQueryResult scan = run(q, PlannerMode::kForceScan);
    const ValueQueryResult index = run(q, PlannerMode::kForceIndex);

    // Bit-identical answers: both pipelines visit the matching cells in
    // ascending store order, so even the piece order and the area sum
    // agree exactly — no tolerance.
    EXPECT_EQ(chosen.stats.answer_cells, scan.stats.answer_cells);
    EXPECT_EQ(chosen.stats.answer_cells, index.stats.answer_cells);
    EXPECT_EQ(chosen.region.NumPieces(), scan.region.NumPieces());
    EXPECT_EQ(chosen.region.NumPieces(), index.region.NumPieces());
    EXPECT_EQ(chosen.region.TotalArea(), scan.region.TotalArea());
    EXPECT_EQ(chosen.region.TotalArea(), index.region.TotalArea());

    // The indexed filter may pass false positives; the fused scan's
    // candidate test is exact — so scan candidates bound index
    // candidates from below, and both bound the answers.
    EXPECT_LE(scan.stats.candidate_cells, index.stats.candidate_cells);
    EXPECT_GE(scan.stats.candidate_cells, scan.stats.answer_cells);

    // IoStats-consistent: logical reads are a pure function of the plan
    // kind, so the auto run must read exactly what the forced run of
    // its chosen kind reads.
    const ValueQueryResult& same_kind =
        plan.kind == PlanKind::kFusedScan ? scan : index;
    EXPECT_EQ(chosen.stats.io.logical_reads, same_kind.stats.io.logical_reads)
        << PlanKindName(plan.kind);

    // The probe predicts the filter's output exactly for every indexed
    // method (subfield table walk or zone-map sweep).
    if (method != IndexMethod::kLinearScan) {
      EXPECT_EQ(plan.predicted_candidates, index.stats.candidate_cells);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, DifferentialTest,
                         ::testing::Values(IndexMethod::kLinearScan,
                                           IndexMethod::kIAll,
                                           IndexMethod::kIHilbert,
                                           IndexMethod::kIntervalQuadtree,
                                           IndexMethod::kRowIp),
                         [](const ::testing::TestParamInfo<IndexMethod>& info) {
                           // gtest names allow no '-' (I-Hilbert etc.).
                           std::string name = IndexMethodName(info.param);
                           name.erase(std::remove(name.begin(), name.end(), '-'),
                                      name.end());
                           return name;
                         });

}  // namespace
}  // namespace fielddb
