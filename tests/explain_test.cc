// Tests for the per-query trace spans (obs/trace.h threaded through
// FieldDatabase) and the EXPLAIN path. The load-bearing invariants:
// span I/O deltas sum exactly to the query's IoStats, and the EXPLAIN
// subfield list agrees with what the filter actually produced.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/field_database.h"
#include "gen/fractal.h"
#include "obs/trace.h"

namespace fielddb {
namespace {

StatusOr<GridField> MakeDem() {
  FractalOptions options;
  options.size_exp = 6;  // 64x64 = 4096 cells
  options.roughness_h = 0.7;
  options.seed = 20020613;
  return MakeFractalField(options);
}

StatusOr<std::unique_ptr<FieldDatabase>> MakeDb(IndexMethod method) {
  StatusOr<GridField> dem = MakeDem();
  if (!dem.ok()) return dem.status();
  FieldDatabaseOptions options;
  options.method = method;
  options.build_spatial_index = false;
  return FieldDatabase::Build(*dem, options);
}

ValueInterval MidBand(const FieldDatabase& db, double lo_frac,
                      double hi_frac) {
  const ValueInterval& vr = db.value_range();
  const double span = vr.max - vr.min;
  return ValueInterval{vr.min + lo_frac * span, vr.min + hi_frac * span};
}

TEST(TraceTest, ScopedSpanIsNoOpWithoutTrace) {
  IoStats io;
  ScopedSpan span(nullptr, "filter", &io);
  span.set_items(5);
  span.Finish();  // must not crash or dereference anything
}

TEST(TraceTest, SpanIoDeltasSumToQueryIo) {
  auto db = MakeDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Pin the indexed pipeline: this test asserts its exact span list.
  (*db)->set_planner_mode(PlannerMode::kForceIndex);
  const ValueInterval band = MidBand(**db, 0.30, 0.45);

  QueryStats qs;
  ASSERT_TRUE((*db)->TracedValueQueryStats(band, &qs).ok());
  ASSERT_NE(qs.trace, nullptr);

  // The indexed pipeline records planning plus its three phases, in
  // order.
  ASSERT_EQ(qs.trace->spans().size(), 4u);
  EXPECT_EQ(qs.trace->spans()[0].name, "plan");
  EXPECT_EQ(qs.trace->spans()[1].name, "filter");
  EXPECT_EQ(qs.trace->spans()[2].name, "fetch");
  EXPECT_EQ(qs.trace->spans()[3].name, "estimate");

  // Planning never touches pages: its cost inputs are the subfield
  // table / zone-map sidecar, both in memory.
  EXPECT_EQ(qs.trace->spans()[0].io.logical_reads, 0u);

  // Phase I/O deltas account for the query's I/O exactly: the spans are
  // contiguous and nothing else touches the pool in between.
  const IoStats total = qs.trace->TotalIo();
  EXPECT_EQ(total.logical_reads, qs.io.logical_reads);
  EXPECT_EQ(total.physical_reads, qs.io.physical_reads);
  EXPECT_EQ(total.sequential_reads, qs.io.sequential_reads);

  // The estimation phase is pure computation.
  const TraceSpan* estimate = qs.trace->Find("estimate");
  ASSERT_NE(estimate, nullptr);
  EXPECT_EQ(estimate->io.logical_reads, 0u);
  EXPECT_EQ(estimate->items, qs.answer_cells);

  const TraceSpan* filter = qs.trace->Find("filter");
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->items, qs.candidate_cells);

  // Span wall times are disjoint pieces of the query wall time.
  EXPECT_LE(qs.trace->TotalWallSeconds(), qs.wall_seconds + 1e-9);

  // Renderings exist and mention every phase.
  const std::string text = qs.trace->ToString();
  const std::string json = qs.trace->ToJson();
  for (const char* phase : {"filter", "fetch", "estimate"}) {
    EXPECT_NE(text.find(phase), std::string::npos) << phase;
    EXPECT_NE(json.find(phase), std::string::npos) << phase;
  }
}

TEST(TraceTest, LinearScanTracesFusedPipeline) {
  auto db = MakeDb(IndexMethod::kLinearScan);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  QueryStats qs;
  ASSERT_TRUE(
      (*db)->TracedValueQueryStats(MidBand(**db, 0.3, 0.5), &qs).ok());
  ASSERT_NE(qs.trace, nullptr);
  // No index: no filter phase, just plan + the fused scan + estimation
  // split.
  EXPECT_EQ(qs.trace->Find("filter"), nullptr);
  ASSERT_NE(qs.trace->Find("plan"), nullptr);
  ASSERT_NE(qs.trace->Find("fetch"), nullptr);
  ASSERT_NE(qs.trace->Find("estimate"), nullptr);
  EXPECT_EQ(qs.trace->TotalIo().logical_reads, qs.io.logical_reads);
}

TEST(ExplainTest, SubfieldListMatchesActualCandidates) {
  auto db = MakeDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // The subfield annotations describe the indexed filter's output, so
  // pin that plan (auto may prefer the fused scan for this band).
  (*db)->set_planner_mode(PlannerMode::kForceIndex);
  const ValueInterval band = MidBand(**db, 0.40, 0.55);

  FieldDatabase::ExplainResult explain;
  ASSERT_TRUE((*db)->ExplainValueQuery(band, &explain).ok());
  EXPECT_EQ(explain.method, IndexMethod::kIHilbert);
  EXPECT_EQ(explain.chosen_plan, PlanKind::kIndexedFilter);
  EXPECT_FALSE(explain.planner_reason.empty());
  EXPECT_GT(explain.predicted_cost_ms, 0.0);
  EXPECT_DOUBLE_EQ(explain.predicted_cost_ms,
                   explain.predicted_index_cost_ms);
  ASSERT_NE(explain.stats.trace, nullptr);
  ASSERT_FALSE(explain.subfields.empty());

  // I-Hilbert's candidates are exactly the cells of the touched
  // subfields, and `matching_cells` applies the same intersection test
  // the estimation step applies — so the sums must agree with the
  // executed query's stats.
  uint64_t cells = 0;
  uint64_t matching = 0;
  for (const FieldDatabase::ExplainSubfield& sf : explain.subfields) {
    ASSERT_LT(sf.start, sf.end);
    EXPECT_EQ(sf.cells, sf.end - sf.start);
    EXPECT_LE(sf.matching_cells, sf.cells);
    EXPECT_TRUE(sf.interval.Intersects(band));
    cells += sf.cells;
    matching += sf.matching_cells;
  }
  EXPECT_EQ(cells, explain.stats.candidate_cells);
  EXPECT_EQ(matching, explain.stats.answer_cells);

  // Derived quantities are consistent with the stats.
  const double expected_fp =
      static_cast<double>(explain.stats.candidate_cells -
                          explain.stats.answer_cells) /
      static_cast<double>(explain.stats.candidate_cells);
  EXPECT_DOUBLE_EQ(explain.false_positive_ratio, expected_fp);
  EXPECT_EQ(explain.rtree_height, (*db)->build_info().tree_height);
  EXPECT_GE(explain.rtree_nodes_visited, 1u);
  EXPECT_GE(explain.est_disk_ms, 0.0);

  const std::string text = explain.ToString();
  EXPECT_NE(text.find("EXPLAIN"), std::string::npos);
  EXPECT_NE(text.find("subfields touched"), std::string::npos);
  EXPECT_NE(text.find("filter"), std::string::npos);
  EXPECT_NE(text.find("plan: indexed_filter"), std::string::npos);
  const std::string json = explain.ToJson();
  EXPECT_NE(json.find("\"method\":\"I-Hilbert\""), std::string::npos)
      << json.substr(0, 200);
  EXPECT_NE(json.find("\"subfields\":["), std::string::npos);
  EXPECT_NE(json.find("\"trace\":"), std::string::npos);
  EXPECT_NE(json.find("\"plan\":{\"chosen\":\"indexed_filter\""),
            std::string::npos);
}

TEST(ExplainTest, LinearScanHasNoSubfields) {
  auto db = MakeDb(IndexMethod::kLinearScan);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  FieldDatabase::ExplainResult explain;
  ASSERT_TRUE(
      (*db)->ExplainValueQuery(MidBand(**db, 0.3, 0.5), &explain).ok());
  EXPECT_TRUE(explain.subfields.empty());
  EXPECT_EQ(explain.rtree_nodes_visited, 0u);
  ASSERT_NE(explain.stats.trace, nullptr);
  EXPECT_NE(explain.stats.trace->Find("fetch"), nullptr);
}

TEST(ExplainTest, CountsInsideAndCutCells) {
  auto db = MakeDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // A band spanning the whole value range holds every cell's interval.
  FieldDatabase::ExplainResult whole;
  ASSERT_TRUE((*db)->ExplainValueQuery((*db)->value_range(), &whole).ok());
  EXPECT_EQ(whole.stats.answer_cells, 64u * 64u);  // every cell of the DEM
  EXPECT_EQ(whole.stats.inside_cells, whole.stats.answer_cells);

  // A narrow band cuts cells; some lie inside it.
  const ValueInterval band = MidBand(**db, 0.40, 0.50);
  FieldDatabase::ExplainResult narrow;
  ASSERT_TRUE((*db)->ExplainValueQuery(band, &narrow).ok());
  EXPECT_GT(narrow.stats.inside_cells, 0u);
  EXPECT_LT(narrow.stats.inside_cells, narrow.stats.answer_cells);

  // EXPLAIN counts without building the region; the region path books
  // the same inside cells.
  ValueQueryResult result;
  ASSERT_TRUE((*db)->ValueQuery(band, &result).ok());
  EXPECT_EQ(result.stats.inside_cells, narrow.stats.inside_cells);

  const uint64_t cut = narrow.stats.answer_cells - narrow.stats.inside_cells;
  const std::string text = narrow.ToString();
  EXPECT_NE(text.find("(inside=" + std::to_string(narrow.stats.inside_cells) +
                      " cut=" + std::to_string(cut) + ")"),
            std::string::npos)
      << text;
  const std::string json = narrow.ToJson();
  EXPECT_NE(json.find("\"inside_cells\":" +
                      std::to_string(narrow.stats.inside_cells) +
                      ",\"cut_cells\":" + std::to_string(cut)),
            std::string::npos)
      << json.substr(0, 300);
}

TEST(ExplainTest, EmptyIntervalRejected) {
  auto db = MakeDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  FieldDatabase::ExplainResult explain;
  const Status s =
      (*db)->ExplainValueQuery(ValueInterval{1.0, 0.0}, &explain);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Regression: the result's method must reflect the database even on a
  // failed explain — the struct default (kLinearScan) used to leak
  // through because validation ran before the result was stamped.
  EXPECT_EQ(explain.method, IndexMethod::kIHilbert);
}

TEST(ExplainTest, ReportsAdaptivePlanChoice) {
  auto db = MakeDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // A band covering nearly the whole value range: candidates ~ the
  // entire store, so the fused scan must win on the disk model (the
  // indexed plan pays the same pages plus tree seeks).
  FieldDatabase::ExplainResult wide;
  ASSERT_TRUE((*db)->ExplainValueQuery(MidBand(**db, 0.01, 0.99), &wide).ok());
  EXPECT_EQ(wide.chosen_plan, PlanKind::kFusedScan);
  EXPECT_DOUBLE_EQ(wide.predicted_cost_ms, wide.predicted_scan_cost_ms);
  // The fused scan never consulted the subfield table, so EXPLAIN must
  // not annotate subfields the executed plan didn't touch.
  EXPECT_TRUE(wide.subfields.empty());
  ASSERT_NE(wide.stats.trace, nullptr);
  EXPECT_NE(wide.stats.trace->Find("plan"), nullptr);
  EXPECT_EQ(wide.stats.trace->Find("filter"), nullptr);

  // A sliver at the bottom of the range: few candidates, the indexed
  // filter+fetch must undercut reading every page. This needs a store
  // big enough for a crossover to exist at all — on the 4096-cell DEM
  // above, the whole scan costs less than three disk seeks, so the
  // planner (correctly) never picks the index there.
  FractalOptions fo;
  fo.size_exp = 8;  // 256x256 = 65536 cells
  fo.roughness_h = 0.7;
  fo.seed = 20020613;
  auto big_dem = MakeFractalField(fo);
  ASSERT_TRUE(big_dem.ok());
  FieldDatabaseOptions options;
  options.method = IndexMethod::kIHilbert;
  options.build_spatial_index = false;
  auto big = FieldDatabase::Build(*big_dem, options);
  ASSERT_TRUE(big.ok());

  FieldDatabase::ExplainResult narrow;
  ASSERT_TRUE(
      (*big)->ExplainValueQuery(MidBand(**big, 0.0, 0.02), &narrow).ok());
  EXPECT_EQ(narrow.chosen_plan, PlanKind::kIndexedFilter);
  EXPECT_DOUBLE_EQ(narrow.predicted_cost_ms, narrow.predicted_index_cost_ms);
  EXPECT_LT(narrow.predicted_index_cost_ms, narrow.predicted_scan_cost_ms);
  ASSERT_NE(narrow.stats.trace, nullptr);
  EXPECT_NE(narrow.stats.trace->Find("filter"), nullptr);
}

}  // namespace
}  // namespace fielddb
