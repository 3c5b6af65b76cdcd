// SloTracker tests: classification ladder, error-budget and burn-rate
// math (pinned with hand-computed values), failures that miss their
// objective through the QueryExecutor and the ShardRouter, and the
// QueryExecutor integration that classifies real queries by
// selectivity width.

#include "obs/slo.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/field_database.h"
#include "core/query_executor.h"
#include "core/shard_router.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "obs/metrics.h"

namespace fielddb {
namespace {

// SloTracker registers "slo.<class>.latency_ms" histograms in the
// default registry, and instruments are pointer-stable per name — so
// each test uses its own class names to keep latency distributions
// from bleeding across tests in this binary.
class SloTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::set_enabled(true); }
};

std::vector<SloObjective> OneClass(const std::string& name, double target_ms,
                                   double target_fraction) {
  SloObjective o;
  o.query_class = name;
  o.max_width_frac = std::numeric_limits<double>::infinity();
  o.target_ms = target_ms;
  o.target_fraction = target_fraction;
  return {o};
}

TEST_F(SloTest, DefaultLadderClassification) {
  SloTracker tracker(SloTracker::DefaultQueryClasses());
  ASSERT_EQ(tracker.num_classes(), 3);
  EXPECT_EQ(tracker.objective(0).query_class, "point");
  EXPECT_EQ(tracker.objective(1).query_class, "narrow");
  EXPECT_EQ(tracker.objective(2).query_class, "wide");

  EXPECT_EQ(tracker.ClassForWidthFraction(0.0), 0);
  EXPECT_EQ(tracker.ClassForWidthFraction(0.0005), 0);
  EXPECT_EQ(tracker.ClassForWidthFraction(0.001), 0);  // bound inclusive
  EXPECT_EQ(tracker.ClassForWidthFraction(0.01), 1);
  EXPECT_EQ(tracker.ClassForWidthFraction(0.02), 1);
  EXPECT_EQ(tracker.ClassForWidthFraction(0.5), 2);
  EXPECT_EQ(tracker.ClassForWidthFraction(1.0), 2);  // catch-all
}

TEST_F(SloTest, ErrorBudgetMath) {
  // target: 90% under 100ms → allowed violation fraction 0.1.
  SloTracker tracker(OneClass("ebm", 100.0, 0.9));
  for (int i = 0; i < 9; ++i) tracker.Record(0, 10.0);
  tracker.Record(0, 200.0);  // 1 violation in 10

  auto snap = tracker.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].query_class, "ebm");
  EXPECT_EQ(snap[0].total, 10u);
  EXPECT_EQ(snap[0].violations, 1u);
  EXPECT_DOUBLE_EQ(snap[0].compliance, 0.9);
  // Violation fraction exactly equals the allowance: budget spent.
  EXPECT_NEAR(snap[0].error_budget_remaining, 0.0, 1e-12);

  // Ten more queries, six violations: lifetime violation fraction
  // 7/20 = 0.35 → budget remaining 1 - 0.35/0.1 = -2.5 (SLO blown).
  for (int i = 0; i < 4; ++i) tracker.Record(0, 10.0);
  for (int i = 0; i < 6; ++i) tracker.Record(0, 500.0);
  snap = tracker.Snapshot();
  EXPECT_EQ(snap[0].total, 20u);
  EXPECT_EQ(snap[0].violations, 7u);
  EXPECT_DOUBLE_EQ(snap[0].compliance, 0.65);
  EXPECT_NEAR(snap[0].error_budget_remaining, -2.5, 1e-12);
}

TEST_F(SloTest, PerfectComplianceKeepsFullBudget) {
  SloTracker tracker(OneClass("clean", 50.0, 0.99));
  for (int i = 0; i < 100; ++i) tracker.Record(0, 1.0);
  const auto snap = tracker.Snapshot();
  EXPECT_DOUBLE_EQ(snap[0].compliance, 1.0);
  EXPECT_DOUBLE_EQ(snap[0].error_budget_remaining, 1.0);
  EXPECT_DOUBLE_EQ(snap[0].burn_rate, 0.0);
}

TEST_F(SloTest, BurnRateCoversTheWindowSincePreviousSnapshot) {
  // Allowed fraction 0.1: burning at exactly the sustainable pace is
  // burn_rate 1.0, five violations out of ten in a window is 5.0.
  SloTracker tracker(OneClass("burn", 100.0, 0.9));

  for (int i = 0; i < 9; ++i) tracker.Record(0, 1.0);
  tracker.Record(0, 300.0);
  auto snap = tracker.Snapshot();  // window = everything so far
  EXPECT_NEAR(snap[0].burn_rate, 1.0, 1e-12);

  for (int i = 0; i < 5; ++i) tracker.Record(0, 1.0);
  for (int i = 0; i < 5; ++i) tracker.Record(0, 300.0);
  snap = tracker.Snapshot();  // window = the ten queries since above
  EXPECT_NEAR(snap[0].burn_rate, 5.0, 1e-12);

  snap = tracker.Snapshot();  // empty window
  EXPECT_DOUBLE_EQ(snap[0].burn_rate, 0.0);
  // Lifetime numbers are unaffected by the windowing.
  EXPECT_EQ(snap[0].total, 20u);
  EXPECT_EQ(snap[0].violations, 6u);
}

TEST_F(SloTest, LatencyPercentilesRideTheHdrHistograms) {
  SloTracker tracker(OneClass("lat", 100.0, 0.99));
  for (int i = 0; i < 900; ++i) tracker.Record(0, 4.0);
  for (int i = 0; i < 100; ++i) tracker.Record(0, 20.0);
  const auto snap = tracker.Snapshot();
  EXPECT_DOUBLE_EQ(snap[0].p50_ms, 4.0);  // exact sub-32 bucket
  EXPECT_NEAR(snap[0].p99_ms, 20.0, 20.0 * 0.04);
  EXPECT_DOUBLE_EQ(snap[0].max_ms, 20.0);
}

TEST_F(SloTest, ToJsonCarriesSchemaAndClasses) {
  SloTracker tracker(OneClass("json", 100.0, 0.99));
  tracker.Record(0, 1.0);
  const std::string json = tracker.ToJson();
  EXPECT_NE(json.find("\"schema\": \"fielddb-slo-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"json\""), std::string::npos);
  EXPECT_NE(json.find("\"error_budget_remaining\""), std::string::npos);
  EXPECT_NE(json.find("\"burn_rate\""), std::string::npos);
}

TEST_F(SloTest, FailureMissesTheObjectiveWithoutALatencySample) {
  SloTracker tracker(OneClass("fail", 100.0, 0.9));
  const Histogram* latency =
      MetricsRegistry::Default().GetHistogram("slo.fail.latency_ms");
  const uint64_t samples_before = latency->count();
  tracker.Record(0, 1.0);
  tracker.RecordFailure(ValueInterval{0.0, 1.0}, ValueInterval{0.2, 0.4});
  const auto snap = tracker.Snapshot();
  EXPECT_EQ(snap[0].total, 2u);
  EXPECT_EQ(snap[0].violations, 1u);
  EXPECT_EQ(latency->count() - samples_before, 1u);
}

StatusOr<GridField> MakeSmallField() {
  FractalOptions fo;
  fo.size_exp = 5;
  fo.seed = 13;
  return MakeFractalField(fo);
}

TEST_F(SloTest, FailedQueriesMissTheirObjectiveThroughTheExecutor) {
  auto field = MakeSmallField();
  ASSERT_TRUE(field.ok());
  auto db = FieldDatabase::Build(*field);
  ASSERT_TRUE(db.ok());
  // An objective every answered query meets: only failures violate it.
  SloTracker slo(OneClass("exec_fail", 1e12, 0.99));
  QueryExecutor::Options eo;
  eo.threads = 1;
  eo.slo = &slo;
  QueryExecutor executor(db->get(), eo);
  const ValueInterval range = (*db)->value_range();
  std::vector<ValueInterval> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(range);
    queries.push_back(ValueInterval::Empty());
  }
  QueryExecutor::BatchResult result;
  EXPECT_EQ(executor.RunBatch(queries, &result).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(result.failed, 10u);
  const auto snap = slo.Snapshot();
  EXPECT_EQ(snap[0].total, 20u);
  EXPECT_EQ(snap[0].violations, 10u);
}

TEST_F(SloTest, RefusedRequestsMissTheirObjectiveThroughTheRouter) {
  auto field = MakeSmallField();
  ASSERT_TRUE(field.ok());
  ShardRouterOptions ro;
  ro.shards = 2;
  auto router = ShardRouter::Build(*field, ro);
  ASSERT_TRUE(router.ok());
  const auto totals = [&] {
    std::pair<uint64_t, uint64_t> sum{0, 0};
    for (const auto& cls : (*router)->slo().Snapshot()) {
      sum.first += cls.total;
      sum.second += cls.violations;
    }
    return sum;
  };
  const auto [total_before, violations_before] = totals();
  const ValueInterval range = (*router)->value_range();
  // An empty band above every shard's hull, refused alone and as one
  // member of three: every band of a refused request misses.
  const ValueInterval empty{range.max + 2.0, range.max + 1.0};
  for (int i = 0; i < 10; ++i) {
    ValueQueryResult result;
    EXPECT_EQ((*router)->Query({.bands = {&empty, 1}}, {&result, 1}).code(),
              StatusCode::kInvalidArgument);
  }
  const std::vector<ValueInterval> bands = {range, empty, range};
  std::vector<ValueQueryResult> results(bands.size());
  EXPECT_EQ((*router)->Query({.bands = bands}, results).code(),
            StatusCode::kInvalidArgument);
  const auto [total_after, violations_after] = totals();
  EXPECT_EQ(total_after - total_before, 13u);
  EXPECT_EQ(violations_after - violations_before, 13u);
  ASSERT_TRUE((*router)->Close().ok());
}

TEST_F(SloTest, QueryExecutorClassifiesAndRecordsEveryQuery) {
  FractalOptions fo;
  fo.size_exp = 5;
  fo.seed = 13;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.build_spatial_index = false;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());

  // Exact-value queries (width 0 → "point") plus wide scans (20% of
  // the value range → "wide"); nothing lands in "narrow".
  std::vector<ValueInterval> queries;
  for (const double qf : {0.0, 0.2}) {
    WorkloadOptions wo;
    wo.qinterval_fraction = qf;
    wo.num_queries = 12;
    wo.seed = 21 + static_cast<uint64_t>(qf * 100);
    const auto qs = GenerateValueQueries((*db)->value_range(), wo);
    queries.insert(queries.end(), qs.begin(), qs.end());
  }

  SloTracker slo(SloTracker::DefaultQueryClasses());
  QueryExecutor::Options eo;
  eo.threads = 4;
  eo.slo = &slo;
  QueryExecutor executor(db->get(), eo);
  QueryExecutor::BatchResult result;
  ASSERT_TRUE(executor.RunBatch(queries, &result).ok());
  EXPECT_EQ(result.per_query.size(), queries.size());

  uint64_t total = 0, point = 0, wide = 0;
  for (const auto& cls : slo.Snapshot()) {
    total += cls.total;
    if (cls.query_class == "point") point = cls.total;
    if (cls.query_class == "wide") wide = cls.total;
  }
  // Every completed query was classified exactly once, and both ends
  // of the width spectrum hit their intended class.
  EXPECT_EQ(total, static_cast<uint64_t>(queries.size()));
  EXPECT_EQ(point, 12u);
  EXPECT_EQ(wide, 12u);
}

}  // namespace
}  // namespace fielddb
