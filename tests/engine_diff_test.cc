// Differential guard for the FieldEngine extraction: the grid database's
// query answers must be bit-identical across every lifecycle path the
// shared engine now hosts — fresh build vs Save/Open round trip, and
// unlimited vs bounded-memory (external-sort) build. Any drift in the
// hoisted Build/Attach/Save/Open plumbing shows up here as a workload
// mismatch.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "query_util.h"

namespace fielddb {
namespace {

void Cleanup(const std::string& prefix) {
  for (const char* suffix :
       {".pages", ".meta", ".pages.tmp", ".meta.tmp", ".wal"}) {
    std::remove((prefix + suffix).c_str());
  }
}

GridField MakeField() {
  FractalOptions fo;
  fo.size_exp = 5;  // 32x32 cells
  fo.roughness_h = 0.8;
  fo.seed = 1234;
  auto field = MakeFractalField(fo);
  EXPECT_TRUE(field.ok());
  return std::move(field).value();
}

std::vector<ValueInterval> MakeWorkload(const GridField& field) {
  std::vector<ValueInterval> queries = GenerateValueQueries(
      field.ValueRange(), WorkloadOptions{0.08, 12, 99});
  queries.push_back(ValueInterval{-1e9, 1e9});
  const ValueInterval r = field.ValueRange();
  queries.push_back(ValueInterval{r.max + 1.0, r.max + 2.0});  // empty
  return queries;
}

// Answers must match exactly: same cells, same total area, same region
// piece count — the strongest equality the result type exposes.
void ExpectSameAnswers(FieldDatabase* a, FieldDatabase* b,
                       const std::vector<ValueInterval>& queries) {
  for (const ValueInterval& q : queries) {
    SCOPED_TRACE(q.min);
    ValueQueryResult ra, rb;
    ASSERT_TRUE(QueryOne(*a, q, &ra).ok());
    ASSERT_TRUE(QueryOne(*b, q, &rb).ok());
    EXPECT_EQ(ra.stats.answer_cells, rb.stats.answer_cells);
    EXPECT_EQ(ra.region.pieces.size(), rb.region.pieces.size());
    EXPECT_DOUBLE_EQ(ra.region.TotalArea(), rb.region.TotalArea());
  }
}

class EngineDiffTest : public ::testing::TestWithParam<IndexMethod> {};

TEST_P(EngineDiffTest, ReopenedDatabaseAnswersIdentically) {
  const std::string prefix =
      ::testing::TempDir() + "/fielddb_engine_diff_" +
      std::to_string(static_cast<int>(GetParam()));
  Cleanup(prefix);
  const GridField field = MakeField();
  FieldDatabaseOptions options;
  options.method = GetParam();
  auto built = FieldDatabase::Build(field, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->Save(prefix).ok());
  auto opened = FieldDatabase::Open(prefix);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  ExpectSameAnswers(built->get(), opened->get(), MakeWorkload(field));
  Cleanup(prefix);
}

TEST_P(EngineDiffTest, BudgetedBuildAnswersIdentically) {
  const GridField field = MakeField();
  FieldDatabaseOptions options;
  options.method = GetParam();
  auto unlimited = FieldDatabase::Build(field, options);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();

  options.build_memory_budget_bytes = 2048;
  auto budgeted = FieldDatabase::Build(field, options);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();

  ExpectSameAnswers(unlimited->get(), budgeted->get(),
                    MakeWorkload(field));
}

INSTANTIATE_TEST_SUITE_P(
    PersistableMethods, EngineDiffTest,
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

}  // namespace
}  // namespace fielddb
