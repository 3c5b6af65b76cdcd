// Differential guard for the FieldEngine extraction: the grid database's
// query answers must be bit-identical across every lifecycle path the
// shared engine now hosts — fresh build vs Save/Open round trip, and
// unlimited vs bounded-memory (external-sort) build. Any drift in the
// hoisted Build/Attach/Save/Open plumbing shows up here as a workload
// mismatch. The store's layout must not show either: a grid in 40-byte
// lattice slots answers exactly as the same grid in explicit 104-byte
// CellRecords.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "query_util.h"
#include "temp_dir.h"

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
      TestTempDir() + "/fielddb_engine_diff_" +
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

// --- Lattice slots against explicit cell records ------------------------

/// Every vertex coordinate of `region`'s pieces, as bits, in order.
std::vector<uint64_t> PieceBits(const Region& region) {
  std::vector<uint64_t> bits;
  for (const ConvexPolygon& piece : region.pieces) {
    bits.push_back(piece.vertices.size());
    for (const Point2& v : piece.vertices) {
      bits.push_back(std::bit_cast<uint64_t>(v.x));
      bits.push_back(std::bit_cast<uint64_t>(v.y));
    }
  }
  return bits;
}

class LayoutDiffTest
    : public ::testing::TestWithParam<std::tuple<IndexMethod, PlannerMode>> {
};

TEST_P(LayoutDiffTest, LatticeSlotsAnswerAsExplicitCells) {
  // Same answer, inside and candidate cells and the same pieces, bit
  // for bit and in order, built and reopened. Pages are not compared: a
  // run can span more 102-slot pages than 39-slot ones. Under kAuto the
  // cheaper scans of the lattice store can move a query to the fused
  // plan, whose candidates are its zone matches, so candidates are
  // compared where both planned alike.
  const auto [method, mode] = GetParam();
  const GridField field = MakeField();
  FieldDatabaseOptions options;
  options.method = method;
  options.planner_mode = mode;
  auto lattice = FieldDatabase::Build(field, options);
  ASSERT_TRUE(lattice.ok()) << lattice.status().ToString();
  auto explicit_cells = FieldDatabase::Build(ExplicitCellsField(field), options);
  ASSERT_TRUE(explicit_cells.ok()) << explicit_cells.status().ToString();
  ASSERT_NE((*lattice)->lattice(), nullptr);
  ASSERT_EQ((*explicit_cells)->lattice(), nullptr);
  EXPECT_EQ((*lattice)->index().cell_store().cells_per_page(), 102u);
  EXPECT_EQ((*explicit_cells)->index().cell_store().cells_per_page(), 39u);

  std::vector<std::pair<std::unique_ptr<FieldDatabase>,
                        std::unique_ptr<FieldDatabase>>>
      pairs;
  pairs.emplace_back(std::move(*lattice), std::move(*explicit_cells));
  const std::string prefix = TestTempDir() + "/fielddb_layout_diff";
  if (method != IndexMethod::kRowIp) {  // Row-IP does not persist
    Cleanup(prefix + "_lattice");
    Cleanup(prefix + "_explicit");
    ASSERT_TRUE(pairs[0].first->Save(prefix + "_lattice").ok());
    ASSERT_TRUE(pairs[0].second->Save(prefix + "_explicit").ok());
    auto a = FieldDatabase::Open(prefix + "_lattice");
    auto b = FieldDatabase::Open(prefix + "_explicit");
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    (*a)->set_planner_mode(mode);
    (*b)->set_planner_mode(mode);
    pairs.emplace_back(std::move(*a), std::move(*b));
  }
  size_t same_plan = 0;
  size_t compared = 0;
  for (const auto& [a, b] : pairs) {
    for (const ValueInterval& q : MakeWorkload(field)) {
      SCOPED_TRACE(::testing::Message() << "[" << q.min << ", " << q.max
                                        << "] reopened="
                                        << (a != pairs[0].first));
      ValueQueryResult ra, rb;
      ASSERT_TRUE(QueryOne(*a, q, &ra).ok());
      ASSERT_TRUE(QueryOne(*b, q, &rb).ok());
      EXPECT_EQ(ra.stats.answer_cells, rb.stats.answer_cells);
      EXPECT_EQ(ra.stats.inside_cells, rb.stats.inside_cells);
      EXPECT_EQ(ra.stats.region_pieces, rb.stats.region_pieces);
      EXPECT_EQ(PieceBits(ra.region), PieceBits(rb.region));
      ++compared;
      if (a->PlanValueQuery(q).kind == b->PlanValueQuery(q).kind) {
        ++same_plan;
        EXPECT_EQ(ra.stats.candidate_cells, rb.stats.candidate_cells);
      }
    }
  }
  if (mode != PlannerMode::kAuto) {
    EXPECT_EQ(same_plan, compared);
  }
  EXPECT_GT(same_plan, 0u);
  Cleanup(prefix + "_lattice");
  Cleanup(prefix + "_explicit");
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsAndModes, LayoutDiffTest,
    ::testing::Combine(
        ::testing::Values(IndexMethod::kLinearScan, IndexMethod::kIAll,
                          IndexMethod::kIHilbert,
                          IndexMethod::kIntervalQuadtree, IndexMethod::kRowIp),
        ::testing::Values(PlannerMode::kAuto, PlannerMode::kForceScan,
                          PlannerMode::kForceIndex)),
    [](const auto& info) {
      std::string name = IndexMethodName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      const PlannerMode mode = std::get<1>(info.param);
      return name + (mode == PlannerMode::kAuto        ? "_Auto"
                     : mode == PlannerMode::kForceScan ? "_ForceScan"
                                                       : "_ForceIndex");
    });

}  // namespace
}  // namespace fielddb
