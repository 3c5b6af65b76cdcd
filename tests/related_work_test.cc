// Tests for the Section 2.3 related-work baselines: the main-memory
// interval tree [5] and the per-row IP-index [18, 19].

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/noise_tin.h"
#include "gen/workload.h"
#include "index/interval_tree.h"
#include "index/row_ip_index.h"
#include "storage/page_file.h"
#include "query_util.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

// Candidate runs expanded to individual positions for set comparisons.
std::vector<uint64_t> FilterPositions(const ValueIndex& index,
                                      const ValueInterval& q) {
  std::vector<PosRange> ranges;
  EXPECT_TRUE(index.FilterCandidateRanges(q, &ranges).ok());
  std::vector<uint64_t> positions;
  for (const PosRange& r : ranges) {
    for (uint64_t pos = r.begin; pos < r.end; ++pos) {
      positions.push_back(pos);
    }
  }
  return positions;
}

std::vector<IntervalTree::Item> RandomItems(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<IntervalTree::Item> items(n);
  for (int i = 0; i < n; ++i) {
    const double lo = rng.NextDouble(-10, 10);
    items[i].interval = ValueInterval{lo, lo + rng.NextDouble(0, 3)};
    items[i].payload = i;
  }
  return items;
}

TEST(IntervalTreeTest, EmptyTree) {
  IntervalTree tree = IntervalTree::Build({});
  EXPECT_EQ(tree.size(), 0u);
  std::vector<uint64_t> hits;
  tree.Stab(0.0, &hits);
  tree.Query(ValueInterval{0, 1}, &hits);
  EXPECT_TRUE(hits.empty());
}

TEST(IntervalTreeTest, StabMatchesBruteForce) {
  const auto items = RandomItems(500, 3);
  IntervalTree tree = IntervalTree::Build(items);
  EXPECT_EQ(tree.size(), 500u);
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    const double w = rng.NextDouble(-11, 12);
    std::vector<uint64_t> got;
    tree.Stab(w, &got);
    std::vector<uint64_t> expected;
    for (const auto& item : items) {
      if (item.interval.Contains(w)) expected.push_back(item.payload);
    }
    ASSERT_EQ(got, expected) << "w=" << w;
  }
}

TEST(IntervalTreeTest, QueryMatchesBruteForce) {
  const auto items = RandomItems(800, 7);
  IntervalTree tree = IntervalTree::Build(items);
  Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    const ValueInterval q = ValueInterval::Of(rng.NextDouble(-11, 12),
                                              rng.NextDouble(-11, 12));
    std::vector<uint64_t> got;
    tree.Query(q, &got);
    std::vector<uint64_t> expected;
    for (const auto& item : items) {
      if (item.interval.Intersects(q)) expected.push_back(item.payload);
    }
    ASSERT_EQ(got, expected);
  }
}

TEST(IntervalTreeTest, DegenerateIntervalsAndStabAtCenter) {
  std::vector<IntervalTree::Item> items = {
      {{1, 1}, 0}, {{1, 1}, 1}, {{0, 2}, 2}, {{2, 3}, 3}};
  IntervalTree tree = IntervalTree::Build(items);
  std::vector<uint64_t> hits;
  tree.Stab(1.0, &hits);
  EXPECT_EQ(hits, (std::vector<uint64_t>{0, 1, 2}));
  hits.clear();
  tree.Query(ValueInterval{1, 2}, &hits);
  EXPECT_EQ(hits, (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(IntervalTreeTest, MemoryScalesWithSize) {
  // The paper's objection quantified: resident bytes grow linearly.
  const size_t small = IntervalTree::Build(RandomItems(100, 1))
                           .MemoryBytes();
  const size_t large = IntervalTree::Build(RandomItems(10000, 1))
                           .MemoryBytes();
  EXPECT_GT(large, 50 * small);
  EXPECT_GT(large, 10000 * sizeof(IntervalTree::Item));
}

TEST(RowIpIndexTest, RejectsNonGridFields) {
  NoiseTinOptions no;
  no.num_sites = 100;
  auto tin = MakeUrbanNoiseTin(no);
  ASSERT_TRUE(tin.ok());
  MemPageFile file;
  BufferPool pool(&file, 1024);
  EXPECT_FALSE(RowIpIndex::Build(&pool, *tin).ok());
}

TEST(RowIpIndexTest, CandidatesMatchGroundTruth) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  MemPageFile file;
  BufferPool pool(&file, 4096);
  auto idx = RowIpIndex::Build(&pool, *field);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ((*idx)->num_rows(), 32u);

  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.04, 25, 5});
  for (const ValueInterval& q : queries) {
    const std::vector<uint64_t> positions = FilterPositions(**idx, q);
    std::set<uint64_t> got(positions.begin(), positions.end());
    EXPECT_EQ(got.size(), positions.size());
    std::set<uint64_t> expected;
    for (CellId id = 0; id < field->NumCells(); ++id) {
      if (field->GetCell(id).Interval().Intersects(q)) {
        expected.insert(id);  // native order: position == id
      }
    }
    ASSERT_EQ(got, expected);
  }
}

TEST(RowIpIndexTest, WorksThroughFieldDatabase) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = IndexMethod::kRowIp;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());

  FieldDatabaseOptions ref_options;
  ref_options.method = IndexMethod::kLinearScan;
  auto reference = FieldDatabase::Build(*field, ref_options);
  ASSERT_TRUE(reference.ok());
  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.03, 15, 9});
  for (const ValueInterval& q : queries) {
    ValueQueryResult expected, actual;
    ASSERT_TRUE(QueryOne(**reference, q, &expected).ok());
    ASSERT_TRUE(QueryOne(**db, q, &actual).ok());
    EXPECT_NEAR(actual.region.TotalArea(), expected.region.TotalArea(),
                1e-9);
  }
  // No persistence for the baseline.
  EXPECT_EQ((*db)->Save(TestTempDir() + "/fielddb_rowip").code(),
            StatusCode::kUnimplemented);
}

TEST(RowIpIndexTest, UpdatesMaintainCorrectness) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  MemPageFile file;
  BufferPool pool(&file, 4096);
  auto idx = RowIpIndex::Build(&pool, *field);
  ASSERT_TRUE(idx.ok());

  ASSERT_TRUE((*idx)->UpdateCellValues(100, {70, 71, 72, 73}).ok());
  std::vector<uint64_t> positions =
      FilterPositions(**idx, ValueInterval{69, 74});
  ASSERT_EQ(positions.size(), 1u);
  EXPECT_EQ(positions[0], 100u);
  // And the old band no longer finds it.
  const ValueInterval old_band = field->GetCell(100).Interval();
  positions = FilterPositions(**idx, old_band);
  for (const uint64_t pos : positions) {
    EXPECT_NE(pos, 100u);
  }
}

TEST(RowIpIndexTest, TouchesMorePagesThanIHilbert) {
  // The paper's point, quantified: per-row 1-D indexing cannot group
  // across rows, so its filtering touches far more pages.
  FractalOptions fo;
  fo.size_exp = 7;
  fo.roughness_h = 0.7;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.01, 20, 11});
  const auto avg_reads = [&](IndexMethod method) {
    FieldDatabaseOptions options;
    options.method = method;
    options.build_spatial_index = false;
    // This test measures the *methods'* page-touch behavior, so pin the
    // indexed plan — in auto mode the planner would notice Row-IP's
    // directory walk is a bad deal here and route around it.
    options.planner_mode = PlannerMode::kForceIndex;
    auto db = FieldDatabase::Build(*field, options);
    EXPECT_TRUE(db.ok());
    auto ws = (*db)->RunWorkload(queries);
    EXPECT_TRUE(ws.ok());
    return ws->avg_logical_reads;
  };
  EXPECT_GT(avg_reads(IndexMethod::kRowIp),
            2 * avg_reads(IndexMethod::kIHilbert));
}

}  // namespace
}  // namespace fielddb
