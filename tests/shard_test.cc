// Shard-count differential suite for the shard-per-core serving layer
// (DESIGN.md §18): the router's answers must be independent of the
// shard count — N=2/4/8 bit-identical to N=1 across every index method
// and planner mode — the merged IoStats must equal the sum of the
// per-shard contributions, and recovery must replay WAL updates that
// landed in different shards.

#include "core/shard_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "gen/fractal.h"
#include "gen/workload.h"
#include "catalog_sign.h"
#include "query_util.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

GridField MakeTestField() {
  FractalOptions fo;
  fo.size_exp = 5;  // 32x32 cells: every shard count up to 8 is honest
  fo.roughness_h = 0.4;
  auto field = MakeFractalField(fo);
  EXPECT_TRUE(field.ok());
  return *field;
}

std::vector<ValueInterval> TestQueries(const ValueInterval& range) {
  // Random workload plus the edges the random draw misses: the full
  // range, a degenerate interval, and a band outside the range (every
  // shard must be skipped and the answer must still be exact: empty).
  std::vector<ValueInterval> queries =
      GenerateValueQueries(range, WorkloadOptions{0.08, 10, 42});
  queries.push_back(range);
  queries.push_back(ValueInterval{range.min, range.min});
  queries.push_back(ValueInterval{range.max + 10.0, range.max + 11.0});
  return queries;
}

/// Canonical form of a region for order-independent comparison: every
/// piece flattened to its exact vertex doubles, pieces sorted.
std::vector<std::vector<double>> CanonicalPieces(const Region& region) {
  std::vector<std::vector<double>> pieces;
  pieces.reserve(region.pieces.size());
  for (const ConvexPolygon& poly : region.pieces) {
    std::vector<double> flat;
    flat.reserve(poly.vertices.size() * 2);
    for (const Point2& v : poly.vertices) {
      flat.push_back(v.x);
      flat.push_back(v.y);
    }
    pieces.push_back(std::move(flat));
  }
  std::sort(pieces.begin(), pieces.end());
  return pieces;
}

std::vector<std::vector<double>> ExactPieces(const Region& region) {
  std::vector<std::vector<double>> pieces;
  for (const ConvexPolygon& poly : region.pieces) {
    std::vector<double> flat;
    for (const Point2& v : poly.vertices) {
      flat.push_back(v.x);
      flat.push_back(v.y);
    }
    pieces.push_back(std::move(flat));
  }
  return pieces;
}

class ShardDifferentialTest : public ::testing::TestWithParam<IndexMethod> {};

TEST_P(ShardDifferentialTest, AnswersIdenticalAcrossShardCounts) {
  const GridField field = MakeTestField();
  const std::vector<ValueInterval> queries = TestQueries(field.ValueRange());

  // Baseline: the 1-shard router (the whole store behind one lane).
  ShardRouterOptions ro;
  ro.db.method = GetParam();
  ro.shards = 1;
  auto baseline = ShardRouter::Build(field, ro);
  ASSERT_TRUE(baseline.ok());

  for (uint32_t shards : {2u, 4u, 8u}) {
    ro.shards = shards;
    auto router = ShardRouter::Build(field, ro);
    ASSERT_TRUE(router.ok());
    ASSERT_EQ((*router)->num_shards(), shards);

    // The partition is contiguous in Hilbert-key order.
    for (uint32_t k = 0; k + 1 < shards; ++k) {
      EXPECT_LE((*router)->shard(k).descriptor().key_end,
                (*router)->shard(k + 1).descriptor().key_begin);
    }

    for (const PlannerMode mode :
         {PlannerMode::kAuto, PlannerMode::kForceScan,
          PlannerMode::kForceIndex}) {
      (*baseline)->set_planner_mode(mode);
      (*router)->set_planner_mode(mode);
      for (const ValueInterval& q : queries) {
        ValueQueryResult expected, actual;
        RouterQueryProfile profile;
        ASSERT_TRUE(QueryOne(**baseline, q, &expected).ok());
        ASSERT_TRUE(QueryOne(**router, q, &actual, &profile).ok());

        EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells)
            << IndexMethodName(GetParam()) << " " << PlannerModeName(mode)
            << " shards=" << shards << " " << q.ToString();
        EXPECT_EQ(actual.stats.region_pieces, expected.stats.region_pieces);
        EXPECT_EQ(actual.stats.inside_cells, expected.stats.inside_cells);
        // Bit-identical answers: the same pieces, down to the doubles.
        // I-Hilbert additionally guarantees the same piece ORDER — its
        // store order is the global linearization, and the gather
        // concatenates shards in linearization order.
        EXPECT_EQ(CanonicalPieces(actual.region),
                  CanonicalPieces(expected.region));
        if (GetParam() == IndexMethod::kIHilbert) {
          EXPECT_EQ(ExactPieces(actual.region), ExactPieces(expected.region));
        }

        // The merged IoStats are exactly the sum of the per-shard
        // contributions the profile reports.
        IoStats summed;
        uint64_t answer_sum = 0;
        for (const QueryStats& s : profile.per_shard) {
          summed += s.io;
          answer_sum += s.answer_cells;
        }
        EXPECT_EQ(summed.logical_reads, actual.stats.io.logical_reads);
        EXPECT_EQ(summed.physical_reads, actual.stats.io.physical_reads);
        EXPECT_EQ(answer_sum, actual.stats.answer_cells);
        EXPECT_EQ(profile.shards_touched + profile.shards_skipped, shards);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ShardDifferentialTest,
    ::testing::Values(IndexMethod::kLinearScan, IndexMethod::kIAll,
                      IndexMethod::kIHilbert,
                      IndexMethod::kIntervalQuadtree, IndexMethod::kRowIp),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](char c) { return !std::isalnum(
                                    static_cast<unsigned char>(c)); }),
                 name.end());
      return name;
    });

// The router partitions by the shards' own curve: under each ablation
// curve, two I-Hilbert shards concatenate to the one-shard store order,
// so their pieces arrive in the one-shard order, not just as the same
// set.
class ShardCurveTest : public ::testing::TestWithParam<CurveType> {};

TEST_P(ShardCurveTest, PieceOrderFollowsTheShardsCurve) {
  const GridField field = MakeTestField();
  ShardRouterOptions ro;
  ro.db.method = IndexMethod::kIHilbert;
  ro.db.ihilbert.curve = GetParam();
  ro.shards = 1;
  auto baseline = ShardRouter::Build(field, ro);
  ASSERT_TRUE(baseline.ok());
  ro.shards = 2;
  auto router = ShardRouter::Build(field, ro);
  ASSERT_TRUE(router.ok());
  for (const ValueInterval& q : TestQueries(field.ValueRange())) {
    ValueQueryResult expected, actual;
    ASSERT_TRUE(QueryOne(**baseline, q, &expected).ok());
    ASSERT_TRUE(QueryOne(**router, q, &actual).ok());
    EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
    EXPECT_EQ(ExactPieces(actual.region), ExactPieces(expected.region))
        << CurveTypeName(GetParam()) << " " << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AblationCurves, ShardCurveTest,
    ::testing::Values(CurveType::kZOrder, CurveType::kGrayCode,
                      CurveType::kRowMajor),
    [](const ::testing::TestParamInfo<CurveType>& info) {
      std::string name = CurveTypeName(info.param);
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](char c) { return !std::isalnum(
                                    static_cast<unsigned char>(c)); }),
                 name.end());
      return name;
    });

TEST(ShardRouterTest, UnknownCurveRefusedLikeOneDatabase) {
  const GridField field = MakeTestField();
  ShardRouterOptions ro;
  ro.db.ihilbert.curve = static_cast<CurveType>(9);
  EXPECT_EQ(FieldDatabase::Build(field, ro.db).status().code(),
            StatusCode::kInvalidArgument);
  ro.shards = 2;
  EXPECT_EQ(ShardRouter::Build(field, ro).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardRouterTest, OutOfRangeQuerySkipsEveryShard) {
  const GridField field = MakeTestField();
  ShardRouterOptions ro;
  ro.shards = 4;
  auto router = ShardRouter::Build(field, ro);
  ASSERT_TRUE(router.ok());

  const ValueInterval range = (*router)->value_range();
  QueryStats stats;
  RouterQueryProfile profile;
  ASSERT_TRUE(CountOne(**router,
                       ValueInterval{range.max + 1.0, range.max + 2.0},
                       &stats, &profile)
                  .ok());
  EXPECT_EQ(profile.shards_touched, 0u);
  EXPECT_EQ(profile.shards_skipped, 4u);
  EXPECT_EQ(stats.answer_cells, 0u);
  EXPECT_EQ(stats.io.logical_reads, 0u);
}

TEST(ShardRouterTest, ValueRangeIsTheShardsHull) {
  // Samples in [100, 200]: a hull folded from [0, 0] reported [0, 200].
  std::vector<double> samples;
  for (uint32_t j = 0; j <= 32; ++j) {
    for (uint32_t i = 0; i <= 32; ++i) {
      samples.push_back(100.0 + double((i * 7 + j * 13) % 101));
    }
  }
  const GridField field =
      GridField::Create(32, 32, Rect2{{0, 0}, {1, 1}}, samples).value();
  auto single = FieldDatabase::Build(field);
  ASSERT_TRUE(single.ok());
  ASSERT_EQ((*single)->value_range(), (ValueInterval{100.0, 200.0}));
  for (const uint32_t shards : {1u, 2u, 4u}) {
    ShardRouterOptions ro;
    ro.shards = shards;
    auto router = ShardRouter::Build(field, ro);
    ASSERT_TRUE(router.ok());
    EXPECT_EQ((*router)->value_range(), (*single)->value_range()) << shards;
  }
}

TEST(ShardRouterTest, RefusesWhatOneDatabaseRefuses) {
  const GridField field = MakeTestField();
  auto db = FieldDatabase::Build(field, ShardRouterOptions{}.db);
  ASSERT_TRUE(db.ok());
  const ValueInterval range = (*db)->value_range();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // An empty interval above every shard's hull (no shard receives it),
  // the canonical empty interval and a NaN bound.
  const std::vector<ValueInterval> refused = {
      ValueInterval{range.max + 2.0, range.max + 1.0},
      ValueInterval::Empty(), ValueInterval{nan, 0.5}};
  for (const uint32_t shards : {1u, 2u, 4u}) {
    ShardRouterOptions ro;
    ro.shards = shards;
    auto router = ShardRouter::Build(field, ro);
    ASSERT_TRUE(router.ok());
    for (const ValueInterval& q : refused) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " query=" << q.ToString());
      ValueQueryResult want_result, got_result;
      const Status want = QueryOne(**db, q, &want_result);
      EXPECT_EQ(want.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(QueryOne(**router, q, &got_result).code(), want.code());
      QueryStats want_stats, got_stats;
      EXPECT_EQ(CountOne(**router, q, &got_stats).code(),
                CountOne(**db, q, &want_stats).code());
      // One refused member refuses the whole shared batch.
      const std::vector<ValueInterval> batch = {range, q, range};
      std::vector<QueryStats> want_shared, got_shared;
      EXPECT_EQ(CountShared(**router, batch, &got_shared).code(),
                CountShared(**db, batch, &want_shared).code());
    }
  }
}

TEST(ShardRouterTest, SharedScanMatchesIsolatedExecution) {
  const GridField field = MakeTestField();
  ShardRouterOptions ro;
  ro.shards = 4;
  auto router = ShardRouter::Build(field, ro);
  ASSERT_TRUE(router.ok());

  // Overlapping wide members so the per-shard cost aggregation actually
  // fuses some groups.
  const std::vector<ValueInterval> members =
      GenerateValueQueries((*router)->value_range(),
                           WorkloadOptions{0.5, 8, 7});
  std::vector<QueryStats> shared;
  ASSERT_TRUE(CountShared(**router, members, &shared).ok());
  ASSERT_EQ(shared.size(), members.size());

  uint64_t shared_logical = 0;
  uint64_t isolated_logical = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    QueryStats isolated;
    ASSERT_TRUE(CountOne(**router, members[i], &isolated).ok());
    EXPECT_EQ(shared[i].answer_cells, isolated.answer_cells)
        << members[i].ToString();
    shared_logical += shared[i].io.logical_reads;
    isolated_logical += isolated.io.logical_reads;
  }
  // Leader-charged fused sweeps never read more than isolated runs.
  EXPECT_LE(shared_logical, isolated_logical);
}

TEST(ShardRouterTest, PointQueryAndUpdateRouting) {
  const GridField field = MakeTestField();
  ShardRouterOptions ro;
  ro.shards = 4;
  auto router = ShardRouter::Build(field, ro);
  ASSERT_TRUE(router.ok());

  // Point queries agree with the source field's own interpolation.
  const Rect2 domain = field.Domain();
  const Point2 p{domain.lo.x + domain.Width() * 0.37,
                 domain.lo.y + domain.Height() * 0.61};
  auto direct = field.ValueAt(p);
  ASSERT_TRUE(direct.ok());
  auto routed = (*router)->PointQuery(p);
  ASSERT_TRUE(routed.ok());
  EXPECT_DOUBLE_EQ(*routed, *direct);

  // A global-id update routes to the owning shard and becomes visible
  // through value queries.
  const double w = (*router)->value_range().max + 5.0;
  ASSERT_TRUE((*router)->UpdateCellValues(3, {w, w, w, w}).ok());
  QueryStats stats;
  ASSERT_TRUE(
      CountOne(**router, ValueInterval{w - 0.5, w + 0.5}, &stats).ok());
  EXPECT_EQ(stats.answer_cells, 1u);
}

TEST(ShardRouterTest, StaleHullAnswersAsOneDatabase) {
  // Updates only widen a shard's value hull: once the cells of shard 0
  // that met a band move below it, the hull still admits the band, so
  // shard 0 is sent it, its filter finds nothing, and the answer is one
  // database's after the same updates.
  const GridField field = MakeTestField();
  ShardRouterOptions ro;
  ro.shards = 2;
  auto router = ShardRouter::Build(field, ro);
  ASSERT_TRUE(router.ok());
  auto db = FieldDatabase::Build(field, ro.db);
  ASSERT_TRUE(db.ok());

  const Shard& shard = (*router)->shard(0);
  const ValueInterval hull = shard.db().value_range();
  const ValueInterval band{hull.max - 0.05 * (hull.max - hull.min),
                           hull.max};
  const double w = hull.min;
  size_t moved = 0;
  for (const CellId id : shard.descriptor().local_to_global) {
    if (!field.GetCell(id).Interval().Intersects(band)) continue;
    ASSERT_TRUE((*router)->UpdateCellValues(id, {w, w, w, w}).ok());
    ASSERT_TRUE((*db)->UpdateCellValues(id, {w, w, w, w}).ok());
    ++moved;
  }
  ASSERT_GT(moved, 0u);
  ASSERT_TRUE(shard.db().value_range().Intersects(band));

  ValueQueryResult routed;
  ValueQueryResult alone;
  RouterQueryProfile profile;
  ASSERT_TRUE(QueryOne(**router, band, &routed, &profile).ok());
  ASSERT_TRUE(QueryOne(**db, band, &alone).ok());
  EXPECT_GT(profile.per_shard[0].wall_seconds, 0.0);  // shard 0 ran it
  EXPECT_EQ(profile.per_shard[0].answer_cells, 0u);
  EXPECT_EQ(routed.stats.answer_cells, alone.stats.answer_cells);
  EXPECT_EQ(ExactPieces(routed.region), ExactPieces(alone.region));
}

TEST(ShardRouterTest, BatchWithNonFiniteSampleChangesNoShard) {
  const GridField field = MakeTestField();
  ShardRouterOptions ro;
  ro.shards = 2;
  auto router = ShardRouter::Build(field, ro);
  ASSERT_TRUE(router.ok());

  // The first shard's part is valid; the second shard's holds +inf.
  const double w = (*router)->value_range().max + 5.0;
  const CellId in_first = (*router)->shard(0).descriptor().local_to_global[0];
  const CellId in_second =
      (*router)->shard(1).descriptor().local_to_global[0];
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ((*router)
                ->UpdateCellValuesBatch({{in_first, {w, w, w, w}},
                                         {in_second, {w, inf, w, w}}})
                .code(),
            StatusCode::kInvalidArgument);

  // Neither shard applied its part.
  QueryStats stats;
  ASSERT_TRUE(
      CountOne(**router, ValueInterval{w - 0.5, w + 0.5}, &stats).ok());
  EXPECT_EQ(stats.answer_cells, 0u);
}

TEST(ShardRouterTest, SaveOpenRoundTripPreservesAnswers) {
  const GridField field = MakeTestField();
  const std::string prefix = "shard_test_roundtrip";
  ShardRouterOptions ro;
  ro.shards = 3;
  std::vector<ValueInterval> queries = TestQueries(field.ValueRange());

  std::vector<uint64_t> expected;
  {
    auto router = ShardRouter::Build(field, ro);
    ASSERT_TRUE(router.ok());
    for (const ValueInterval& q : queries) {
      QueryStats stats;
      ASSERT_TRUE(CountOne(**router, q, &stats).ok());
      expected.push_back(stats.answer_cells);
    }
    ASSERT_TRUE((*router)->Save(prefix).ok());
    ASSERT_TRUE((*router)->Close().ok());
  }

  ShardRouter::OpenOptions oo;
  auto reopened = ShardRouter::Open(prefix, oo);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_shards(), 3u);
  EXPECT_EQ((*reopened)->num_cells(), field.NumCells());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats stats;
    ASSERT_TRUE(CountOne(**reopened, queries[i], &stats).ok());
    EXPECT_EQ(stats.answer_cells, expected[i]) << queries[i].ToString();
  }
  // Updates still route after reopen (the catalog preserved the
  // global->local map).
  const double w = (*reopened)->value_range().max + 7.0;
  ASSERT_TRUE((*reopened)->UpdateCellValues(5, {w, w, w, w}).ok());
  QueryStats stats;
  ASSERT_TRUE(
      CountOne(**reopened, ValueInterval{w - 0.5, w + 0.5}, &stats).ok());
  EXPECT_EQ(stats.answer_cells, 1u);
  ASSERT_TRUE((*reopened)->Close().ok());

  for (uint32_t k = 0; k < 3; ++k) {
    const std::string sp = prefix + ".s" + std::to_string(k);
    std::remove((sp + ".pages").c_str());
    std::remove((sp + ".meta").c_str());
    std::remove((sp + ".wal").c_str());
  }
  std::remove((prefix + ".router").c_str());
}

// Rewrites the router catalog at `path` with line `line_index` (0 =
// magic) replaced by `line`.
void ReplaceRouterLine(const std::string& path, size_t line_index,
                       const std::string& line) {
  std::ifstream in(path);
  std::string out;
  std::string current;
  for (size_t i = 0; std::getline(in, current); ++i) {
    out += (i == line_index ? line : current) + "\n";
  }
  in.close();
  std::ofstream(path, std::ios::trunc) << out;
  ResignCatalog(path);
}

TEST(ShardRouterTest, OversizedCatalogCountsRejectedBeforeAllocation) {
  const GridField field = MakeTestField();
  const std::string prefix = "shard_test_counts";
  ShardRouterOptions ro;
  ro.shards = 2;
  {
    auto router = ShardRouter::Build(field, ro);
    ASSERT_TRUE(router.ok());
    ASSERT_TRUE((*router)->Save(prefix).ok());
    ASSERT_TRUE((*router)->Close().ok());
  }
  const std::string path = prefix + ".router";
  std::string intact;
  {
    std::ifstream in(path);
    intact.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  ASSERT_TRUE(ShardRouter::Open(prefix, {}).ok());

  // Line 2 is `num_cells N`, line 3 the header `shard 0 cells kb ke`:
  // either count sized an allocation before it was checked.
  ReplaceRouterLine(path, 2, "num_cells 1000000000000000000");
  auto cells = ShardRouter::Open(prefix, {});
  ASSERT_FALSE(cells.ok());
  EXPECT_EQ(cells.status().code(), StatusCode::kCorruption);
  EXPECT_NE(cells.status().message().find("'num_cells'"), std::string::npos)
      << cells.status().ToString();

  std::ofstream(path, std::ios::trunc) << intact;
  ReplaceRouterLine(path, 3, "shard 0 1000000000000000000 0 1");
  auto shard = ShardRouter::Open(prefix, {});
  ASSERT_FALSE(shard.ok());
  EXPECT_EQ(shard.status().code(), StatusCode::kCorruption);
  EXPECT_NE(shard.status().message().find("'shard'"), std::string::npos)
      << shard.status().ToString();

  for (uint32_t k = 0; k < 2; ++k) {
    const std::string sp = prefix + ".s" + std::to_string(k);
    std::remove((sp + ".pages").c_str());
    std::remove((sp + ".meta").c_str());
  }
  std::remove(path.c_str());
}

TEST(ShardRouterTest, ShardCellCountDisagreeingWithTheRouterRefused) {
  // Each shard's own catalog states its cell count, and so does the
  // router's `shard` line. A lowered count used to open and answer
  // 1,584 of the band's 1,585 cells; a whole other database in a
  // shard's place opened too.
  FractalOptions fo;
  fo.size_exp = 6;
  fo.roughness_h = 0.3;
  fo.seed = 3;
  const GridField field = MakeFractalField(fo).value();
  const std::string prefix = TestTempDir() + "/shard_test_shard_cells";
  const std::string s0 = prefix + ".s0";
  ShardRouterOptions ro;
  ro.shards = 2;
  ro.db.method = IndexMethod::kLinearScan;
  ro.db.build_spatial_index = false;
  {
    auto router = ShardRouter::Build(field, ro);
    ASSERT_TRUE(router.ok());
    ASSERT_TRUE((*router)->Save(prefix).ok());
    ASSERT_TRUE((*router)->Close().ok());
  }
  const auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto write = [](const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  };
  const std::string meta = read(s0 + ".meta");
  const std::string pages = read(s0 + ".pages");
  ASSERT_NE(meta.find("\nnum_cells 2048\n"), std::string::npos) << meta;
  const auto expect_refused = [&] {
    auto opened = ShardRouter::Open(prefix, {});
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
    const std::string& message = opened.status().message();
    EXPECT_TRUE(message.find("shard 0 ") != std::string::npos ||
                message.find(".s0.") != std::string::npos)
        << opened.status().ToString();
    EXPECT_EQ(message.find("checksum mismatch"), std::string::npos)
        << opened.status().ToString();
  };

  std::string lowered = meta;
  lowered.replace(lowered.find("num_cells 2048"), 14, "num_cells 2047");
  write(s0 + ".meta", lowered);
  ResignCatalog(s0 + ".meta");
  expect_refused();

  {
    FractalOptions small = fo;
    small.size_exp = 5;  // 1,024 cells: a valid database of its own
    FieldDatabaseOptions options;
    options.method = IndexMethod::kLinearScan;
    auto other = FieldDatabase::Build(MakeFractalField(small).value(), options);
    ASSERT_TRUE(other.ok());
    ASSERT_TRUE((*other)->Save(s0).ok());
  }
  ASSERT_TRUE(FieldDatabase::Open(s0).ok());
  expect_refused();

  write(s0 + ".meta", meta);
  write(s0 + ".pages", pages);
  auto intact = ShardRouter::Open(prefix, {});
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  QueryStats stats;
  ASSERT_TRUE(CountOne(**intact, ValueInterval{0.3, 0.7}, &stats).ok());
  EXPECT_EQ(stats.answer_cells, 1585u);
  ASSERT_TRUE((*intact)->Close().ok());
  for (uint32_t k = 0; k < 2; ++k) {
    const std::string sp = prefix + ".s" + std::to_string(k);
    std::remove((sp + ".pages").c_str());
    std::remove((sp + ".meta").c_str());
  }
  std::remove((prefix + ".router").c_str());
}

TEST(ShardRouterTest, CrashRecoveryReplaysUpdatesAcrossTwoShards) {
  const GridField field = MakeTestField();
  const std::string prefix = "shard_test_crash";
  ShardRouterOptions ro;
  ro.shards = 2;
  ro.db.wal_mode = WalMode::kFsyncOnCommit;
  ro.wal_prefix = prefix;

  // One update landing in each shard: the first local cell of shard 0
  // and of shard 1, addressed by their GLOBAL ids.
  double w = 0.0;
  CellId g0 = 0, g1 = 0;
  {
    auto router = ShardRouter::Build(field, ro);
    ASSERT_TRUE(router.ok());
    ASSERT_TRUE((*router)->Save(prefix).ok());
    g0 = (*router)->shard(0).descriptor().local_to_global.front();
    g1 = (*router)->shard(1).descriptor().local_to_global.front();
    w = (*router)->value_range().max + 9.0;
    ASSERT_TRUE((*router)->UpdateCellValues(g0, {w, w, w, w}).ok());
    ASSERT_TRUE((*router)->UpdateCellValues(g1, {w, w, w, w}).ok());
    // Power cut: the updates live only in the two shard WALs now.
    ASSERT_TRUE((*router)->SimulateCrashForTest().ok());
  }

  ShardRouter::OpenOptions oo;
  oo.wal_mode = WalMode::kFsyncOnCommit;
  RouterRecoveryReport report;
  oo.recovery_report = &report;
  auto reopened = ShardRouter::Open(prefix, oo);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(report.frames_replayed, 2u);
  EXPECT_EQ(report.shards_with_replay, 2u);

  QueryStats stats;
  ASSERT_TRUE(
      CountOne(**reopened, ValueInterval{w - 0.5, w + 0.5}, &stats).ok());
  EXPECT_EQ(stats.answer_cells, 2u);
  ASSERT_TRUE((*reopened)->Close().ok());

  for (uint32_t k = 0; k < 2; ++k) {
    const std::string sp = prefix + ".s" + std::to_string(k);
    std::remove((sp + ".pages").c_str());
    std::remove((sp + ".meta").c_str());
    std::remove((sp + ".wal").c_str());
  }
  std::remove((prefix + ".router").c_str());
}

}  // namespace
}  // namespace fielddb
