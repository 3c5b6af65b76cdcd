// The request matrix of the one band-query call, on both facades:
// {1 band, 3 overlapping bands} x {counts, regions} x {trace off, on},
// on FieldDatabase (every method, every planner mode) and ShardRouter
// (1, 2 and 4 shards). Every member must answer exactly as the same
// band run alone with the same `regions` flag, shared I/O must be
// leader-charged, and traced spans must account for the traced I/O.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/field_database.h"
#include "core/shard_router.h"
#include "gen/fractal.h"
#include "obs/trace.h"

namespace fielddb {
namespace {

GridField MakeTestField() {
  FractalOptions fo;
  fo.size_exp = 6;  // 64x64 cells
  fo.roughness_h = 0.7;
  fo.seed = 3;
  return MakeFractalField(fo).value();
}

/// Three overlapping bands in the upper half of the value range, clear
/// of 0: a sweep whose envelope wrongly reached 0 would read more.
std::vector<ValueInterval> OverlappingBands(const ValueInterval& range) {
  const auto at = [&](double frac) {
    return range.min + frac * (range.max - range.min);
  };
  return {ValueInterval{at(0.60), at(0.68)}, ValueInterval{at(0.64), at(0.74)},
          ValueInterval{at(0.70), at(0.78)}};
}

std::vector<double> PieceAreas(const Region& region) {
  std::vector<double> areas;
  areas.reserve(region.pieces.size());
  for (const ConvexPolygon& piece : region.pieces) {
    areas.push_back(piece.Area());
  }
  return areas;
}

/// What every member of `request` must equal: the same band run alone,
/// untraced, with the same `regions` flag.
template <typename Facade>
void ExpectMembersMatchIsolated(const Facade& facade,
                                const QueryRequest& request,
                                const std::vector<ValueQueryResult>& got) {
  ASSERT_EQ(got.size(), request.bands.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "member " << i);
    ValueQueryResult alone;
    ASSERT_TRUE(facade
                    .Query({.bands = request.bands.subspan(i, 1),
                            .regions = request.regions},
                           {&alone, 1})
                    .ok());
    EXPECT_EQ(got[i].stats.answer_cells, alone.stats.answer_cells);
    EXPECT_EQ(got[i].stats.inside_cells, alone.stats.inside_cells);
    EXPECT_EQ(got[i].stats.region_pieces, alone.stats.region_pieces);
    EXPECT_EQ(PieceAreas(got[i].region), PieceAreas(alone.region));
    if (!request.regions) {
      EXPECT_TRUE(got[i].region.pieces.empty());
    }
  }
}

/// Leader charging: the riders report no I/O, so the members sum to
/// member 0's.
void ExpectLeaderCharged(const std::vector<ValueQueryResult>& got) {
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_EQ(got[i].stats.io.logical_reads, 0u) << "member " << i;
    EXPECT_EQ(got[i].stats.io.physical_reads, 0u) << "member " << i;
  }
}

/// Span I/O accounts for the traced query's I/O exactly.
void ExpectSpansSumToIo(const QueryStats& stats) {
  ASSERT_NE(stats.trace, nullptr);
  ASSERT_NE(stats.trace->Find("plan"), nullptr);
  ASSERT_NE(stats.trace->Find("fetch"), nullptr);
  const IoStats spans = stats.trace->TotalIo();
  EXPECT_EQ(spans.logical_reads, stats.io.logical_reads);
  EXPECT_EQ(spans.physical_reads, stats.io.physical_reads);
  EXPECT_EQ(spans.sequential_reads, stats.io.sequential_reads);
}

struct Shape {
  bool shared;
  bool regions;
  bool trace;
};

std::vector<Shape> AllShapes() {
  std::vector<Shape> shapes;
  for (const bool shared : {false, true}) {
    for (const bool regions : {false, true}) {
      for (const bool trace : {false, true}) {
        shapes.push_back({shared, regions, trace});
      }
    }
  }
  return shapes;
}

class DatabaseRequestTest : public ::testing::TestWithParam<IndexMethod> {};

TEST_P(DatabaseRequestTest, EveryShapeAnswersAsItsMembersAlone) {
  FieldDatabaseOptions options;
  options.method = GetParam();
  auto db = FieldDatabase::Build(MakeTestField(), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::vector<ValueInterval> overlapping =
      OverlappingBands((*db)->value_range());
  ValueInterval hull = ValueInterval::Empty();
  for (const ValueInterval& band : overlapping) hull.Extend(band);

  for (const PlannerMode mode : {PlannerMode::kAuto, PlannerMode::kForceScan,
                                 PlannerMode::kForceIndex}) {
    (*db)->set_planner_mode(mode);
    for (const Shape shape : AllShapes()) {
      SCOPED_TRACE(::testing::Message()
                   << PlannerModeName(mode) << " shared=" << shape.shared
                   << " regions=" << shape.regions
                   << " trace=" << shape.trace);
      const QueryRequest request{
          .bands = std::span(overlapping).first(shape.shared ? 3 : 1),
          .regions = shape.regions,
          .trace = shape.trace};
      std::vector<ValueQueryResult> got(request.bands.size());
      ASSERT_TRUE((*db)->Query(request, got).ok());
      ExpectMembersMatchIsolated(**db, request, got);
      ExpectLeaderCharged(got);
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].stats.trace != nullptr, shape.trace && i == 0);
      }
      if (shape.trace) ExpectSpansSumToIo(got[0].stats);
      if (shape.shared) {
        // The one sweep: the members' hull run as a single band reads
        // exactly the pages the shared sweep read.
        ValueQueryResult sweep;
        ASSERT_TRUE((*db)
                        ->Query({.bands = {&hull, 1}, .regions = false},
                                {&sweep, 1})
                        .ok());
        EXPECT_EQ(got[0].stats.io.logical_reads,
                  sweep.stats.io.logical_reads);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, DatabaseRequestTest,
    ::testing::Values(IndexMethod::kLinearScan, IndexMethod::kIAll,
                      IndexMethod::kIHilbert, IndexMethod::kIntervalQuadtree,
                      IndexMethod::kRowIp),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      std::erase_if(name, [](char c) {
        return !std::isalnum(static_cast<unsigned char>(c));
      });
      return name;
    });

TEST(RouterRequestTest, EveryShapeAnswersAsItsMembersAlone) {
  const GridField field = MakeTestField();
  for (const uint32_t shards : {1u, 2u, 4u}) {
    ShardRouterOptions options;
    options.shards = shards;
    auto router = ShardRouter::Build(field, options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    const std::vector<ValueInterval> overlapping =
        OverlappingBands((*router)->value_range());
    for (const Shape shape : AllShapes()) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " shared=" << shape.shared
                   << " regions=" << shape.regions
                   << " trace=" << shape.trace);
      const QueryRequest request{
          .bands = std::span(overlapping).first(shape.shared ? 3 : 1),
          .regions = shape.regions,
          .trace = shape.trace};
      std::vector<ValueQueryResult> got(request.bands.size());
      RouterQueryProfile profile;
      ASSERT_TRUE((*router)->Query(request, got, &profile).ok());
      ExpectMembersMatchIsolated(**router, request, got);

      // The members sum to the I/O every touched shard issued.
      ASSERT_EQ(profile.per_shard.size(), shards);
      uint64_t members_io = 0;
      uint64_t shards_io = 0;
      for (const ValueQueryResult& r : got) {
        members_io += r.stats.io.logical_reads;
      }
      for (const QueryStats& s : profile.per_shard) {
        shards_io += s.io.logical_reads;
      }
      EXPECT_EQ(members_io, shards_io);
      EXPECT_EQ(profile.shards_touched + profile.shards_skipped, shards);

      // A traced one-band request traces each touched shard's query.
      if (shape.trace && !shape.shared) {
        for (const QueryStats& s : profile.per_shard) {
          if (s.wall_seconds > 0.0) ExpectSpansSumToIo(s);
        }
      }
    }
  }
}

TEST(QueryRequestTest, RefusesMismatchedAndEmptyRequests) {
  auto db = FieldDatabase::Build(MakeTestField(), FieldDatabaseOptions{});
  ASSERT_TRUE(db.ok());
  const std::vector<ValueInterval> bands = {ValueInterval{0.1, 0.2},
                                            ValueInterval{0.3, 0.4}};
  std::vector<ValueQueryResult> one(1);
  EXPECT_EQ((*db)->Query({.bands = bands}, one).code(),
            StatusCode::kInvalidArgument);
  // No bands is an empty request, answered with nothing.
  EXPECT_TRUE((*db)->Query({}, {}).ok());
}

}  // namespace
}  // namespace fielddb
