// The one band scan (FieldEngine::BandScan) on the temporal, vector and
// volume databases: every planner mode returns bit-identical answers,
// a fused plan counts the band's zone matches as its candidates, and a
// corrupt tree degrades to the full store scan with identical answers,
// one fallback and one corruption_fallback event per query.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gen/fractal.h"
#include "gen/workload.h"
#include "storage/fault_injection.h"
#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

constexpr PlannerMode kModes[] = {PlannerMode::kAuto, PlannerMode::kForceScan,
                                  PlannerMode::kForceIndex};

/// Seeded bands over `range`, a few cells wide each.
std::vector<ValueInterval> Bands(const ValueInterval& range, uint64_t seed) {
  return GenerateValueQueries(range, WorkloadOptions{0.06, 16, seed});
}

/// A region's vertices as raw bit patterns, in emission order.
std::vector<uint64_t> Bits(const Region& region) {
  std::vector<uint64_t> bits;
  for (const ConvexPolygon& piece : region.pieces) {
    for (const Point2& p : piece.vertices) {
      bits.push_back(std::bit_cast<uint64_t>(p.x));
      bits.push_back(std::bit_cast<uint64_t>(p.y));
    }
    bits.push_back(~uint64_t{0});  // piece separator
  }
  return bits;
}

template <typename Key, typename ZoneMap>
uint64_t ZoneMatches(const ZoneMap& zones, const Key& key) {
  std::vector<PosRange> runs;
  zones.FilterRanges(key, &runs);
  return TotalRangeLength(runs);
}

/// What every mode must agree on, plus the candidate count.
struct Answer {
  uint64_t answer_cells = 0;
  uint64_t inside_cells = 0;
  uint64_t region_pieces = 0;
  std::vector<uint64_t> bits;  // piece vertices, or the volume

  bool operator==(const Answer&) const = default;
};

template <typename Result>
Answer AnswerOf(const Result& result, std::vector<uint64_t> bits) {
  return Answer{result.stats.answer_cells, result.stats.inside_cells,
                result.stats.region_pieces, std::move(bits)};
}

/// Checks one query's candidate count against its plan: a fused plan
/// visits exactly the band's zone matches, an indexed plan's runs hold
/// every one of them.
void ExpectCandidates(const PhysicalPlan& plan, const QueryStats& stats,
                      uint64_t zone_matches) {
  if (plan.kind == PlanKind::kFusedScan) {
    EXPECT_EQ(stats.candidate_cells, zone_matches);
  } else {
    EXPECT_GE(stats.candidate_cells, zone_matches);
  }
  EXPECT_GE(stats.candidate_cells, stats.answer_cells);
  EXPECT_EQ(stats.index_fallbacks, 0u);
}

VectorGridField MakeVectorField(int size_exp) {
  const uint32_t n = uint32_t{1} << size_exp;
  FractalOptions fo;
  fo.size_exp = size_exp;
  fo.roughness_h = 0.6;
  fo.seed = 41;
  const std::vector<double> u = DiamondSquare(fo);
  fo.seed = 43;
  const std::vector<double> v = DiamondSquare(fo);
  return VectorGridField::Create(n, n, Rect2{{0, 0}, {1, 1}}, u, v).value();
}

VolumeGridField MakeVolume() {
  VolumeFractalOptions fo;
  fo.nx = fo.ny = fo.nz = 12;
  return MakeFractalVolume(fo).value();
}

TemporalGridField MakeTemporalField(int size_exp, uint32_t num_snapshots) {
  FractalOptions fo;
  fo.size_exp = size_exp;
  fo.roughness_h = 0.7;
  fo.seed = 51;
  const std::vector<double> base = DiamondSquare(fo);
  fo.seed = 52;
  const std::vector<double> trend = DiamondSquare(fo);
  std::vector<std::vector<double>> snapshots(num_snapshots);
  for (uint32_t k = 0; k < num_snapshots; ++k) {
    for (size_t i = 0; i < base.size(); ++i) {
      snapshots[k].push_back(base[i] + 0.3 * k * trend[i]);
    }
  }
  const uint32_t n = uint32_t{1} << size_exp;
  return TemporalGridField::Create(n, n, Rect2{{0, 0}, {1, 1}},
                                   std::move(snapshots))
      .value();
}

/// The vector band of a scalar band: u in `band`, v in its mirror.
VectorBandQuery VectorBand(const ValueInterval& band,
                           const ValueInterval& range) {
  VectorBandQuery q;
  q.u = band;
  q.v = ValueInterval{range.min + range.max - band.max,
                      range.min + range.max - band.min};
  return q;
}

// --- Mode agreement ----------------------------------------------------

class VectorModeTest : public ::testing::TestWithParam<VectorIndexMethod> {};

TEST_P(VectorModeTest, ModesAgreeBitwise) {
  const VectorGridField field = MakeVectorField(5);
  VectorFieldDatabase::Options options;
  options.method = GetParam();
  auto db = VectorFieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const Box<2> box = field.ValueRangeBox();
  const ValueInterval range{std::min(box.lo[0], box.lo[1]),
                            std::max(box.hi[0], box.hi[1])};
  uint64_t answers = 0;
  for (const ValueInterval& band : Bands(range, 5)) {
    const VectorBandQuery q = VectorBand(band, range);
    const uint64_t matches = ZoneMatches((*db)->zone_map(), q.AsBox());
    std::vector<Answer> got;
    for (const PlannerMode mode : kModes) {
      (*db)->set_planner_mode(mode);
      VectorQueryResult result;
      ASSERT_TRUE((*db)->BandQuery(q, &result).ok());
      ExpectCandidates(result.plan, result.stats, matches);
      got.push_back(AnswerOf(result, Bits(result.region)));
    }
    EXPECT_EQ(got[0], got[1]) << band.min;
    EXPECT_EQ(got[2], got[1]) << band.min;
    answers += got[1].answer_cells;
  }
  EXPECT_GT(answers, 0u);
}

INSTANTIATE_TEST_SUITE_P(Methods, VectorModeTest,
                         ::testing::Values(VectorIndexMethod::kLinearScan,
                                           VectorIndexMethod::kIHilbert));

class VolumeModeTest : public ::testing::TestWithParam<VolumeIndexMethod> {};

TEST_P(VolumeModeTest, ModesAgreeBitwise) {
  const VolumeGridField field = MakeVolume();
  VolumeFieldDatabase::Options options;
  options.method = GetParam();
  auto db = VolumeFieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  uint64_t answers = 0;
  for (const ValueInterval& band : Bands(field.ValueRange(), 7)) {
    const uint64_t matches = ZoneMatches((*db)->zone_map(), band);
    std::vector<Answer> got;
    for (const PlannerMode mode : kModes) {
      (*db)->set_planner_mode(mode);
      VolumeQueryResult result;
      ASSERT_TRUE((*db)->BandQuery(band, &result).ok());
      ExpectCandidates(result.plan, result.stats, matches);
      got.push_back(
          AnswerOf(result, {std::bit_cast<uint64_t>(result.volume)}));
    }
    EXPECT_EQ(got[0], got[1]) << band.min;
    EXPECT_EQ(got[2], got[1]) << band.min;
    answers += got[1].answer_cells;
  }
  EXPECT_GT(answers, 0u);
}

INSTANTIATE_TEST_SUITE_P(Methods, VolumeModeTest,
                         ::testing::Values(VolumeIndexMethod::kLinearScan,
                                           VolumeIndexMethod::kIHilbert));

TEST(TemporalModeTest, ModesAgreeBitwise) {
  const TemporalGridField field = MakeTemporalField(5, 4);
  auto db = TemporalFieldDatabase::Build(field, {});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  uint64_t answers = 0;
  // Integer times brush two slabs in the tree; 3 = T-1 reads the last.
  for (const double t : {0.0, 0.4, 1.0, 2.5, 3.0}) {
    const uint32_t slab = std::min<uint32_t>(
        static_cast<uint32_t>(std::floor(t)), (*db)->num_slabs() - 1);
    for (const ValueInterval& band : Bands(field.ValueRange(), 9)) {
      const uint64_t matches = ZoneMatches((*db)->slab_zone_map(slab), band);
      std::vector<Answer> got;
      for (const PlannerMode mode : kModes) {
        (*db)->set_planner_mode(mode);
        ValueQueryResult result;
        ASSERT_TRUE((*db)->SnapshotValueQuery(t, band, &result).ok());
        ExpectCandidates(result.plan, result.stats, matches);
        got.push_back(AnswerOf(result, Bits(result.region)));
      }
      EXPECT_EQ(got[0], got[1]) << "t=" << t << " band " << band.min;
      EXPECT_EQ(got[2], got[1]) << "t=" << t << " band " << band.min;
      answers += got[1].answer_cells;
    }
  }
  EXPECT_GT(answers, 0u);
}

// --- Corruption fallback -----------------------------------------------

/// Pages past `first_tree_page` are the tree's: each build appends its
/// store(s) first and the subfield tree last.
uint64_t StorePages(uint64_t records, uint32_t record_size,
                    uint32_t stores = 1) {
  const uint64_t per_page = kDefaultPageSize / record_size;
  return stores * ((records + per_page - 1) / per_page);
}

/// Builds with a fault-injecting page file and an event log, runs
/// `query(i, out)` for every band under kForceIndex intact, then marks
/// every tree page corrupt, clears the pool and runs them again: the
/// answers must not change, and each query must fall back exactly once.
struct FallbackCase {
  /// Builds the database over `options`-style settings; returns the
  /// facade's host.
  std::function<EngineHost*(const EngineBuildOptions&)> build;
  uint64_t store_pages = 0;
  size_t num_queries = 0;
  /// Runs query i, returning its answer and stats.
  std::function<Status(size_t, Answer*, QueryStats*)> query;
};

void ExpectFallback(const FallbackCase& c, const std::string& name) {
  FaultInjectingPageFile* injector = nullptr;
  EngineBuildOptions options;
  options.page_file_factory = [&injector](uint32_t page_size) {
    auto wrapped = std::make_unique<FaultInjectingPageFile>(
        std::make_unique<MemPageFile>(page_size));
    injector = wrapped.get();
    return wrapped;
  };
  const std::string events = TestTempDir() + "/fielddb_" + name +
                             "_fallback.jsonl";
  std::remove(events.c_str());
  options.event_log_path = events;
  options.slow_query_threshold_ms = 1e9;
  EngineHost* const db = c.build(options);
  ASSERT_NE(db, nullptr);
  ASSERT_NE(injector, nullptr);
  db->set_planner_mode(PlannerMode::kForceIndex);

  std::vector<Answer> intact(c.num_queries);
  for (size_t i = 0; i < c.num_queries; ++i) {
    QueryStats stats;
    ASSERT_TRUE(c.query(i, &intact[i], &stats).ok());
    ASSERT_EQ(stats.index_fallbacks, 0u);
  }
  const uint64_t num_pages = injector->NumPages();
  ASSERT_LT(c.store_pages, num_pages) << "no tree page to corrupt";
  for (PageId id = c.store_pages; id < num_pages; ++id) {
    injector->CorruptPage(id);
  }
  ASSERT_TRUE(db->pool().Clear().ok());

  for (size_t i = 0; i < c.num_queries; ++i) {
    Answer degraded;
    QueryStats stats;
    ASSERT_TRUE(c.query(i, &degraded, &stats).ok()) << i;
    EXPECT_EQ(stats.index_fallbacks, 1u) << i;
    EXPECT_EQ(degraded, intact[i]) << i;
  }
  EXPECT_EQ(db->index_fallbacks(), c.num_queries);

  std::ifstream log(events);
  size_t fallback_events = 0;
  for (std::string line; std::getline(log, line);) {
    if (line.find("\"type\": \"corruption_fallback\"") != std::string::npos) {
      ++fallback_events;
    }
  }
  EXPECT_EQ(fallback_events, c.num_queries);
  std::remove(events.c_str());
}

TEST(ExtFallbackTest, VectorCorruptTreeFallsBackToTheStore) {
  const VectorGridField field = MakeVectorField(5);
  const Box<2> box = field.ValueRangeBox();
  const ValueInterval range{std::min(box.lo[0], box.lo[1]),
                            std::max(box.hi[0], box.hi[1])};
  const std::vector<ValueInterval> bands = Bands(range, 11);
  std::unique_ptr<VectorFieldDatabase> db;
  ExpectFallback(
      FallbackCase{
          .build =
              [&](const EngineBuildOptions& engine) -> EngineHost* {
            VectorFieldDatabase::Options options;
            static_cast<EngineBuildOptions&>(options) = engine;
            auto built = VectorFieldDatabase::Build(field, options);
            if (!built.ok()) return nullptr;
            db = std::move(built).value();
            return db.get();
          },
          .store_pages =
              StorePages(field.NumCells(), sizeof(VectorCellRecord)),
          .num_queries = bands.size(),
          .query =
              [&](size_t i, Answer* answer, QueryStats* stats) {
                VectorQueryResult result;
                FIELDDB_RETURN_IF_ERROR(
                    db->BandQuery(VectorBand(bands[i], range), &result));
                *answer = AnswerOf(result, Bits(result.region));
                *stats = result.stats;
                return Status::OK();
              }},
      "vector");
}

TEST(ExtFallbackTest, VolumeCorruptTreeFallsBackToTheStore) {
  const VolumeGridField field = MakeVolume();
  const std::vector<ValueInterval> bands = Bands(field.ValueRange(), 13);
  std::unique_ptr<VolumeFieldDatabase> db;
  ExpectFallback(
      FallbackCase{
          .build =
              [&](const EngineBuildOptions& engine) -> EngineHost* {
            VolumeFieldDatabase::Options options;
            static_cast<EngineBuildOptions&>(options) = engine;
            auto built = VolumeFieldDatabase::Build(field, options);
            if (!built.ok()) return nullptr;
            db = std::move(built).value();
            return db.get();
          },
          .store_pages = StorePages(field.NumCells(), sizeof(VoxelRecord)),
          .num_queries = bands.size(),
          .query =
              [&](size_t i, Answer* answer, QueryStats* stats) {
                VolumeQueryResult result;
                FIELDDB_RETURN_IF_ERROR(db->BandQuery(bands[i], &result));
                *answer = AnswerOf(result,
                                   {std::bit_cast<uint64_t>(result.volume)});
                *stats = result.stats;
                return Status::OK();
              }},
      "volume");
}

TEST(ExtFallbackTest, TemporalCorruptTreeFallsBackToTheStore) {
  const TemporalGridField field = MakeTemporalField(4, 3);
  const std::vector<ValueInterval> bands = Bands(field.ValueRange(), 17);
  std::unique_ptr<TemporalFieldDatabase> db;
  ExpectFallback(
      FallbackCase{
          .build =
              [&](const EngineBuildOptions& engine) -> EngineHost* {
            TemporalFieldDatabase::Options options;
            static_cast<EngineBuildOptions&>(options) = engine;
            auto built = TemporalFieldDatabase::Build(field, options);
            if (!built.ok()) return nullptr;
            db = std::move(built).value();
            return db.get();
          },
          .store_pages = StorePages(field.NumCells(),
                                    sizeof(TemporalSlabRecord),
                                    field.NumSlabs()),
          .num_queries = bands.size(),
          .query =
              [&](size_t i, Answer* answer, QueryStats* stats) {
                ValueQueryResult result;
                // Alternate integer and fractional times.
                const double t = (i % 2 == 0) ? 1.0 : 0.75;
                FIELDDB_RETURN_IF_ERROR(
                    db->SnapshotValueQuery(t, bands[i], &result));
                *answer = AnswerOf(result, Bits(result.region));
                *stats = result.stats;
                return Status::OK();
              }},
      "temporal");
}

}  // namespace
}  // namespace fielddb
