// Persistence round-trips for the extension engines (vector, volume,
// temporal): Save/Open must preserve query answers bit-identically,
// reject corrupt catalogs, and the bounded-memory external-sort build
// must produce byte-identical snapshot files to the unlimited build.
// Also asserts planner parity: every engine's cost-based planner picks
// scan vs index per band and honors the forced modes.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"

namespace fielddb {
namespace {

std::string TestPrefix(const std::string& tag) {
  return ::testing::TempDir() + "/fielddb_ext_persist_" + tag;
}

void Cleanup(const std::string& prefix) {
  for (const char* suffix :
       {".pages", ".meta", ".pages.tmp", ".meta.tmp", ".wal"}) {
    std::remove((prefix + suffix).c_str());
  }
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void ExpectFilesIdentical(const std::string& a, const std::string& b) {
  const std::vector<char> ca = ReadAll(a);
  const std::vector<char> cb = ReadAll(b);
  ASSERT_FALSE(ca.empty());
  EXPECT_EQ(ca, cb) << a << " differs from " << b;
}

// Drops the second catalog line keyed `key` and decrements the
// `subfields` count: a well-formed catalog whose subfield table no
// longer tiles the store.
void DropSecondSubfieldLine(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string out;
  std::string line;
  int seen = 0;
  while (std::getline(in, line)) {
    if (line.rfind(key + " ", 0) == 0 && ++seen == 2) continue;
    if (line.rfind("subfields ", 0) == 0) {
      line = "subfields " + std::to_string(std::stoull(line.substr(10)) - 1);
    }
    out += line + "\n";
  }
  in.close();
  ASSERT_GE(seen, 2) << "fewer than two '" << key << "' lines";
  std::ofstream(path, std::ios::trunc) << out;
}

// u = x + y, v = x - y over the unit square (affine, analytic answers).
VectorGridField MakeAffineVectorField(uint32_t n) {
  std::vector<double> su, sv;
  for (uint32_t j = 0; j <= n; ++j) {
    for (uint32_t i = 0; i <= n; ++i) {
      const double x = static_cast<double>(i) / n;
      const double y = static_cast<double>(j) / n;
      su.push_back(x + y);
      sv.push_back(x - y);
    }
  }
  auto field = VectorGridField::Create(n, n, Rect2{{0, 0}, {1, 1}}, su, sv);
  EXPECT_TRUE(field.ok());
  return std::move(field).value();
}

VolumeGridField MakeVolume(uint32_t n = 8) {
  VolumeFractalOptions fo;
  fo.nx = fo.ny = fo.nz = n;
  auto field = MakeFractalVolume(fo);
  EXPECT_TRUE(field.ok());
  return std::move(field).value();
}

// T snapshots of a planar ramp drifting upward: vertex (i, j) at
// snapshot k holds i + j + 10k.
TemporalGridField MakeDriftingRamp(uint32_t n, uint32_t num_snapshots) {
  std::vector<std::vector<double>> snapshots(num_snapshots);
  for (uint32_t k = 0; k < num_snapshots; ++k) {
    for (uint32_t j = 0; j <= n; ++j) {
      for (uint32_t i = 0; i <= n; ++i) {
        snapshots[k].push_back(static_cast<double>(i + j) + 10.0 * k);
      }
    }
  }
  auto field = TemporalGridField::Create(n, n, Rect2{{0, 0}, {1, 1}},
                                         std::move(snapshots));
  EXPECT_TRUE(field.ok());
  return std::move(field).value();
}

// --- Volume ----------------------------------------------------------

class VolumePersistTest : public ::testing::TestWithParam<VolumeIndexMethod> {
};

TEST_P(VolumePersistTest, RoundTripPreservesAnswers) {
  const std::string prefix =
      TestPrefix("vol_" + std::to_string(static_cast<int>(GetParam())));
  Cleanup(prefix);
  const VolumeGridField field = MakeVolume();
  VolumeFieldDatabase::Options options;
  options.method = GetParam();
  auto built = VolumeFieldDatabase::Build(field, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->Save(prefix).ok());

  auto opened = VolumeFieldDatabase::Open(prefix);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->epoch(), 1u);
  EXPECT_EQ((*opened)->method(), GetParam());
  EXPECT_EQ((*opened)->num_cells(), field.NumCells());
  EXPECT_EQ((*opened)->subfields().size(), (*built)->subfields().size());
  EXPECT_EQ((*opened)->zone_map().size(), field.NumCells());

  const ValueInterval range = field.ValueRange();
  const std::vector<ValueInterval> bands = {
      {-1e9, 1e9},
      {range.min, range.min + 0.1 * (range.max - range.min)},
      {range.min + 0.45 * (range.max - range.min),
       range.min + 0.55 * (range.max - range.min)},
  };
  for (const ValueInterval& band : bands) {
    SCOPED_TRACE(band.min);
    VolumeQueryResult expected, actual;
    ASSERT_TRUE((*built)->BandQuery(band, &expected).ok());
    ASSERT_TRUE((*opened)->BandQuery(band, &actual).ok());
    EXPECT_DOUBLE_EQ(actual.volume, expected.volume);
    EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
    EXPECT_EQ(actual.plan.kind, expected.plan.kind);
  }
  Cleanup(prefix);
}

TEST(VolumePersistTest2, BudgetedBuildIsByteIdentical) {
  const std::string unlimited_prefix = TestPrefix("vol_unlimited");
  const std::string budgeted_prefix = TestPrefix("vol_budgeted");
  Cleanup(unlimited_prefix);
  Cleanup(budgeted_prefix);
  const VolumeGridField field = MakeVolume();

  VolumeFieldDatabase::Options options;
  auto unlimited = VolumeFieldDatabase::Build(field, options);
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ((*unlimited)->ext_spill_runs(), 0u);

  options.build_memory_budget_bytes = 1024;  // forces many spilled runs
  auto budgeted = VolumeFieldDatabase::Build(field, options);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_GT((*budgeted)->ext_spill_runs(), 0u);
  EXPECT_LE((*budgeted)->ext_peak_buffered_bytes(), 1024u);

  ASSERT_TRUE((*unlimited)->Save(unlimited_prefix).ok());
  ASSERT_TRUE((*budgeted)->Save(budgeted_prefix).ok());
  ExpectFilesIdentical(unlimited_prefix + ".pages",
                       budgeted_prefix + ".pages");
  ExpectFilesIdentical(unlimited_prefix + ".meta",
                       budgeted_prefix + ".meta");
  Cleanup(unlimited_prefix);
  Cleanup(budgeted_prefix);
}

TEST(VolumePersistTest2, PlannerSelectsPerBand) {
  const VolumeGridField field = MakeVolume();
  auto db = VolumeFieldDatabase::Build(field, {});
  ASSERT_TRUE(db.ok());
  // Whole value space: every zone matches, the scan must win.
  const PhysicalPlan wide = (*db)->PlanBandQuery({-1e9, 1e9});
  EXPECT_EQ(wide.kind, PlanKind::kFusedScan);
  // Far outside the value range: zero candidates, the index must win.
  const PhysicalPlan empty = (*db)->PlanBandQuery({1e8, 2e8});
  EXPECT_EQ(empty.kind, PlanKind::kIndexedFilter);
  EXPECT_EQ(empty.predicted_candidates, 0u);
  // Forced modes are honored regardless of cost.
  (*db)->set_planner_mode(PlannerMode::kForceIndex);
  EXPECT_EQ((*db)->PlanBandQuery({-1e9, 1e9}).kind,
            PlanKind::kIndexedFilter);
  (*db)->set_planner_mode(PlannerMode::kForceScan);
  EXPECT_EQ((*db)->PlanBandQuery({1e8, 2e8}).kind, PlanKind::kFusedScan);
}

TEST(VolumePersistTest2, CorruptCatalogRejected) {
  const std::string prefix = TestPrefix("vol_corrupt");
  Cleanup(prefix);
  const VolumeGridField field = MakeVolume(4);
  auto db = VolumeFieldDatabase::Build(field, {});
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Save(prefix).ok());

  std::ofstream out(prefix + ".meta", std::ios::trunc);
  out << "fielddb-volume-meta-v1\npage_size 0\n";
  out.close();
  EXPECT_FALSE(VolumeFieldDatabase::Open(prefix).ok());

  std::ofstream bad(prefix + ".meta", std::ios::trunc);
  bad << "not-a-catalog\n";
  bad.close();
  EXPECT_FALSE(VolumeFieldDatabase::Open(prefix).ok());
  Cleanup(prefix);
}

TEST(VolumePersistTest2, SubfieldTableMustTileStore) {
  const std::string prefix = TestPrefix("vol_tiling");
  Cleanup(prefix);
  auto db = VolumeFieldDatabase::Build(MakeVolume(), {});
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Save(prefix).ok());
  DropSecondSubfieldLine(prefix + ".meta", "sf");
  const auto opened = VolumeFieldDatabase::Open(prefix);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  Cleanup(prefix);
}

INSTANTIATE_TEST_SUITE_P(BothMethods, VolumePersistTest,
                         ::testing::Values(VolumeIndexMethod::kLinearScan,
                                           VolumeIndexMethod::kIHilbert),
                         [](const auto& info) {
                           return info.param ==
                                          VolumeIndexMethod::kLinearScan
                                      ? "LinearScan"
                                      : "IHilbert";
                         });

// --- Vector ----------------------------------------------------------

class VectorPersistTest : public ::testing::TestWithParam<VectorIndexMethod> {
};

TEST_P(VectorPersistTest, RoundTripPreservesAnswers) {
  const std::string prefix =
      TestPrefix("vec_" + std::to_string(static_cast<int>(GetParam())));
  Cleanup(prefix);
  const VectorGridField field = MakeAffineVectorField(12);
  VectorFieldDatabase::Options options;
  options.method = GetParam();
  auto built = VectorFieldDatabase::Build(field, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->Save(prefix).ok());

  auto opened = VectorFieldDatabase::Open(prefix);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->epoch(), 1u);
  EXPECT_EQ((*opened)->num_cells(), field.NumCells());
  EXPECT_EQ((*opened)->subfields().size(), (*built)->subfields().size());

  const std::vector<VectorBandQuery> queries = {
      {{-1000, 1000}, {-1000, 1000}},
      {{0.4, 0.6}, {-0.1, 0.1}},
      {{1.2, 1.6}, {0.2, 0.5}},
  };
  for (const VectorBandQuery& q : queries) {
    SCOPED_TRACE(q.u.min);
    VectorQueryResult expected, actual;
    ASSERT_TRUE((*built)->BandQuery(q, &expected).ok());
    ASSERT_TRUE((*opened)->BandQuery(q, &actual).ok());
    EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
    EXPECT_DOUBLE_EQ(actual.region.TotalArea(),
                     expected.region.TotalArea());
    EXPECT_EQ(actual.plan.kind, expected.plan.kind);
  }
  Cleanup(prefix);
}

TEST_P(VectorPersistTest, UpdateSurvivesRoundTrip) {
  const std::string prefix = TestPrefix(
      "vec_upd_" + std::to_string(static_cast<int>(GetParam())));
  Cleanup(prefix);
  const VectorGridField field = MakeAffineVectorField(8);
  VectorFieldDatabase::Options options;
  options.method = GetParam();
  auto db = VectorFieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->UpdateCellValues(5, std::vector<double>(4, 300.0),
                                     std::vector<double>(4, -300.0))
                  .ok());
  ASSERT_TRUE((*db)->Save(prefix).ok());

  auto opened = VectorFieldDatabase::Open(prefix);
  ASSERT_TRUE(opened.ok());
  VectorBandQuery marker;
  marker.u = ValueInterval{299, 301};
  marker.v = ValueInterval{-301, -299};
  VectorQueryResult result;
  ASSERT_TRUE((*opened)->BandQuery(marker, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, 1u);
  Cleanup(prefix);
}

TEST(VectorPersistTest2, BudgetedBuildIsByteIdentical) {
  const std::string unlimited_prefix = TestPrefix("vec_unlimited");
  const std::string budgeted_prefix = TestPrefix("vec_budgeted");
  Cleanup(unlimited_prefix);
  Cleanup(budgeted_prefix);
  const VectorGridField field = MakeAffineVectorField(16);

  VectorFieldDatabase::Options options;
  auto unlimited = VectorFieldDatabase::Build(field, options);
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ((*unlimited)->ext_spill_runs(), 0u);

  options.build_memory_budget_bytes = 512;
  auto budgeted = VectorFieldDatabase::Build(field, options);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_GT((*budgeted)->ext_spill_runs(), 0u);

  ASSERT_TRUE((*unlimited)->Save(unlimited_prefix).ok());
  ASSERT_TRUE((*budgeted)->Save(budgeted_prefix).ok());
  ExpectFilesIdentical(unlimited_prefix + ".pages",
                       budgeted_prefix + ".pages");
  ExpectFilesIdentical(unlimited_prefix + ".meta",
                       budgeted_prefix + ".meta");
  Cleanup(unlimited_prefix);
  Cleanup(budgeted_prefix);
}

TEST(VectorPersistTest2, PlannerSelectsPerBand) {
  const VectorGridField field = MakeAffineVectorField(16);
  auto db = VectorFieldDatabase::Build(field, {});
  ASSERT_TRUE(db.ok());
  const PhysicalPlan wide =
      (*db)->PlanBandQuery({{-1000, 1000}, {-1000, 1000}});
  EXPECT_EQ(wide.kind, PlanKind::kFusedScan);
  const PhysicalPlan empty = (*db)->PlanBandQuery({{900, 950}, {900, 950}});
  EXPECT_EQ(empty.kind, PlanKind::kIndexedFilter);
  EXPECT_EQ(empty.predicted_candidates, 0u);
}

TEST(VectorPersistTest2, SubfieldTableMustTileStore) {
  const std::string prefix = TestPrefix("vec_tiling");
  Cleanup(prefix);
  auto db = VectorFieldDatabase::Build(MakeAffineVectorField(16), {});
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Save(prefix).ok());
  DropSecondSubfieldLine(prefix + ".meta", "sfv");
  const auto opened = VectorFieldDatabase::Open(prefix);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  Cleanup(prefix);
}

INSTANTIATE_TEST_SUITE_P(BothMethods, VectorPersistTest,
                         ::testing::Values(VectorIndexMethod::kLinearScan,
                                           VectorIndexMethod::kIHilbert),
                         [](const auto& info) {
                           return info.param ==
                                          VectorIndexMethod::kLinearScan
                                      ? "LinearScan"
                                      : "IHilbert";
                         });

// --- Temporal --------------------------------------------------------

TEST(TemporalPersistTest, RoundTripPreservesAnswers) {
  const std::string prefix = TestPrefix("temp");
  Cleanup(prefix);
  const TemporalGridField field = MakeDriftingRamp(8, 4);
  auto built = TemporalFieldDatabase::Build(field, {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->Save(prefix).ok());

  auto opened = TemporalFieldDatabase::Open(prefix);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->epoch(), 1u);
  EXPECT_EQ((*opened)->num_slabs(), (*built)->num_slabs());
  EXPECT_EQ((*opened)->num_subfields(), (*built)->num_subfields());
  EXPECT_EQ((*opened)->num_cells(), field.NumCells());

  for (const double t : {0.0, 0.5, 1.0, 1.75, 3.0}) {
    for (const ValueInterval band :
         {ValueInterval{-1e6, 1e6}, ValueInterval{4.0, 9.0}}) {
      SCOPED_TRACE(t);
      ValueQueryResult expected, actual;
      ASSERT_TRUE((*built)->SnapshotValueQuery(t, band, &expected).ok());
      ASSERT_TRUE((*opened)->SnapshotValueQuery(t, band, &actual).ok());
      EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
      EXPECT_DOUBLE_EQ(actual.region.TotalArea(),
                       expected.region.TotalArea());
      EXPECT_EQ(actual.plan.kind, expected.plan.kind);
    }
  }
  std::vector<CellId> expected_ids, actual_ids;
  ASSERT_TRUE(
      (*built)->TimeRangeCandidates({5, 12}, 0.5, 2.5, &expected_ids).ok());
  ASSERT_TRUE(
      (*opened)->TimeRangeCandidates({5, 12}, 0.5, 2.5, &actual_ids).ok());
  EXPECT_EQ(actual_ids, expected_ids);
  Cleanup(prefix);
}

TEST(TemporalPersistTest, BudgetedBuildIsByteIdentical) {
  const std::string unlimited_prefix = TestPrefix("temp_unlimited");
  const std::string budgeted_prefix = TestPrefix("temp_budgeted");
  Cleanup(unlimited_prefix);
  Cleanup(budgeted_prefix);
  const TemporalGridField field = MakeDriftingRamp(16, 3);

  TemporalFieldDatabase::Options options;
  auto unlimited = TemporalFieldDatabase::Build(field, options);
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ((*unlimited)->ext_spill_runs(), 0u);

  options.build_memory_budget_bytes = 512;
  auto budgeted = TemporalFieldDatabase::Build(field, options);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_GT((*budgeted)->ext_spill_runs(), 0u);

  ASSERT_TRUE((*unlimited)->Save(unlimited_prefix).ok());
  ASSERT_TRUE((*budgeted)->Save(budgeted_prefix).ok());
  ExpectFilesIdentical(unlimited_prefix + ".pages",
                       budgeted_prefix + ".pages");
  ExpectFilesIdentical(unlimited_prefix + ".meta",
                       budgeted_prefix + ".meta");
  Cleanup(unlimited_prefix);
  Cleanup(budgeted_prefix);
}

TEST(TemporalPersistTest, PlannerSelectsPerBand) {
  const TemporalGridField field = MakeDriftingRamp(16, 3);
  auto db = TemporalFieldDatabase::Build(field, {});
  ASSERT_TRUE(db.ok());
  const PhysicalPlan wide = (*db)->PlanSnapshotQuery(0.5, {-1e6, 1e6});
  EXPECT_EQ(wide.kind, PlanKind::kFusedScan);
  const PhysicalPlan empty = (*db)->PlanSnapshotQuery(0.5, {1e5, 2e5});
  EXPECT_EQ(empty.kind, PlanKind::kIndexedFilter);
  EXPECT_EQ(empty.predicted_candidates, 0u);
}

TEST(TemporalPersistTest, CorruptCatalogRejected) {
  const std::string prefix = TestPrefix("temp_corrupt");
  Cleanup(prefix);
  const TemporalGridField field = MakeDriftingRamp(4, 3);
  auto db = TemporalFieldDatabase::Build(field, {});
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Save(prefix).ok());

  std::ofstream out(prefix + ".meta", std::ios::trunc);
  out << "fielddb-temporal-meta-v1\npage_size 4096\nnum_slabs 2\n";
  out.close();
  EXPECT_FALSE(TemporalFieldDatabase::Open(prefix).ok());

  // A slab-less catalog: `num_slabs 0`, `subfields 0`, no slab or tsf
  // lines. Build needs two snapshots, so no real catalog has zero slabs,
  // and a query against one would index slab -1.
  ASSERT_TRUE((*db)->Save(prefix).ok());
  std::ifstream saved(prefix + ".meta");
  std::string slabless;
  std::string line;
  while (std::getline(saved, line)) {
    if (line.rfind("slab ", 0) == 0 || line.rfind("tsf ", 0) == 0) continue;
    if (line.rfind("num_slabs ", 0) == 0) line = "num_slabs 0";
    if (line.rfind("subfields ", 0) == 0) line = "subfields 0";
    slabless += line + "\n";
  }
  saved.close();
  std::ofstream(prefix + ".meta", std::ios::trunc) << slabless;
  const auto opened = TemporalFieldDatabase::Open(prefix);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  Cleanup(prefix);
}

TEST(TemporalPersistTest, SubfieldTableMustTileStore) {
  const std::string prefix = TestPrefix("temp_tiling");
  Cleanup(prefix);
  auto db = TemporalFieldDatabase::Build(MakeDriftingRamp(16, 3), {});
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Save(prefix).ok());
  DropSecondSubfieldLine(prefix + ".meta", "tsf");
  const auto opened = TemporalFieldDatabase::Open(prefix);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  Cleanup(prefix);
}

}  // namespace
}  // namespace fielddb
