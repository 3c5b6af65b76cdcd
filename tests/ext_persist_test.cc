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

#include "storage/page_file.h"
#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"
#include "catalog_sign.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

std::string TestPrefix(const std::string& tag) {
  return TestTempDir() + "/fielddb_ext_persist_" + tag;
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
  ResignCatalog(path);
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
  ResignCatalog(prefix + ".meta");
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

// Saves a 16x16, 3-snapshot temporal database, rewrites the subfield
// index b of leaf entry 0 of its tree's first leaf to `forge(b, rows)`
// (rows: the size of that entry's slab table) under a valid page
// checksum, and checks that Open finds nothing wrong while the search
// reports the entry as corrupt: the band scan falls back to the store
// with the intact answers and the time-range search fails.
void ExpectForgedTemporalEntryFallsBack(
    const std::string& tag, uint64_t (*forge)(uint64_t b, size_t rows)) {
  const std::string prefix = TestPrefix(tag);
  Cleanup(prefix);
  auto built = TemporalFieldDatabase::Build(MakeDriftingRamp(16, 3), {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->Save(prefix).ok());

  std::ifstream meta(prefix + ".meta");
  uint64_t page_size = 0, epoch = 0, root = 0;
  for (std::string key; meta >> key; std::getline(meta, key)) {
    if (key == "page_size") meta >> page_size;
    if (key == "epoch") meta >> epoch;
    if (key == "tree") meta >> root;
  }
  ASSERT_NE(page_size, 0u);
  // Node pages are [level u32][count u32][8 reserved][entries], a 2-D
  // entry [lo f64 f64][hi f64 f64][a u64][b u64] (a: slab or child, b:
  // subfield).
  ValueInterval band;
  uint64_t slab = 0;
  {
    auto f = DiskPageFile::Open(prefix + ".pages",
                                static_cast<uint32_t>(page_size),
                                static_cast<uint32_t>(epoch));
    ASSERT_TRUE(f.ok());
    Page page(static_cast<uint32_t>(page_size));
    PageId id = root;
    ASSERT_TRUE((*f)->Read(id, &page).ok());
    while (page.ReadAt<uint32_t>(0) > 0) {
      id = page.ReadAt<uint64_t>(48);
      ASSERT_TRUE((*f)->Read(id, &page).ok());
    }
    band = ValueInterval{page.ReadAt<double>(16), page.ReadAt<double>(32)};
    slab = page.ReadAt<uint64_t>(48);
    page.WriteAt<uint64_t>(
        56, forge(page.ReadAt<uint64_t>(56),
                  (*built)->slab_subfields(static_cast<uint32_t>(slab))
                      .size()));
    ASSERT_TRUE((*f)->Write(id, page).ok());
  }
  auto opened = TemporalFieldDatabase::Open(prefix);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  (*built)->set_planner_mode(PlannerMode::kForceIndex);
  (*opened)->set_planner_mode(PlannerMode::kForceIndex);

  const double t = static_cast<double>(slab) + 0.5;
  ValueQueryResult expected, actual;
  ASSERT_TRUE((*built)->SnapshotValueQuery(t, band, &expected).ok());
  const Status s = (*opened)->SnapshotValueQuery(t, band, &actual);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(actual.stats.index_fallbacks, 1u);
  EXPECT_EQ((*opened)->index_fallbacks(), 1u);
  EXPECT_GT(expected.stats.answer_cells, 0u);
  EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
  EXPECT_EQ(actual.region.NumPieces(), expected.region.NumPieces());
  EXPECT_EQ(actual.region.TotalArea(), expected.region.TotalArea());

  std::vector<CellId> ids;
  EXPECT_EQ((*opened)->TimeRangeCandidates(band, t, t, &ids).code(),
            StatusCode::kCorruption);
  opened->reset();
  Cleanup(prefix);
}

TEST(TemporalPersistTest, ForgedLeafEntryFallsBackToTheStore) {
  // A subfield index past its slab's table: never read past the table.
  ExpectForgedTemporalEntryFallsBack(
      "forged_leaf", [](uint64_t, size_t) { return uint64_t{1} << 40; });
}

TEST(TemporalPersistTest, ForgedEntryWithinTheTableFallsBackToTheStore) {
  // Another row of the same table: the entry is no longer that row's
  // key × slab, so its run must not replace the true one.
  ExpectForgedTemporalEntryFallsBack(
      "forged_row", [](uint64_t b, size_t rows) {
        return b + 1 < rows ? b + 1 : b - 1;
      });
}

// --- Forged subfield run ----------------------------------------------
// A subfield tree leaf entry whose run is moved within the store under a
// valid page checksum: the search must find that the entry is no longer
// its subfield's row and report a corrupt index page, so the band scan
// falls back to the store instead of silently dropping the run's first
// cell.

// Starts the run of leaf entry 0 of the first leaf of the subfield tree
// saved under `prefix` one slot late, at the catalog's epoch, and
// returns the entry's box. Node pages are [level u32][count u32]
// [8 reserved][entries], an entry [lo f64 x Dim][hi f64 x Dim][a u64]
// [b u64]; a is the run start (a child page in an inner node).
template <int Dim>
void ShiftFirstLeafRun(const std::string& prefix, Box<Dim>* box) {
  std::ifstream meta(prefix + ".meta");
  uint64_t page_size = 0, epoch = 0, root = 0;
  for (std::string key; meta >> key; std::getline(meta, key)) {
    if (key == "page_size") meta >> page_size;
    if (key == "epoch") meta >> epoch;
    if (key == "tree") meta >> root;
  }
  ASSERT_NE(page_size, 0u);
  auto f = DiskPageFile::Open(prefix + ".pages",
                              static_cast<uint32_t>(page_size),
                              static_cast<uint32_t>(epoch));
  ASSERT_TRUE(f.ok());
  constexpr uint32_t kEntry = 16;
  constexpr uint32_t kA = kEntry + 16 * Dim;
  Page page(static_cast<uint32_t>(page_size));
  PageId id = root;
  ASSERT_TRUE((*f)->Read(id, &page).ok());
  while (page.ReadAt<uint32_t>(0) > 0) {
    id = page.ReadAt<uint64_t>(kA);
    ASSERT_TRUE((*f)->Read(id, &page).ok());
  }
  for (int d = 0; d < Dim; ++d) {
    box->lo[d] = page.ReadAt<double>(kEntry + 8 * d);
    box->hi[d] = page.ReadAt<double>(kEntry + 8 * (Dim + d));
  }
  page.WriteAt<uint64_t>(kA, page.ReadAt<uint64_t>(kA) + 1);
  ASSERT_TRUE((*f)->Write(id, page).ok());
}

TEST(ForgedRunTest, VectorRunWithinTheStoreFallsBack) {
  const std::string prefix = TestPrefix("forged_run_vec");
  Cleanup(prefix);
  VectorFieldDatabase::Options options;
  options.method = VectorIndexMethod::kIHilbert;
  auto built = VectorFieldDatabase::Build(MakeAffineVectorField(12), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->Save(prefix).ok());
  Box<2> box = Box<2>::Empty();
  ASSERT_NO_FATAL_FAILURE(ShiftFirstLeafRun(prefix, &box));

  auto opened = VectorFieldDatabase::Open(prefix);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  (*built)->set_planner_mode(PlannerMode::kForceIndex);
  (*opened)->set_planner_mode(PlannerMode::kForceIndex);
  const VectorBandQuery q{{box.lo[0], box.hi[0]}, {box.lo[1], box.hi[1]}};
  VectorQueryResult expected, actual;
  ASSERT_TRUE((*built)->BandQuery(q, &expected).ok());
  ASSERT_TRUE((*opened)->BandQuery(q, &actual).ok());
  EXPECT_EQ(actual.stats.index_fallbacks, 1u);
  EXPECT_EQ((*opened)->index_fallbacks(), 1u);
  EXPECT_GT(expected.stats.answer_cells, 0u);
  EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
  EXPECT_EQ(actual.region.NumPieces(), expected.region.NumPieces());
  EXPECT_EQ(actual.region.TotalArea(), expected.region.TotalArea());
  opened->reset();
  Cleanup(prefix);
}

TEST(ForgedRunTest, VolumeRunWithinTheStoreFallsBack) {
  const std::string prefix = TestPrefix("forged_run_vol");
  Cleanup(prefix);
  VolumeFieldDatabase::Options options;
  options.method = VolumeIndexMethod::kIHilbert;
  auto built = VolumeFieldDatabase::Build(MakeVolume(), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->Save(prefix).ok());
  Box<1> box = Box<1>::Empty();
  ASSERT_NO_FATAL_FAILURE(ShiftFirstLeafRun(prefix, &box));

  auto opened = VolumeFieldDatabase::Open(prefix);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  (*built)->set_planner_mode(PlannerMode::kForceIndex);
  (*opened)->set_planner_mode(PlannerMode::kForceIndex);
  const ValueInterval band{box.lo[0], box.hi[0]};
  VolumeQueryResult expected, actual;
  ASSERT_TRUE((*built)->BandQuery(band, &expected).ok());
  ASSERT_TRUE((*opened)->BandQuery(band, &actual).ok());
  EXPECT_EQ(actual.stats.index_fallbacks, 1u);
  EXPECT_EQ((*opened)->index_fallbacks(), 1u);
  EXPECT_GT(expected.stats.answer_cells, 0u);
  EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
  EXPECT_EQ(actual.volume, expected.volume);
  opened->reset();
  Cleanup(prefix);
}

// --- Corrupt tree root ------------------------------------------------
// The subfield tree only accelerates the store: a root that fails its
// checksum must not stop Open, and an indexed query falls back to the
// full store scan with the intact database's answers.

// Flips a payload byte of the page the catalog names as the tree root.
void CorruptTreeRoot(const std::string& prefix) {
  std::ifstream meta(prefix + ".meta");
  uint64_t page_size = 0;
  uint64_t root = 0;
  for (std::string key; meta >> key; std::getline(meta, key)) {
    if (key == "page_size") meta >> page_size;
    if (key == "tree") meta >> root;
  }
  ASSERT_NE(page_size, 0u);
  ASSERT_NE(root, 0u);  // the store comes first, the tree after it
  // epoch 0 = skip the epoch check; we want raw byte access only.
  auto f = DiskPageFile::Open(prefix + ".pages",
                              static_cast<uint32_t>(page_size), 0);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->CorruptRawForTest(root, kPageHeaderSize + 50, 0x08).ok());
}

TEST(CorruptTreeRootTest, VectorOpensAndFallsBack) {
  const std::string prefix = TestPrefix("root_vec");
  Cleanup(prefix);
  VectorFieldDatabase::Options options;
  options.method = VectorIndexMethod::kIHilbert;
  auto built = VectorFieldDatabase::Build(MakeAffineVectorField(12), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->Save(prefix).ok());
  CorruptTreeRoot(prefix);

  auto opened = VectorFieldDatabase::Open(prefix);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  (*opened)->set_planner_mode(PlannerMode::kForceIndex);
  const VectorBandQuery q{{0.4, 0.6}, {-0.1, 0.1}};
  VectorQueryResult expected, actual;
  ASSERT_TRUE((*built)->BandQuery(q, &expected).ok());
  ASSERT_TRUE((*opened)->BandQuery(q, &actual).ok());
  EXPECT_EQ(actual.stats.index_fallbacks, 1u);
  EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
  EXPECT_DOUBLE_EQ(actual.region.TotalArea(), expected.region.TotalArea());
  opened->reset();
  Cleanup(prefix);
}

TEST(CorruptTreeRootTest, VolumeOpensAndFallsBack) {
  const std::string prefix = TestPrefix("root_vol");
  Cleanup(prefix);
  const VolumeGridField field = MakeVolume();
  VolumeFieldDatabase::Options options;
  options.method = VolumeIndexMethod::kIHilbert;
  auto built = VolumeFieldDatabase::Build(field, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->Save(prefix).ok());
  CorruptTreeRoot(prefix);

  auto opened = VolumeFieldDatabase::Open(prefix);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  (*opened)->set_planner_mode(PlannerMode::kForceIndex);
  const ValueInterval range = field.ValueRange();
  const ValueInterval band{range.min + 0.45 * (range.max - range.min),
                           range.min + 0.55 * (range.max - range.min)};
  VolumeQueryResult expected, actual;
  ASSERT_TRUE((*built)->BandQuery(band, &expected).ok());
  ASSERT_TRUE((*opened)->BandQuery(band, &actual).ok());
  EXPECT_EQ(actual.stats.index_fallbacks, 1u);
  EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
  EXPECT_DOUBLE_EQ(actual.volume, expected.volume);
  opened->reset();
  Cleanup(prefix);
}

TEST(CorruptTreeRootTest, TemporalOpensAndFallsBack) {
  const std::string prefix = TestPrefix("root_temp");
  Cleanup(prefix);
  auto built = TemporalFieldDatabase::Build(MakeDriftingRamp(8, 4), {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->Save(prefix).ok());
  CorruptTreeRoot(prefix);

  auto opened = TemporalFieldDatabase::Open(prefix);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  (*opened)->set_planner_mode(PlannerMode::kForceIndex);
  const ValueInterval band{4.0, 9.0};
  ValueQueryResult expected, actual;
  ASSERT_TRUE((*built)->SnapshotValueQuery(1.5, band, &expected).ok());
  ASSERT_TRUE((*opened)->SnapshotValueQuery(1.5, band, &actual).ok());
  EXPECT_EQ(actual.stats.index_fallbacks, 1u);
  EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
  EXPECT_DOUBLE_EQ(actual.region.TotalArea(), expected.region.TotalArea());
  opened->reset();
  Cleanup(prefix);
}

}  // namespace
}  // namespace fielddb
