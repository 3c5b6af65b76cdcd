// The two page models of the band scan (RecordStore::ScanRangesFiltered,
// DESIGN.md §12). By default a scan fetches only the distinct store
// pages that hold a slot whose zone entry meets the band; a database
// built with EngineBuildOptions::read_whole_runs (the paper's page
// accesses) fetches every page of every run its plan hands the fetch
// step. Over a grid (all five methods, lattice slots), a TIN (explicit
// records) and the vector, volume and temporal fields, with seeded
// bands under both plan kinds: the models answer bit-identically
// (answers, candidates, piece order), the default fetch reads exactly
// the pages holding a zone match, the whole-run fetch every page of
// every run, and db.zonemap_pages_skipped counts the difference.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/noise_tin.h"
#include "gen/workload.h"
#include "index/subfield_maintenance.h"
#include "obs/metrics.h"
#include "storage/fault_injection.h"
#include "storage/io_sink.h"
#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

constexpr PlannerMode kPlans[] = {PlannerMode::kForceScan,
                                  PlannerMode::kForceIndex};

/// Seeded bands over `range`.
std::vector<ValueInterval> Bands(const ValueInterval& range, uint64_t seed) {
  return GenerateValueQueries(range, WorkloadOptions{0.05, 12, seed});
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

/// What both models must agree on, bit for bit.
struct Answer {
  uint64_t candidate_cells = 0;
  uint64_t answer_cells = 0;
  uint64_t inside_cells = 0;
  uint64_t region_pieces = 0;
  std::vector<uint64_t> bits;  // piece vertices in order, or the volume

  bool operator==(const Answer&) const = default;
};

Answer AnswerOf(const QueryStats& stats, std::vector<uint64_t> bits) {
  return Answer{stats.candidate_cells, stats.answer_cells, stats.inside_cells,
                stats.region_pieces, std::move(bits)};
}

/// One band's query under one page model.
struct Outcome {
  Answer answer;
  uint64_t fetch_reads = 0;    // logical page reads of the fetch step
  uint64_t skipped_pages = 0;  // growth of db.zonemap_pages_skipped
};

/// The runs a plan hands the fetch step — the index search's on an
/// indexed plan, with the logical reads the search made, or the whole
/// store on a fused one.
struct Runs {
  std::vector<PosRange> runs;
  uint64_t filter_reads = 0;
};

template <typename Search>
Runs RunsOf(PlanKind plan, uint64_t store_size, Search&& search) {
  Runs r;
  if (plan == PlanKind::kFusedScan) {
    r.runs.push_back(PosRange{0, store_size});
    return r;
  }
  IoStats io;
  {
    ScopedIoSink sink(&io);
    EXPECT_TRUE(search(&r.runs).ok());
  }
  r.filter_reads = io.logical_reads;
  return r;
}

/// The store pages (of `per_page` slots) holding a slot of `runs` whose
/// zone entry meets `key`.
template <typename Zones, typename Key>
std::set<uint64_t> MatchingPages(const Zones& zones, const Key& key,
                                 const Runs& runs, uint64_t per_page) {
  std::set<uint64_t> pages;
  for (const PosRange& run : runs.runs) {
    std::vector<PosRange> matches;
    zones.FilterRange(run, key, &matches);
    for (const PosRange& m : matches) {
      for (uint64_t p = m.begin / per_page; p <= (m.end - 1) / per_page;
           ++p) {
        pages.insert(p);
      }
    }
  }
  return pages;
}

/// The page counts `runs` imply: the distinct pages holding a zone
/// match, and the pages the runs span, each run counted.
struct Pages {
  uint64_t matching = 0;
  uint64_t spanned = 0;
};

template <typename Zones, typename Key>
Pages PagesOf(const Zones& zones, const Key& key, const Runs& runs,
              uint64_t per_page) {
  Pages pages;
  for (const PosRange& run : runs.runs) {
    pages.spanned += (run.end - 1) / per_page - run.begin / per_page + 1;
  }
  pages.matching = MatchingPages(zones, key, runs, per_page).size();
  return pages;
}

uint64_t PagesSkipped() {
  return MetricsRegistry::Default()
      .GetCounter("db.zonemap_pages_skipped")
      ->value();
}

/// Runs `query() -> Outcome` and stamps the skip counter's growth.
template <typename Query>
Outcome Measure(Query&& query) {
  const uint64_t before = PagesSkipped();
  Outcome out = query();
  out.skipped_pages = PagesSkipped() - before;
  return out;
}

/// One band under one plan: `whole` and `matching` are its outcomes on
/// the read_whole_runs and the default database, `pages` what its runs
/// imply.
void ExpectModels(const Outcome& whole, const Outcome& matching,
                  const Pages& pages, const std::string& what) {
  EXPECT_EQ(matching.answer, whole.answer) << what;
  EXPECT_EQ(matching.fetch_reads, pages.matching) << what;
  EXPECT_EQ(whole.fetch_reads, pages.spanned) << what;
  EXPECT_EQ(matching.fetch_reads + matching.skipped_pages, pages.spanned)
      << what;
  EXPECT_EQ(whole.skipped_pages, 0u) << what;
}

std::string What(double band_min, PlannerMode mode) {
  return "band " + std::to_string(band_min) + " mode " +
         std::to_string(static_cast<int>(mode));
}

// --- Grid and TIN ------------------------------------------------------

/// Builds `field` under `method` and both page models and checks every
/// seeded band under both plan kinds through the grid facade, reading
/// the fetch span of each traced query.
void CheckFieldDatabase(const Field& field, IndexMethod method) {
  std::unique_ptr<FieldDatabase> dbs[2];  // indexed by read_whole_runs
  for (const bool whole : {false, true}) {
    FieldDatabaseOptions options;
    options.method = method;
    options.build_spatial_index = false;
    options.read_whole_runs = whole;
    auto db = FieldDatabase::Build(field, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    dbs[whole] = std::move(db).value();
  }
  const ValueIndex& index = dbs[0]->index();
  const CellStore& store = index.cell_store();
  uint64_t answers = 0;
  uint64_t skipped = 0;
  for (const ValueInterval& band : Bands(field.ValueRange(), 13)) {
    for (const PlannerMode mode : kPlans) {
      const Runs runs = RunsOf(dbs[0]->planner().Plan(band, mode).kind,
                               store.size(), [&](std::vector<PosRange>* out) {
                                 return index.FilterCandidateRanges(band, out);
                               });
      Outcome got[2];
      for (const bool whole : {false, true}) {
        FieldDatabase& db = *dbs[whole];
        db.set_planner_mode(mode);
        got[whole] = Measure([&] {
          ValueQueryResult r;
          EXPECT_TRUE(db.Query({.bands = {&band, 1}, .trace = true}, {&r, 1})
                          .ok());
          Outcome o;
          o.answer = AnswerOf(r.stats, Bits(r.region));
          const TraceSpan* fetch = r.stats.trace->Find("fetch");
          EXPECT_NE(fetch, nullptr);
          if (fetch != nullptr) o.fetch_reads = fetch->io.logical_reads;
          return o;
        });
      }
      ExpectModels(got[1], got[0],
                   PagesOf(store.zone_map(), band, runs,
                           store.cells_per_page()),
                   What(band.min, mode));
      answers += got[0].answer.answer_cells;
      skipped += got[0].skipped_pages;
    }
  }
  EXPECT_GT(answers, 0u);
  EXPECT_GT(skipped, 0u) << "no band left a page unread";
}

class GridPageModelTest : public ::testing::TestWithParam<IndexMethod> {};

TEST_P(GridPageModelTest, ModelsAgreeAndReadWhatTheyShould) {
  FractalOptions fo;
  fo.size_exp = 6;  // 64x64 cells as 40-byte lattice slots
  fo.roughness_h = 0.7;
  fo.seed = 17;
  const GridField field = MakeFractalField(fo).value();
  ASSERT_TRUE(field.Lattice().has_value());
  CheckFieldDatabase(field, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Methods, GridPageModelTest,
    ::testing::Values(IndexMethod::kLinearScan, IndexMethod::kIAll,
                      IndexMethod::kIHilbert, IndexMethod::kIntervalQuadtree,
                      IndexMethod::kRowIp),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

class TinPageModelTest : public ::testing::TestWithParam<IndexMethod> {};

TEST_P(TinPageModelTest, ModelsAgreeAndReadWhatTheyShould) {
  NoiseTinOptions options;
  options.num_sites = 600;  // explicit 104-byte cell records
  const TinField field = MakeUrbanNoiseTin(options).value();
  ASSERT_FALSE(field.Lattice().has_value());
  CheckFieldDatabase(field, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Methods, TinPageModelTest,
    ::testing::Values(IndexMethod::kLinearScan, IndexMethod::kIAll,
                      IndexMethod::kIHilbert),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// --- Extensions --------------------------------------------------------
// Their queries are not traced: the fetch step's reads are the query's
// minus the index search's, which RunsOf repeats and counts.

VectorGridField MakeVectorField() {
  FractalOptions fo;
  fo.size_exp = 5;
  fo.roughness_h = 0.6;
  fo.seed = 41;
  const std::vector<double> u = DiamondSquare(fo);
  fo.seed = 43;
  const std::vector<double> v = DiamondSquare(fo);
  return VectorGridField::Create(32, 32, Rect2{{0, 0}, {1, 1}}, u, v)
      .value();
}

class VectorPageModelTest
    : public ::testing::TestWithParam<VectorIndexMethod> {};

TEST_P(VectorPageModelTest, ModelsAgreeAndReadWhatTheyShould) {
  const VectorGridField field = MakeVectorField();
  std::unique_ptr<VectorFieldDatabase> dbs[2];
  for (const bool whole : {false, true}) {
    VectorFieldDatabase::Options options;
    options.method = GetParam();
    options.read_whole_runs = whole;
    auto db = VectorFieldDatabase::Build(field, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    dbs[whole] = std::move(db).value();
  }
  const uint64_t per_page =
      dbs[0]->pool().file()->page_size() / sizeof(VectorCellRecord);
  const Box<2> box = field.ValueRangeBox();
  const ValueInterval range{std::min(box.lo[0], box.lo[1]),
                            std::max(box.hi[0], box.hi[1])};
  uint64_t answers = 0;
  for (const ValueInterval& band : Bands(range, 5)) {
    // u in the band, v in its mirror image.
    const VectorBandQuery q{band, {range.min + range.max - band.max,
                                   range.min + range.max - band.min}};
    for (const PlannerMode mode : kPlans) {
      dbs[0]->set_planner_mode(mode);
      const Runs runs = RunsOf(dbs[0]->PlanBandQuery(q).kind,
                               dbs[0]->num_cells(),
                               [&](std::vector<PosRange>* out) {
                                 return SearchRunEntries(
                                     *dbs[0]->tree(), dbs[0]->subfields(),
                                     q.AsBox(), out);
                               });
      Outcome got[2];
      for (const bool whole : {false, true}) {
        VectorFieldDatabase& db = *dbs[whole];
        db.set_planner_mode(mode);
        got[whole] = Measure([&] {
          VectorQueryResult r;
          EXPECT_TRUE(db.BandQuery(q, &r).ok());
          return Outcome{AnswerOf(r.stats, Bits(r.region)),
                         r.stats.io.logical_reads - runs.filter_reads};
        });
      }
      ExpectModels(got[1], got[0],
                   PagesOf(dbs[0]->zone_map(), q.AsBox(), runs, per_page),
                   What(band.min, mode));
      answers += got[0].answer.answer_cells;
    }
  }
  EXPECT_GT(answers, 0u);
}

INSTANTIATE_TEST_SUITE_P(Methods, VectorPageModelTest,
                         ::testing::Values(VectorIndexMethod::kLinearScan,
                                           VectorIndexMethod::kIHilbert));

class VolumePageModelTest
    : public ::testing::TestWithParam<VolumeIndexMethod> {};

TEST_P(VolumePageModelTest, ModelsAgreeAndReadWhatTheyShould) {
  VolumeFractalOptions fo;
  fo.nx = fo.ny = fo.nz = 12;
  const VolumeGridField field = MakeFractalVolume(fo).value();
  std::unique_ptr<VolumeFieldDatabase> dbs[2];
  for (const bool whole : {false, true}) {
    VolumeFieldDatabase::Options options;
    options.method = GetParam();
    options.read_whole_runs = whole;
    auto db = VolumeFieldDatabase::Build(field, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    dbs[whole] = std::move(db).value();
  }
  const uint64_t per_page =
      dbs[0]->pool().file()->page_size() / sizeof(VoxelRecord);
  uint64_t answers = 0;
  for (const ValueInterval& band : Bands(field.ValueRange(), 7)) {
    for (const PlannerMode mode : kPlans) {
      dbs[0]->set_planner_mode(mode);
      const Runs runs = RunsOf(dbs[0]->PlanBandQuery(band).kind,
                               dbs[0]->num_cells(),
                               [&](std::vector<PosRange>* out) {
                                 return SearchRunEntries(
                                     *dbs[0]->tree(), dbs[0]->subfields(),
                                     BoxFromInterval(band), out);
                               });
      Outcome got[2];
      for (const bool whole : {false, true}) {
        VolumeFieldDatabase& db = *dbs[whole];
        db.set_planner_mode(mode);
        got[whole] = Measure([&] {
          VolumeQueryResult r;
          EXPECT_TRUE(db.BandQuery(band, &r).ok());
          return Outcome{
              AnswerOf(r.stats, {std::bit_cast<uint64_t>(r.volume)}),
              r.stats.io.logical_reads - runs.filter_reads};
        });
      }
      ExpectModels(got[1], got[0],
                   PagesOf(dbs[0]->zone_map(), band, runs, per_page),
                   What(band.min, mode));
      answers += got[0].answer.answer_cells;
    }
  }
  EXPECT_GT(answers, 0u);
}

INSTANTIATE_TEST_SUITE_P(Methods, VolumePageModelTest,
                         ::testing::Values(VolumeIndexMethod::kLinearScan,
                                           VolumeIndexMethod::kIHilbert));

TEST(TemporalPageModelTest, ModelsAgreeAndReadWhatTheyShould) {
  FractalOptions fo;
  fo.size_exp = 5;
  fo.roughness_h = 0.7;
  fo.seed = 51;
  const std::vector<double> base = DiamondSquare(fo);
  fo.seed = 52;
  const std::vector<double> trend = DiamondSquare(fo);
  std::vector<std::vector<double>> snapshots(3);
  for (uint32_t k = 0; k < snapshots.size(); ++k) {
    for (size_t i = 0; i < base.size(); ++i) {
      snapshots[k].push_back(base[i] + 0.3 * k * trend[i]);
    }
  }
  const TemporalGridField field =
      TemporalGridField::Create(32, 32, Rect2{{0, 0}, {1, 1}},
                                std::move(snapshots))
          .value();
  std::unique_ptr<TemporalFieldDatabase> dbs[2];
  for (const bool whole : {false, true}) {
    TemporalFieldDatabase::Options options;
    options.read_whole_runs = whole;
    auto db = TemporalFieldDatabase::Build(field, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    dbs[whole] = std::move(db).value();
  }
  const uint64_t per_page =
      dbs[0]->pool().file()->page_size() / sizeof(TemporalSlabRecord);
  uint64_t answers = 0;
  for (const double t : {0.3, 1.0, 1.6}) {
    const uint32_t slab = std::min<uint32_t>(
        static_cast<uint32_t>(std::floor(t)), dbs[0]->num_slabs() - 1);
    for (const ValueInterval& band : Bands(field.ValueRange(), 9)) {
      for (const PlannerMode mode : kPlans) {
        dbs[0]->set_planner_mode(mode);
        const Runs runs = RunsOf(
            dbs[0]->PlanSnapshotQuery(t, band).kind, dbs[0]->num_cells(),
            [&](std::vector<PosRange>* out) {
              Box<2> query;
              query.lo = {band.min, t};
              query.hi = {band.max, t};
              std::vector<PosRange> hits;
              const Status s =
                  dbs[0]->tree().Search(query, [&](const RTreeEntry<2>& e) {
                    if (e.a == slab) {
                      const Subfield& sf = dbs[0]->slab_subfields(slab)[e.b];
                      hits.push_back(PosRange{sf.start, sf.end});
                    }
                    return true;
                  });
              MergeRuns(&hits, out);
              return s;
            });
        Outcome got[2];
        for (const bool whole : {false, true}) {
          TemporalFieldDatabase& db = *dbs[whole];
          db.set_planner_mode(mode);
          got[whole] = Measure([&] {
            ValueQueryResult r;
            EXPECT_TRUE(db.SnapshotValueQuery(t, band, &r).ok());
            return Outcome{AnswerOf(r.stats, Bits(r.region)),
                           r.stats.io.logical_reads - runs.filter_reads};
          });
        }
        ExpectModels(got[1], got[0],
                     PagesOf(dbs[0]->slab_zone_map(slab), band, runs,
                             per_page),
                     "t=" + std::to_string(t) + " " + What(band.min, mode));
        answers += got[0].answer.answer_cells;
      }
    }
  }
  EXPECT_GT(answers, 0u);
}

// --- Build setting -----------------------------------------------------

GridField SmallFractal() {
  FractalOptions fo;
  fo.size_exp = 6;
  fo.roughness_h = 0.7;
  fo.seed = 7;
  return MakeFractalField(fo).value();
}

/// The fused scan's fetch reads for `band`.
uint64_t FusedFetchReads(const FieldDatabase& db, const ValueInterval& band) {
  ValueQueryResult r;
  EXPECT_TRUE(db.Query({.bands = {&band, 1}, .trace = true}, {&r, 1}).ok());
  const TraceSpan* fetch = r.stats.trace->Find("fetch");
  return fetch == nullptr ? 0 : fetch->io.logical_reads;
}

TEST(PageModelTest, ReopenedDatabaseReadsOnlyMatchingPages) {
  // read_whole_runs is a build setting, not in the catalog: a reopened
  // database reads only the pages that hold a match.
  const std::string prefix = TestTempDir() + "/fielddb_page_model_reopen";
  const GridField field = SmallFractal();
  FieldDatabaseOptions options;
  options.method = IndexMethod::kLinearScan;
  options.read_whole_runs = true;
  auto built = FieldDatabase::Build(field, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->Save(prefix).ok());
  auto opened = FieldDatabase::Open(prefix);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  const CellStore& store = (*opened)->index().cell_store();
  const ValueInterval range = field.ValueRange();
  const ValueInterval band{range.min, range.min + 0.05 * range.Length()};
  const Pages pages =
      PagesOf(store.zone_map(), band, Runs{{PosRange{0, store.size()}}},
              store.cells_per_page());
  ASSERT_LT(pages.matching, pages.spanned);
  (*built)->set_planner_mode(PlannerMode::kForceScan);
  (*opened)->set_planner_mode(PlannerMode::kForceScan);
  EXPECT_EQ(FusedFetchReads(**built, band), pages.spanned);
  EXPECT_EQ(FusedFetchReads(**opened, band), pages.matching);
  opened->reset();
  std::remove((prefix + ".pages").c_str());
  std::remove((prefix + ".meta").c_str());
}

TEST(PageModelTest, CorruptPageWithoutAMatchIsNotRead) {
  // A corrupt store page that holds no match for the band is not read
  // by the default scan, which answers as the intact database did; the
  // whole-run scan reads it and fails; scrub reports it either way.
  const GridField field = SmallFractal();
  const ValueInterval range = field.ValueRange();
  const ValueInterval band{range.min, range.min + 0.05 * range.Length()};
  for (const bool whole : {false, true}) {
    FaultInjectingPageFile* injector = nullptr;
    FieldDatabaseOptions options;
    options.method = IndexMethod::kLinearScan;
    options.planner_mode = PlannerMode::kForceScan;
    options.read_whole_runs = whole;
    options.page_file_factory = [&injector](uint32_t page_size) {
      auto wrapped = std::make_unique<FaultInjectingPageFile>(
          std::make_unique<MemPageFile>(page_size));
      injector = wrapped.get();
      return wrapped;
    };
    auto db = FieldDatabase::Build(field, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ValueQueryResult intact;
    ASSERT_TRUE((*db)->Query({.bands = {&band, 1}}, {&intact, 1}).ok());

    const CellStore& store = (*db)->index().cell_store();
    const std::set<uint64_t> matching =
        MatchingPages(store.zone_map(), band,
                      Runs{{PosRange{0, store.size()}}},
                      store.cells_per_page());
    uint64_t unmatched = 0;
    while (matching.count(unmatched) > 0) ++unmatched;
    ASSERT_LT(unmatched * store.cells_per_page(), store.size());
    const PageId corrupt = store.records().first_page() + unmatched;
    injector->CorruptPage(corrupt);
    ASSERT_TRUE((*db)->pool().Clear().ok());

    ValueQueryResult after;
    const Status s = (*db)->Query({.bands = {&band, 1}}, {&after, 1});
    if (whole) {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    } else {
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(after.stats.answer_cells, intact.stats.answer_cells);
      EXPECT_EQ(Bits(after.region), Bits(intact.region));
    }
    FieldDatabase::ScrubReport report;
    ASSERT_TRUE((*db)->Scrub(&report).ok());
    EXPECT_EQ(report.corrupt_pages, std::vector<PageId>{corrupt});
  }
}

}  // namespace
}  // namespace fielddb
