#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/explain.h"
#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/monotonic.h"
#include "gen/workload.h"
#include "storage/page_file.h"
#include "catalog_sign.h"
#include "query_util.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

class PersistTest : public ::testing::TestWithParam<IndexMethod> {
 protected:
  void SetUp() override {
    prefix_ = TestTempDir() + "/fielddb_persist_" +
              std::to_string(static_cast<int>(GetParam()));
    Cleanup();
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    std::remove((prefix_ + ".pages").c_str());
    std::remove((prefix_ + ".meta").c_str());
  }
  std::string prefix_;
};

TEST_P(PersistTest, SaveOpenRoundTripAnswersMatch) {
  FractalOptions fo;
  fo.size_exp = 5;
  fo.roughness_h = 0.6;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());

  FieldDatabaseOptions options;
  options.method = GetParam();
  auto original = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE((*original)->Save(prefix_).ok());

  auto reopened = FieldDatabase::Open(prefix_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->method(), GetParam());
  EXPECT_EQ((*reopened)->build_info().num_cells, field->NumCells());
  EXPECT_EQ((*reopened)->value_range(), (*original)->value_range());
  EXPECT_EQ((*reopened)->domain(), (*original)->domain());

  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.03, 15, 61});
  for (const ValueInterval& q : queries) {
    ValueQueryResult expected, actual;
    ASSERT_TRUE(QueryOne(**original, q, &expected).ok());
    ASSERT_TRUE(QueryOne(**reopened, q, &actual).ok());
    EXPECT_NEAR(actual.region.TotalArea(), expected.region.TotalArea(),
                1e-9);
    EXPECT_EQ(actual.stats.candidate_cells, expected.stats.candidate_cells);
    EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
  }
}

TEST_P(PersistTest, PointQueriesSurvive) {
  auto field = MakeMonotonicField(16, 16);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = GetParam();
  auto original = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE((*original)->Save(prefix_).ok());
  auto reopened = FieldDatabase::Open(prefix_);
  ASSERT_TRUE(reopened.ok());
  for (const Point2 p :
       {Point2{0.1, 0.9}, Point2{0.5, 0.5}, Point2{0.99, 0.01}}) {
    EXPECT_NEAR(*(*reopened)->PointQuery(p), p.x + p.y, 1e-12);
  }
}

TEST_P(PersistTest, UpdatesAfterReopen) {
  auto field = MakeMonotonicField(8, 8);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = GetParam();
  auto original = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE((*original)->Save(prefix_).ok());
  auto reopened = FieldDatabase::Open(prefix_);
  ASSERT_TRUE(reopened.ok());

  ASSERT_TRUE(
      (*reopened)->UpdateCellValues(3, {400.0, 400, 400, 400}).ok());
  ValueQueryResult result;
  ASSERT_TRUE(
      QueryOne(**reopened, ValueInterval{399, 401}, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, PersistTest,
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

TEST(PersistErrorsTest, OpenMissingFiles) {
  auto db = FieldDatabase::Open(TestTempDir() + "/no_such_db");
  EXPECT_FALSE(db.ok());
}

TEST(PersistErrorsTest, CorruptMetaRejected) {
  const std::string prefix = TestTempDir() + "/fielddb_corrupt";
  std::FILE* f = std::fopen((prefix + ".meta").c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not-a-catalog at all\n", f);
  std::fclose(f);
  auto db = FieldDatabase::Open(prefix);
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
  std::remove((prefix + ".meta").c_str());
}

// ---------------------------------------------------------------------
// Catalog validation: every numerically absurd value must be rejected as
// kCorruption naming the offending key, never acted on.

std::string ReadTextFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteTextFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc);
  out << contents;
}

// Replaces the first catalog line starting with `key ` by `replacement`
// (which must include the key itself). Returns false if no line matched.
bool ReplaceMetaLine(const std::string& path, const std::string& key,
                     const std::string& replacement) {
  const std::string contents = ReadTextFile(path);
  const std::string prefix = key + " ";
  size_t pos = 0;
  while (pos < contents.size()) {
    const size_t eol = contents.find('\n', pos);
    const size_t end = eol == std::string::npos ? contents.size() : eol;
    if (contents.compare(pos, prefix.size(), prefix) == 0) {
      WriteTextFile(path, contents.substr(0, pos) + replacement +
                              contents.substr(end));
      ResignCatalog(path);
      return true;
    }
    pos = end + 1;
  }
  return false;
}

uint64_t MetaValueOf(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string k;
  uint64_t v = 0;
  while (in >> k) {
    if (k == key) {
      in >> v;
      return v;
    }
    std::getline(in, k);  // skip the rest of the line
  }
  ADD_FAILURE() << "key " << key << " not found in " << path;
  return 0;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

class MetaValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = TestTempDir() + "/fielddb_meta_validation";
    Cleanup();
    auto field = MakeMonotonicField(8, 8);
    ASSERT_TRUE(field.ok());
    FieldDatabaseOptions options;
    options.method = IndexMethod::kIHilbert;  // so the catalog has sf lines
    auto db = FieldDatabase::Build(*field, options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Save(prefix_).ok());
    meta_path_ = prefix_ + ".meta";
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    for (const char* suffix :
         {".pages", ".meta", ".pages.tmp", ".meta.tmp"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  // Mutates one catalog line and asserts Open reports kCorruption whose
  // message names `expect_in_message`.
  void ExpectRejected(const std::string& key, const std::string& line,
                      const std::string& expect_in_message) {
    ASSERT_TRUE(ReplaceMetaLine(meta_path_, key, line));
    auto db = FieldDatabase::Open(prefix_);
    ASSERT_FALSE(db.ok());
    EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
    EXPECT_NE(db.status().message().find(expect_in_message),
              std::string::npos)
        << db.status().ToString();
  }

  std::string prefix_;
  std::string meta_path_;
};

TEST_F(MetaValidationTest, RejectsZeroPageSize) {
  ExpectRejected("page_size", "page_size 0", "page_size");
}

TEST_F(MetaValidationTest, RejectsAbsurdPageSize) {
  ExpectRejected("page_size", "page_size 4294967295", "page_size");
}

TEST_F(MetaValidationTest, RejectsOutOfRangeMethod) {
  ExpectRejected("method", "method 99", "method");
}

TEST_F(MetaValidationTest, RejectsNonFiniteValueRange) {
  ExpectRejected("value_range", "value_range nan 1", "value_range");
}

TEST_F(MetaValidationTest, RejectsInvertedValueRange) {
  ExpectRejected("value_range", "value_range 5 -5", "value_range");
}

TEST_F(MetaValidationTest, RejectsNonFiniteDomain) {
  ExpectRejected("domain", "domain 0 0 inf 1", "domain");
}

TEST_F(MetaValidationTest, RejectsSubfieldCountMismatch) {
  ExpectRejected("subfields", "subfields 999", "subfields");
}

TEST_F(MetaValidationTest, RejectsInvertedSubfield) {
  ExpectRejected("sf", "sf 5 2 0 1 1", "sf");
}

TEST_F(MetaValidationTest, RejectsNonFiniteSubfieldInterval) {
  ExpectRejected("sf", "sf 0 2 nan 1 1", "sf");
}

TEST_F(MetaValidationTest, RejectsOutOfRangeTreeRoot) {
  ExpectRejected("tree", "tree 999999 1 64 1", "tree");
}

TEST_F(MetaValidationTest, RejectsV1Catalog) {
  const std::string contents = ReadTextFile(meta_path_);
  WriteTextFile(meta_path_,
                "fielddb-meta-v1" + contents.substr(contents.find('\n')));
  ResignCatalog(meta_path_);
  auto db = FieldDatabase::Open(prefix_);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
  EXPECT_NE(db.status().message().find("v1"), std::string::npos);
}

TEST_F(MetaValidationTest, CorruptStorePageFailsOpenWithChecksumError) {
  const uint32_t page_size =
      static_cast<uint32_t>(MetaValueOf(meta_path_, "page_size"));
  const PageId store_page = MetaValueOf(meta_path_, "store_first_page");
  {
    // epoch 0 = skip the epoch check; we want raw byte access only.
    auto f = DiskPageFile::Open(prefix_ + ".pages", page_size, 0);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(
        (*f)->CorruptRawForTest(store_page, kPageHeaderSize + 3, 0x40).ok());
  }
  // The cell store is scanned during attach, so the flip surfaces as a
  // checksum failure at Open, naming the page.
  auto db = FieldDatabase::Open(prefix_);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
  EXPECT_NE(db.status().message().find("checksum"), std::string::npos)
      << db.status().ToString();
}

TEST(CorruptTreeRootTest, OpensAndFallsBackToTheStore) {
  // The trees only accelerate the store: a value-tree or spatial-tree
  // root that fails its checksum must not stop Open. Value queries fall
  // back to the full store scan with identical answers, EXPLAIN reports
  // the degradation, and scrub lists both roots. A grid builds no
  // spatial tree, so the fractal goes in as explicit cells.
  const std::string prefix = TestTempDir() + "/fielddb_corrupt_root";
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = IndexMethod::kIHilbert;
  auto intact = FieldDatabase::Build(ExplicitCellsField(*field), options);
  ASSERT_TRUE(intact.ok());
  ASSERT_TRUE((*intact)->Save(prefix).ok());

  const std::string meta = prefix + ".meta";
  std::vector<PageId> roots = {MetaValueOf(meta, "tree"),
                               MetaValueOf(meta, "spatial")};
  std::sort(roots.begin(), roots.end());
  {
    // epoch 0 = skip the epoch check; we want raw byte access only.
    auto f = DiskPageFile::Open(
        prefix + ".pages",
        static_cast<uint32_t>(MetaValueOf(meta, "page_size")), 0);
    ASSERT_TRUE(f.ok());
    for (const PageId root : roots) {
      ASSERT_TRUE((*f)->CorruptRawForTest(root, kPageHeaderSize + 50, 0x08)
                      .ok());
    }
  }
  auto db = FieldDatabase::Open(prefix);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  (*db)->set_planner_mode(PlannerMode::kForceIndex);

  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.04, 10, 23});
  for (const ValueInterval& q : queries) {
    ValueQueryResult expected, degraded;
    ASSERT_TRUE(QueryOne(**intact, q, &expected).ok());
    ASSERT_TRUE(QueryOne(**db, q, &degraded).ok());
    EXPECT_EQ(degraded.stats.index_fallbacks, 1u);
    EXPECT_EQ(degraded.stats.answer_cells, expected.stats.answer_cells);
    EXPECT_NEAR(degraded.region.TotalArea(), expected.region.TotalArea(),
                1e-9);
  }
  EXPECT_EQ((*db)->index_fallbacks(), queries.size());

  ExplainResult explain;
  ASSERT_TRUE(ExplainValueQuery(**db, queries[0], &explain).ok());
  EXPECT_NE(explain.ToString().find("DEGRADED:"), std::string::npos)
      << explain.ToString();

  FieldDatabase::ScrubReport report;
  ASSERT_TRUE((*db)->Scrub(&report).ok());
  EXPECT_EQ(report.corrupt_pages, roots);

  db->reset();
  for (const char* suffix : {".pages", ".meta"}) {
    std::remove((prefix + suffix).c_str());
  }
}

class ForgedLeafTest : public ::testing::TestWithParam<IndexMethod> {
 protected:
  // Saves a 32x32 fractal database, rewrites the (a, b) payload of leaf
  // entry 0 of the value tree's first leaf with `forge(field, key, &a,
  // &b)` under a valid page checksum at the catalog's epoch, so Open
  // and scrub find nothing wrong, and checks that a forced-index query
  // over the entry's key falls back to the store once with the intact
  // database's answers.
  void ExpectForgedEntryFallsBack(
      const std::string& tag,
      const std::function<void(const Field&, const ValueInterval&,
                               uint64_t*, uint64_t*)>& forge) {
    const std::string prefix = TestTempDir() + "/fielddb_forged_" + tag +
                               std::to_string(static_cast<int>(GetParam()));
    FractalOptions fo;
    fo.size_exp = 5;
    auto field = MakeFractalField(fo);
    ASSERT_TRUE(field.ok());
    FieldDatabaseOptions options;
    options.method = GetParam();
    auto intact = FieldDatabase::Build(*field, options);
    ASSERT_TRUE(intact.ok());
    ASSERT_TRUE((*intact)->Save(prefix).ok());

    // Node pages are [level u32][count u32][8 reserved][entries], an
    // entry [lo f64][hi f64][a u64][b u64].
    const std::string meta = prefix + ".meta";
    const auto page_size =
        static_cast<uint32_t>(MetaValueOf(meta, "page_size"));
    ValueInterval forged;
    {
      auto f = DiskPageFile::Open(
          prefix + ".pages", page_size,
          static_cast<uint32_t>(MetaValueOf(meta, "epoch")));
      ASSERT_TRUE(f.ok());
      Page page(page_size);
      PageId id = MetaValueOf(meta, "tree");
      ASSERT_TRUE((*f)->Read(id, &page).ok());
      while (page.ReadAt<uint32_t>(0) > 0) {
        id = page.ReadAt<uint64_t>(32);
        ASSERT_TRUE((*f)->Read(id, &page).ok());
      }
      forged = ValueInterval{page.ReadAt<double>(16), page.ReadAt<double>(24)};
      uint64_t a = page.ReadAt<uint64_t>(32);
      uint64_t b = page.ReadAt<uint64_t>(40);
      forge(*field, forged, &a, &b);
      page.WriteAt<uint64_t>(32, a);
      page.WriteAt<uint64_t>(40, b);
      ASSERT_TRUE((*f)->Write(id, page).ok());
    }
    auto db = FieldDatabase::Open(prefix);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    FieldDatabase::ScrubReport report;
    ASSERT_TRUE((*db)->Scrub(&report).ok());
    EXPECT_TRUE(report.clean());
    (*db)->set_planner_mode(PlannerMode::kForceIndex);

    ValueQueryResult expected, degraded;
    ASSERT_TRUE(QueryOne(**intact, forged, &expected).ok());
    const Status s = QueryOne(**db, forged, &degraded);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(degraded.stats.index_fallbacks, 1u);
    EXPECT_EQ((*db)->index_fallbacks(), 1u);
    EXPECT_EQ(degraded.stats.answer_cells, expected.stats.answer_cells);
    EXPECT_EQ(degraded.region.NumPieces(), expected.region.NumPieces());
    EXPECT_EQ(degraded.region.TotalArea(), expected.region.TotalArea());

    db->reset();
    for (const char* suffix : {".pages", ".meta"}) {
      std::remove((prefix + suffix).c_str());
    }
  }
};

TEST_P(ForgedLeafTest, RunPastTheStoreFallsBackToTheStore) {
  // A leaf entry that points past the store: the band scan must treat
  // the run as a corrupt index page instead of failing the query.
  // I-Hilbert's run end b, I-All's position a.
  ExpectForgedEntryFallsBack(
      "past", [](const Field& field, const ValueInterval&, uint64_t* a,
                 uint64_t* b) {
        *(GetParam() == IndexMethod::kIHilbert ? b : a) =
            field.NumCells() + 7;
      });
}

TEST_P(ForgedLeafTest, EntryWithinTheStoreFallsBackToTheStore) {
  // A leaf entry moved to other slots of the store: the search must see
  // that it is no longer its subfield's row (I-Hilbert: the run starts
  // one slot late) or its cell's interval (I-All: a cell whose interval
  // misses the key) and report a corrupt index page, instead of
  // silently dropping the entry's cells from the answer.
  ExpectForgedEntryFallsBack(
      "within", [](const Field& field, const ValueInterval& key,
                   uint64_t* a, uint64_t*) {
        if (GetParam() == IndexMethod::kIHilbert) {
          ++*a;
          return;
        }
        CellId other = 0;
        while (other < field.NumCells() &&
               field.GetCell(other).Interval().Intersects(key)) {
          ++other;
        }
        ASSERT_LT(other, field.NumCells());
        *a = other;
      });
}

INSTANTIATE_TEST_SUITE_P(
    TreeMethods, ForgedLeafTest,
    ::testing::Values(IndexMethod::kIAll, IndexMethod::kIHilbert),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// Drops the second catalog line keyed `key` and decrements the
// `subfields` count: a well-formed catalog whose subfield table no
// longer tiles the store.
void DropSecondSubfieldLine(const std::string& path, const std::string& key) {
  std::istringstream in(ReadTextFile(path));
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
  ASSERT_GE(seen, 2) << "fewer than two '" << key << "' lines";
  WriteTextFile(path, out);
  ResignCatalog(path);
}

TEST(SubfieldTilingTest, CatalogWithGapRejected) {
  // A dropped subfield leaves its cells in no subfield: an update there
  // would refresh the wrong one and its answers vanish from queries, so
  // Open must refuse the catalog instead.
  const std::string prefix = TestTempDir() + "/fielddb_tiling_gap";
  FractalOptions fo;
  fo.size_exp = 5;  // 32x32
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = IndexMethod::kIHilbert;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Save(prefix).ok());
  ASSERT_TRUE(FieldDatabase::Open(prefix).ok());  // intact catalog opens

  DropSecondSubfieldLine(prefix + ".meta", "sf");
  auto reopened = FieldDatabase::Open(prefix);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().message().find("sf"), std::string::npos)
      << reopened.status().ToString();
  std::remove((prefix + ".pages").c_str());
  std::remove((prefix + ".meta").c_str());
}

// ---------------------------------------------------------------------
// Crash-safe save: an interrupted save must leave the previous snapshot
// fully loadable, and a half-committed one must be detected, not mixed.

class CrashSafetyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = TestTempDir() + "/fielddb_crash_safety";
    Cleanup();
    auto field = MakeMonotonicField(8, 8);
    ASSERT_TRUE(field.ok());
    auto db = FieldDatabase::Build(*field);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(db_->Save(prefix_).ok());  // snapshot A
    // Mutate the live database so snapshot B would differ from A.
    ASSERT_TRUE(db_->UpdateCellValues(3, {400.0, 400, 400, 400}).ok());
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    for (const char* suffix :
         {".pages", ".meta", ".pages.tmp", ".meta.tmp"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  // Number of cells with value ~400 in the persisted snapshot.
  uint64_t UpdatedCellsOnDisk() {
    auto reopened = FieldDatabase::Open(prefix_);
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    if (!reopened.ok()) return ~uint64_t{0};
    ValueQueryResult result;
    EXPECT_TRUE(
        QueryOne(**reopened, ValueInterval{399, 401}, &result).ok());
    return result.stats.answer_cells;
  }

  std::string prefix_;
  std::unique_ptr<FieldDatabase> db_;
};

TEST_F(CrashSafetyTest, InterruptedSaveLeavesOldSnapshotLoadable) {
  // "Crash" after the temp files are durable but before either rename.
  ASSERT_TRUE(db_->SaveWithCrashPointForTest(
      prefix_, SnapshotCrashPoint::kBeforeRename).ok());
  EXPECT_TRUE(FileExists(prefix_ + ".pages.tmp"));
  EXPECT_TRUE(FileExists(prefix_ + ".meta.tmp"));
  // Snapshot A is untouched: the update is not visible.
  EXPECT_EQ(UpdatedCellsOnDisk(), 0u);
  // Recovery is simply saving again; the stale temps are overwritten.
  ASSERT_TRUE(db_->Save(prefix_).ok());
  EXPECT_FALSE(FileExists(prefix_ + ".pages.tmp"));
  EXPECT_FALSE(FileExists(prefix_ + ".meta.tmp"));
  EXPECT_EQ(UpdatedCellsOnDisk(), 1u);
}

TEST_F(CrashSafetyTest, LeftoverTempFilesDoNotInterfereWithOpen) {
  WriteTextFile(prefix_ + ".pages.tmp", "garbage from a dead process");
  WriteTextFile(prefix_ + ".meta.tmp", "more garbage");
  EXPECT_EQ(UpdatedCellsOnDisk(), 0u);  // snapshot A opens fine
  ASSERT_TRUE(db_->Save(prefix_).ok());
  EXPECT_EQ(UpdatedCellsOnDisk(), 1u);
}

TEST_F(CrashSafetyTest, CrashBetweenRenamesSelfHealsOnOpen) {
  // Simulate a crash after the pages rename but before the meta rename:
  // new pages (epoch A+1) under the old catalog (epoch A). Open proves
  // `.meta.tmp` describes exactly the pages now in place (epoch match)
  // and completes the interrupted commit itself.
  ASSERT_TRUE(db_->SaveWithCrashPointForTest(
      prefix_, SnapshotCrashPoint::kBeforeRename).ok());
  ASSERT_EQ(std::rename((prefix_ + ".pages.tmp").c_str(),
                        (prefix_ + ".pages").c_str()),
            0);
  EXPECT_EQ(UpdatedCellsOnDisk(), 1u);  // snapshot B, healed
  // The heal consumed the temp catalog (renamed into place).
  EXPECT_FALSE(FileExists(prefix_ + ".meta.tmp"));
  // And the healed state is stable: a second open sees the same thing.
  EXPECT_EQ(UpdatedCellsOnDisk(), 1u);
}

TEST_F(CrashSafetyTest, SaveWithCrashPointMatrix) {
  // Every interruption point of the Save pipeline leaves a loadable
  // database: the old snapshot for points before the pages rename, the
  // new one from there on.
  using CP = FieldDatabase::SaveCrashPoint;
  const struct {
    CP point;
    uint64_t expect_updated;
  } kCases[] = {
      {CP::kMidPagesTmp, 0},     // torn temp file, snapshot A intact
      {CP::kBeforeRename, 0},    // both temps durable, nothing committed
      {CP::kBetweenRenames, 1},  // half-committed; Open self-heals to B
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(static_cast<int>(c.point));
    SetUp();  // fresh snapshot A + one in-memory update
    ASSERT_TRUE(db_->SaveWithCrashPointForTest(prefix_, c.point).ok());
    EXPECT_EQ(UpdatedCellsOnDisk(), c.expect_updated);
  }
}

}  // namespace
}  // namespace fielddb
