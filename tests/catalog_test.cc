// The snapshot catalog codec (core/catalog.h) across all four field
// types: Save writes each catalog byte for byte in its established
// format (golden files), Open survives every single-token edit, dropped
// line and duplicated line of it — the catalog either opens or is
// refused with kCorruption, and nothing aborts — and the codec's own
// rejections name their key: `epoch 0`, a `num_cells` beyond the page
// file and a missing required line.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/field_database.h"
#include "field/grid_field.h"
#include "gen/fractal.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"
#include "query_util.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

// Tiny deterministic fields. Products of the vertex coordinates give
// integer values that split the I-Hilbert subfield tables into several
// rows.

GridField TinyGrid() {
  std::vector<double> samples;
  for (uint32_t j = 0; j <= 4; ++j) {
    for (uint32_t i = 0; i <= 4; ++i) samples.push_back(double(i * j));
  }
  return GridField::Create(4, 4, Rect2{{0, 0}, {1, 1}}, samples).value();
}

VectorGridField TinyVectorField() {
  std::vector<double> su, sv;
  for (uint32_t j = 0; j <= 4; ++j) {
    for (uint32_t i = 0; i <= 4; ++i) {
      su.push_back(i + j);
      sv.push_back(double(i) - double(j) + 0.5 * ((i * 7 + j * 3) % 5));
    }
  }
  return VectorGridField::Create(4, 4, Rect2{{0, 0}, {1, 1}}, su, sv)
      .value();
}

VolumeGridField TinyVolume() {
  std::vector<double> samples;
  for (uint32_t k = 0; k <= 3; ++k) {
    for (uint32_t j = 0; j <= 3; ++j) {
      for (uint32_t i = 0; i <= 3; ++i) samples.push_back(double(i * j * k));
    }
  }
  return VolumeGridField::Create(3, 3, 3, samples).value();
}

TemporalGridField TinyTemporalField() {
  std::vector<std::vector<double>> snapshots(3);
  for (uint32_t t = 0; t < 3; ++t) {
    for (uint32_t j = 0; j <= 8; ++j) {
      for (uint32_t i = 0; i <= 8; ++i) {
        snapshots[t].push_back(double(i * j * (t + 1)));
      }
    }
  }
  return TemporalGridField::Create(8, 8, Rect2{{0, 0}, {1, 1}}, snapshots)
      .value();
}

/// One field type and method: how to save and reopen it, and the exact
/// catalog its Save writes.
struct CatalogCase {
  std::string name;
  std::function<Status(const std::string& prefix)> save;
  std::function<Status(const std::string& prefix)> open;
  std::string golden;
};

std::ostream& operator<<(std::ostream& os, const CatalogCase& c) {
  return os << c.name;
}

/// Saves the tiny grid: in lattice slots, or with `explicit_cells` as
/// explicit CellRecords plus a spatial tree, the format every grid had
/// before lattice slots.
Status SaveGrid(IndexMethod method, const std::string& prefix,
                bool explicit_cells = false) {
  FieldDatabaseOptions options;
  options.method = method;
  const GridField grid = TinyGrid();
  const ExplicitCellsField cells(grid);
  StatusOr<std::unique_ptr<FieldDatabase>> db = FieldDatabase::Build(
      explicit_cells ? static_cast<const Field&>(cells) : grid, options);
  if (!db.ok()) return db.status();
  return (*db)->Save(prefix);
}

Status SaveVector(VectorIndexMethod method, const std::string& prefix) {
  VectorFieldDatabase::Options options;
  options.method = method;
  auto db = VectorFieldDatabase::Build(TinyVectorField(), options);
  if (!db.ok()) return db.status();
  return (*db)->Save(prefix);
}

Status SaveVolume(VolumeIndexMethod method, const std::string& prefix) {
  VolumeFieldDatabase::Options options;
  options.method = method;
  auto db = VolumeFieldDatabase::Build(TinyVolume(), options);
  if (!db.ok()) return db.status();
  return (*db)->Save(prefix);
}

Status SaveTemporal(const std::string& prefix) {
  auto db = TemporalFieldDatabase::Build(TinyTemporalField(), {});
  if (!db.ok()) return db.status();
  return (*db)->Save(prefix);
}

template <typename Db>
Status OpenStatus(const std::string& prefix) {
  return Db::Open(prefix).status();
}

// The goldens pin the on-disk format byte for byte: snapshots saved by
// earlier versions must keep opening, so the format does not move. A
// grid stores lattice slots (its `grid` line) and no spatial tree; the
// explicit-cells cases write the format of grid snapshots saved before
// lattice slots byte for byte, and those keep opening.
std::vector<CatalogCase> Cases() {
  return {
      {"GridLinearScan",
       [](const std::string& p) {
         return SaveGrid(IndexMethod::kLinearScan, p);
       },
       &OpenStatus<FieldDatabase>,
       "fielddb-meta-v2\n"
       "page_size 4096\n"
       "epoch 1\n"
       "method 0\n"
       "num_cells 16\n"
       "store_first_page 0\n"
       "value_range 0 16\n"
       "domain 0 0 1 1\n"
       "grid 4 4\n"
       "build_entries 0\n"
       "subfields 0\n"},
      {"GridIHilbert",
       [](const std::string& p) {
         return SaveGrid(IndexMethod::kIHilbert, p);
       },
       &OpenStatus<FieldDatabase>,
       "fielddb-meta-v2\n"
       "page_size 4096\n"
       "epoch 1\n"
       "method 2\n"
       "num_cells 16\n"
       "store_first_page 0\n"
       "value_range 0 16\n"
       "domain 0 0 1 1\n"
       "grid 4 4\n"
       "build_entries 3\n"
       "tree 1 1 3 1\n"
       "subfields 3\n"
       "sf 0 6 0 4 21\n"
       "sf 6 14 2 16 50\n"
       "sf 14 16 0 4 9\n"},
      {"GridLinearScanExplicitCells",
       [](const std::string& p) {
         return SaveGrid(IndexMethod::kLinearScan, p, /*explicit_cells=*/true);
       },
       &OpenStatus<FieldDatabase>,
       "fielddb-meta-v2\n"
       "page_size 4096\n"
       "epoch 1\n"
       "method 0\n"
       "num_cells 16\n"
       "store_first_page 0\n"
       "value_range 0 16\n"
       "domain 0 0 1 1\n"
       "build_entries 0\n"
       "spatial 1 1 16 1\n"
       "subfields 0\n"},
      {"GridIHilbertExplicitCells",
       [](const std::string& p) {
         return SaveGrid(IndexMethod::kIHilbert, p, /*explicit_cells=*/true);
       },
       &OpenStatus<FieldDatabase>,
       "fielddb-meta-v2\n"
       "page_size 4096\n"
       "epoch 1\n"
       "method 2\n"
       "num_cells 16\n"
       "store_first_page 0\n"
       "value_range 0 16\n"
       "domain 0 0 1 1\n"
       "build_entries 3\n"
       "tree 1 1 3 1\n"
       "spatial 2 1 16 1\n"
       "subfields 3\n"
       "sf 0 6 0 4 21\n"
       "sf 6 14 2 16 50\n"
       "sf 14 16 0 4 9\n"},
      {"VectorLinearScan",
       [](const std::string& p) {
         return SaveVector(VectorIndexMethod::kLinearScan, p);
       },
       &OpenStatus<VectorFieldDatabase>,
       "fielddb-vector-meta-v1\n"
       "page_size 4096\n"
       "epoch 1\n"
       "method 0\n"
       "num_cells 16\n"
       "store_first_page 0\n"
       "subfields 0\n"},
      {"VectorIHilbert",
       [](const std::string& p) {
         return SaveVector(VectorIndexMethod::kIHilbert, p);
       },
       &OpenStatus<VectorFieldDatabase>,
       "fielddb-vector-meta-v1\n"
       "page_size 4096\n"
       "epoch 1\n"
       "method 1\n"
       "num_cells 16\n"
       "store_first_page 0\n"
       "tree 1 1 3 1\n"
       "subfields 3\n"
       "sfv 0 5 0 -1.5 4 4 51\n"
       "sfv 5 15 2 -3 8 4 102\n"
       "sfv 15 16 3 3.5 5 5.5 9\n"},
      {"VolumeLinearScan",
       [](const std::string& p) {
         return SaveVolume(VolumeIndexMethod::kLinearScan, p);
       },
       &OpenStatus<VolumeFieldDatabase>,
       "fielddb-volume-meta-v1\n"
       "page_size 4096\n"
       "epoch 1\n"
       "method 0\n"
       "num_cells 27\n"
       "store_first_page 0\n"
       "voxel_volume 0.037037037037037035\n"
       "value_range 0 27\n"
       "subfields 0\n"},
      {"VolumeIHilbert",
       [](const std::string& p) {
         return SaveVolume(VolumeIndexMethod::kIHilbert, p);
       },
       &OpenStatus<VolumeFieldDatabase>,
       "fielddb-volume-meta-v1\n"
       "page_size 4096\n"
       "epoch 1\n"
       "method 1\n"
       "num_cells 27\n"
       "store_first_page 0\n"
       "voxel_volume 0.037037037037037035\n"
       "value_range 0 27\n"
       "tree 1 1 2 1\n"
       "subfields 2\n"
       "sf 0 13 0 12 73\n"
       "sf 13 27 0 27 143\n"},
      {"Temporal", &SaveTemporal, &OpenStatus<TemporalFieldDatabase>,
       "fielddb-temporal-meta-v1\n"
       "page_size 4096\n"
       "epoch 1\n"
       "num_slabs 2\n"
       "num_cells 64\n"
       "tree 6 1 7 1\n"
       "slab 0 0\n"
       "slab 1 3\n"
       "subfields 7\n"
       "tsf 0 0 38 0 80 849\n"
       "tsf 0 38 58 4 128 918\n"
       "tsf 0 58 64 0 32 105\n"
       "tsf 1 0 24 0 48 442\n"
       "tsf 1 24 38 16 120 662\n"
       "tsf 1 38 49 42 192 803\n"
       "tsf 1 49 64 0 84 477\n"},
  };
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream(path, std::ios::trunc) << contents;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string token; in >> token;) tokens.push_back(token);
  return tokens;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string line;
  for (const std::string& token : tokens) {
    line += (line.empty() ? "" : " ") + token;
  }
  return line;
}

class CatalogTest : public ::testing::TestWithParam<CatalogCase> {
 protected:
  void SetUp() override {
    prefix_ = TestTempDir() + "/fielddb_catalog_" + GetParam().name;
    Cleanup();
    ASSERT_TRUE(GetParam().save(prefix_).ok());
    meta_path_ = prefix_ + ".meta";
    intact_ = ReadFile(meta_path_);
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    for (const char* suffix :
         {".pages", ".meta", ".pages.tmp", ".meta.tmp", ".wal"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  /// Opens the snapshot under `catalog` in place of the saved one.
  Status OpenWith(const std::vector<std::string>& catalog) {
    WriteFile(meta_path_, JoinLines(catalog));
    return GetParam().open(prefix_);
  }

  std::string prefix_;
  std::string meta_path_;
  std::string intact_;
};

TEST_P(CatalogTest, SaveWritesTheGoldenCatalog) {
  EXPECT_EQ(intact_, GetParam().golden);
  EXPECT_TRUE(GetParam().open(prefix_).ok());
}

TEST_P(CatalogTest, EveryMutationOpensOrIsCorruption) {
  const std::vector<std::string> lines = SplitLines(intact_);
  const auto expect_handled = [&](const std::vector<std::string>& catalog,
                                   const std::string& what) {
    const Status s = OpenWith(catalog);
    EXPECT_TRUE(s.ok() || s.code() == StatusCode::kCorruption)
        << what << ": " << s.ToString();
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::vector<std::string> tokens = SplitTokens(lines[i]);
    for (size_t t = 1; t < tokens.size(); ++t) {
      for (const char* value :
           {"0", "-1", "nan", "inf", "1e308", "18446744073709551616"}) {
        std::vector<std::string> mutated_tokens = tokens;
        mutated_tokens[t] = value;
        std::vector<std::string> catalog = lines;
        catalog[i] = JoinTokens(mutated_tokens);
        expect_handled(catalog, "'" + lines[i] + "' -> '" + catalog[i] + "'");
      }
    }
    std::vector<std::string> dropped = lines;
    dropped.erase(dropped.begin() + i);
    expect_handled(dropped, "dropped '" + lines[i] + "'");
    std::vector<std::string> duplicated = lines;
    duplicated.insert(duplicated.begin() + i, lines[i]);
    expect_handled(duplicated, "duplicated '" + lines[i] + "'");
  }
  EXPECT_TRUE(OpenWith(lines).ok());
}

TEST_P(CatalogTest, EpochZeroRejected) {
  // The page file reads epoch 0 as "skip the epoch check", which would
  // let pages of another snapshot generation through unnoticed.
  std::vector<std::string> lines = SplitLines(intact_);
  for (std::string& line : lines) {
    if (line.rfind("epoch ", 0) == 0) line = "epoch 0";
  }
  const Status s = OpenWith(lines);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("'epoch'"), std::string::npos) << s.ToString();
}

TEST_P(CatalogTest, DroppedLineRejectedNamingItsKey) {
  // Every line but `spatial` (an optional accelerator for point
  // queries) is required; a subfield row's loss shows in its count.
  // Without its `spatial` line a LinearScan store must end the page
  // file, which the tree's pages after it contradict. Without its
  // `grid` line a lattice store reads as explicit CellRecords, and the
  // first slot that cannot be one is refused.
  const std::vector<std::string> lines = SplitLines(intact_);
  const bool linear_scan = intact_.find("\nmethod 0\n") != std::string::npos;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string key = SplitTokens(lines[i])[0];
    std::vector<std::string> dropped = lines;
    dropped.erase(dropped.begin() + i);
    const Status s = OpenWith(dropped);
    if (key == "spatial" && !linear_scan) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      continue;
    }
    if (key == "spatial") {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
      EXPECT_NE(s.message().find("'store_first_page'"), std::string::npos)
          << s.ToString();
      continue;
    }
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << key << ": "
                                                 << s.ToString();
    if (key == "grid") {
      EXPECT_NE(s.message().find("record store slot "), std::string::npos)
          << s.ToString();
      continue;
    }
    const std::string named =
        key == "sf" || key == "sfv" || key == "tsf" ? "subfields" : key;
    EXPECT_NE(s.message().find("'" + named + "'"), std::string::npos)
        << key << ": " << s.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllFieldTypes, CatalogTest,
                         ::testing::ValuesIn(Cases()),
                         [](const auto& info) { return info.param.name; });

// --- num_cells against the page file ---------------------------------

class NumCellsTest : public CatalogTest {};

TEST_P(NumCellsTest, BeyondThePageFileRejectedBeforeAllocation) {
  // Without a subfield table to tile, only the page file bounds
  // num_cells; the zone map and the id map are sized from it.
  for (const char* cells : {"100000", "1000000000000000"}) {
    std::vector<std::string> lines = SplitLines(intact_);
    for (std::string& line : lines) {
      if (line.rfind("num_cells ", 0) == 0) {
        line = std::string("num_cells ") + cells;
      }
    }
    const Status s = OpenWith(lines);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << cells << ": "
                                                 << s.ToString();
    EXPECT_NE(s.message().find("'num_cells'"), std::string::npos)
        << s.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    LinearScan, NumCellsTest,
    ::testing::ValuesIn([] {
      std::vector<CatalogCase> linear;
      for (const CatalogCase& c : Cases()) {
        if (c.name.find("LinearScan") != std::string::npos) {
          linear.push_back(c);
        }
      }
      return linear;
    }()),
    [](const auto& info) { return info.param.name; });

TEST(TemporalCatalogTest, SlabBeyondThePageFileRejected) {
  // Each slab's store must end inside the page file too: slab 1 moved
  // to the last page leaves its records past the end.
  const std::string prefix = TestTempDir() + "/fielddb_catalog_slab";
  ASSERT_TRUE(SaveTemporal(prefix).ok());
  std::ifstream pages(prefix + ".pages", std::ios::binary | std::ios::ate);
  const uint64_t num_pages =
      static_cast<uint64_t>(pages.tellg()) / (kPageHeaderSize + 4096);
  pages.close();
  std::vector<std::string> lines = SplitLines(ReadFile(prefix + ".meta"));
  for (std::string& line : lines) {
    if (line.rfind("slab 1 ", 0) == 0) {
      line = "slab 1 " + std::to_string(num_pages - 1);
    }
  }
  WriteFile(prefix + ".meta", JoinLines(lines));
  const Status s = TemporalFieldDatabase::Open(prefix).status();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("'num_cells'"), std::string::npos)
      << s.ToString();
  for (const char* suffix : {".pages", ".meta"}) {
    std::remove((prefix + suffix).c_str());
  }
}

// --- Stored records and cell counts against the catalog ----------------

/// Saves the 64x64 fractal (seed 3) under `method` at `prefix`, with or
/// without the spatial tree, in lattice slots or with `explicit_cells`
/// as explicit CellRecords (a grid builds no spatial tree: `spatial`
/// only builds one for explicit cells). Its band [0.6, 0.65] has 312
/// answer cells and 883 pieces.
void SaveFractal(IndexMethod method, bool spatial, const std::string& prefix,
                 bool explicit_cells = false) {
  FractalOptions fo;
  fo.size_exp = 6;
  fo.roughness_h = 0.7;
  fo.seed = 3;
  FieldDatabaseOptions options;
  options.method = method;
  options.build_spatial_index = spatial;
  const GridField grid = MakeFractalField(fo).value();
  const ExplicitCellsField cells(grid);
  auto db = FieldDatabase::Build(
      explicit_cells ? static_cast<const Field&>(cells) : grid, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ValueQueryResult result;
  ASSERT_TRUE(QueryOne(**db, ValueInterval{0.6, 0.65}, &result).ok());
  ASSERT_EQ(result.stats.answer_cells, 312u);
  ASSERT_EQ(result.region.NumPieces(), 883u);
  ASSERT_TRUE((*db)->Save(prefix).ok());
}

/// Rewrites the `key` line of the catalog at `prefix` to `key value`.
void EditCatalogLine(const std::string& prefix, const std::string& key,
                     const std::string& value) {
  std::vector<std::string> lines = SplitLines(ReadFile(prefix + ".meta"));
  for (std::string& line : lines) {
    if (line.rfind(key + " ", 0) == 0) line = key + " " + value;
  }
  WriteFile(prefix + ".meta", JoinLines(lines));
}

/// Rewrites token `index` (the key is token 0) of the `key` line of
/// the catalog at `prefix`.
void EditCatalogToken(const std::string& prefix, const std::string& key,
                      size_t index, const std::string& value) {
  std::vector<std::string> lines = SplitLines(ReadFile(prefix + ".meta"));
  for (std::string& line : lines) {
    std::vector<std::string> tokens = SplitTokens(line);
    if (tokens.empty() || tokens[0] != key) continue;
    tokens.at(index) = value;
    line = JoinTokens(tokens);
  }
  WriteFile(prefix + ".meta", JoinLines(lines));
}

// --- Trees against their catalog lines ---------------------------------

TEST(TreeCatalogTest, EditedHeightRefusedAtOpen) {
  // "tree ROOT HEIGHT SIZE NODES": I-All's 4,096 entries make a
  // two-level tree. An edited height used to open and answer, and the
  // planner priced the index from it (427.92 ms instead of 162.28 ms at
  // 4e9); Open now reads the root page and refuses it.
  const std::string prefix = TestTempDir() + "/fielddb_tree_height";
  SaveFractal(IndexMethod::kIAll, /*spatial=*/true, prefix);
  for (const char* height : {"0", "1", "3", "7", "4000000000"}) {
    EditCatalogToken(prefix, "tree", 2, height);
    const Status s = FieldDatabase::Open(prefix).status();
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << height;
    EXPECT_NE(s.message().find("height"), std::string::npos) << s.ToString();
  }
  EditCatalogToken(prefix, "tree", 2, "2");
  auto db = FieldDatabase::Open(prefix);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ValueQueryResult result;
  ASSERT_TRUE(QueryOne(**db, ValueInterval{0.6, 0.65}, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, 312u);
  EXPECT_TRUE((*db)->UpdateCellValues(0, {0.1, 0.2, 0.3, 0.4}).ok());
  for (const char* suffix : {".pages", ".meta"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(TreeCatalogTest, ExtensionEditedHeightRefusedAtOpen) {
  const std::string prefix = TestTempDir() + "/fielddb_vec_height";
  auto built = VectorFieldDatabase::Build(TinyVectorField(), {});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(prefix).ok());
  built->reset();
  EditCatalogToken(prefix, "tree", 2, "4000000000");
  const Status s = VectorFieldDatabase::Open(prefix).status();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("height"), std::string::npos) << s.ToString();
  EditCatalogToken(prefix, "tree", 2, "1");
  EXPECT_TRUE(VectorFieldDatabase::Open(prefix).ok());
  for (const char* suffix : {".pages", ".meta"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(TreeCatalogTest, TreeSizeDisagreeingWithTheSubfieldTableRefused) {
  // A subfield tree holds one entry per `sf` row; an edited size used
  // to open and answer.
  const std::string prefix = TestTempDir() + "/fielddb_tree_size";
  SaveFractal(IndexMethod::kIHilbert, /*spatial=*/true, prefix);
  const std::vector<std::string> tree = [&] {
    for (const std::string& line : SplitLines(ReadFile(prefix + ".meta"))) {
      if (line.rfind("tree ", 0) == 0) return SplitTokens(line);
    }
    return std::vector<std::string>{};
  }();
  ASSERT_EQ(tree.size(), 5u);
  for (const char* size : {"99999", "1"}) {
    EditCatalogToken(prefix, "tree", 3, size);
    const Status s = FieldDatabase::Open(prefix).status();
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << size;
    EXPECT_NE(s.message().find("'tree'"), std::string::npos) << s.ToString();
  }
  EditCatalogToken(prefix, "tree", 3, tree[3]);
  EXPECT_TRUE(FieldDatabase::Open(prefix).ok());
  for (const char* suffix : {".pages", ".meta"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(StoredRecordTest, ShiftedStoreRefusedNamingTheSlot) {
  // Two pages later, the store's tail is the last store page's empty
  // slots and then spatial-tree pages. Attach must refuse the first
  // such record before any accessor loops over its vertex count. (A
  // grid's lattice store has no tree after it: the shift leaves the
  // file, refused as a 'num_cells' beyond it.)
  const std::string prefix = TestTempDir() + "/fielddb_shifted_store";
  SaveFractal(IndexMethod::kLinearScan, /*spatial=*/true, prefix,
              /*explicit_cells=*/true);
  EditCatalogLine(prefix, "store_first_page", "2");
  const Status s = FieldDatabase::Open(prefix).status();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("record store slot "), std::string::npos)
      << s.ToString();
  for (const char* suffix : {".pages", ".meta"}) {
    std::remove((prefix + suffix).c_str());
  }
}

/// Overwrites the double at byte `offset` of store slot 5 (slots of
/// `slot_size` bytes from page 0 on) of the snapshot at `prefix` with
/// `value`, writing the page back with the catalog's epoch so that its
/// checksum stays valid.
void PoisonSlot5(const std::string& prefix, size_t slot_size, size_t offset,
                 double value) {
  auto file = DiskPageFile::Open(prefix + ".pages", 4096, /*epoch=*/1);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const size_t per_page = 4096 / slot_size;
  const PageId page_id = 5 / per_page;
  Page page(4096);
  ASSERT_TRUE((*file)->Read(page_id, &page).ok());
  page.WriteAt<double>(static_cast<uint32_t>((5 % per_page) * slot_size +
                                             offset),
                       value);
  ASSERT_TRUE((*file)->Write(page_id, page).ok());
}

TEST(StoredRecordTest, NonFiniteRecordRefusedNamingTheSlot) {
  // A stored record with a NaN sample or an infinite coordinate, under
  // a valid page checksum, used to open and silently drop the record
  // from every answer (Interval() skips the NaN). Attach refuses it
  // like any other unusable record, on every field type.
  struct Case {
    const char* name;
    std::function<Status(const std::string& prefix)> save;
    std::function<Status(const std::string& prefix)> open;
    size_t slot_size;
    size_t offset;  // of the poisoned double within the record
    double value;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto explicit_grid = [](const std::string& p) {
    return SaveGrid(IndexMethod::kIHilbert, p, /*explicit_cells=*/true);
  };
  const auto vector = [](const std::string& p) {
    return SaveVector(VectorIndexMethod::kIHilbert, p);
  };
  const Case cases[] = {
      {"ExplicitGridSample", explicit_grid, &OpenStatus<FieldDatabase>,
       sizeof(CellRecord), offsetof(CellRecord, w) + sizeof(double), nan},
      {"ExplicitGridCoordinate", explicit_grid, &OpenStatus<FieldDatabase>,
       sizeof(CellRecord), offsetof(CellRecord, y) + 2 * sizeof(double), inf},
      {"VectorSample", vector, &OpenStatus<VectorFieldDatabase>,
       sizeof(VectorCellRecord), offsetof(VectorCellRecord, u), nan},
      {"VectorCoordinate", vector, &OpenStatus<VectorFieldDatabase>,
       sizeof(VectorCellRecord), offsetof(VectorCellRecord, x), -inf},
      {"VolumeSample",
       [](const std::string& p) {
         return SaveVolume(VolumeIndexMethod::kIHilbert, p);
       },
       &OpenStatus<VolumeFieldDatabase>, sizeof(VoxelRecord),
       offsetof(VoxelRecord, w) + 7 * sizeof(double), nan},
      {"TemporalSample", &SaveTemporal, &OpenStatus<TemporalFieldDatabase>,
       sizeof(TemporalSlabRecord),
       offsetof(VectorCellRecord, v) + 2 * sizeof(double), nan},
  };
  const std::string prefix = TestTempDir() + "/fielddb_non_finite";
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(c.save(prefix).ok());
    ASSERT_TRUE(c.open(prefix).ok());
    PoisonSlot5(prefix, c.slot_size, c.offset, c.value);
    const Status s = c.open(prefix);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    EXPECT_NE(s.message().find("record store slot 5 "), std::string::npos)
        << s.ToString();
    for (const char* suffix : {".pages", ".meta"}) {
      std::remove((prefix + suffix).c_str());
    }
  }
}

TEST(CellCountTest, NumCellsDisagreeingWithTheCatalogRefused) {
  // A lowered num_cells used to open and silently drop the cells past
  // it (311 of 312 answer cells, or none). The catalog states the count
  // again in I-All's tree size and build_entries and in an explicit
  // store's spatial tree; the store's pages state it too: the slots past
  // the last record are empty, and a LinearScan store without a tree
  // after it ends the page file ('store_first_page').
  struct Case {
    IndexMethod method;
    bool spatial;
    bool explicit_cells;
    const char* disagrees;  // the key the error names
  };
  for (const Case c :
       {Case{IndexMethod::kLinearScan, true, false, "'store_first_page'"},
        Case{IndexMethod::kIAll, true, false, "'tree'"},
        Case{IndexMethod::kIAll, false, false, "'tree'"},
        Case{IndexMethod::kLinearScan, true, true, "'spatial'"},
        Case{IndexMethod::kLinearScan, false, true, "'store_first_page'"}}) {
    const std::string prefix = TestTempDir() + "/fielddb_num_cells";
    SaveFractal(c.method, c.spatial, prefix, c.explicit_cells);
    for (const char* cells : {"4095", "3"}) {
      SCOPED_TRACE(::testing::Message()
                   << IndexMethodName(c.method) << " spatial=" << c.spatial
                   << " explicit=" << c.explicit_cells
                   << " num_cells=" << cells);
      EditCatalogLine(prefix, "num_cells", cells);
      const Status s = FieldDatabase::Open(prefix).status();
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
      EXPECT_NE(s.message().find("'num_cells'"), std::string::npos)
          << s.ToString();
      EXPECT_NE(s.message().find(c.disagrees), std::string::npos)
          << s.ToString();
    }
    EditCatalogLine(prefix, "num_cells", "4096");
    EXPECT_TRUE(FieldDatabase::Open(prefix).ok());
    for (const char* suffix : {".pages", ".meta"}) {
      std::remove((prefix + suffix).c_str());
    }
  }
}

TEST(CellCountTest, StoreEndingAtAPageBoundaryRefused) {
  // 4,080 = 40 full pages of 102 lattice slots: the last page then has
  // no empty slot to check, but the store no longer ends the file.
  const std::string prefix = TestTempDir() + "/fielddb_page_boundary";
  SaveFractal(IndexMethod::kLinearScan, /*spatial=*/false, prefix);
  EditCatalogLine(prefix, "num_cells", "4080");
  const Status s = FieldDatabase::Open(prefix).status();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("'store_first_page'"), std::string::npos)
      << s.ToString();
  for (const char* suffix : {".pages", ".meta"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(GridCatalogTest, LatticeLineValidated) {
  // `grid <cols> <rows>` selects 40-byte lattice slots; its lattice must
  // be non-empty, hold every stored cell and span a positive area.
  const std::string prefix = TestTempDir() + "/fielddb_grid_line";
  SaveFractal(IndexMethod::kLinearScan, /*spatial=*/false, prefix);
  const std::string intact = ReadFile(prefix + ".meta");
  EXPECT_NE(intact.find("\ngrid 64 64\n"), std::string::npos) << intact;
  EXPECT_EQ(intact.find("spatial"), std::string::npos) << intact;
  struct Case {
    const char* key;
    const char* value;
    const char* named;
  };
  for (const Case c : {Case{"grid", "0 64", "'grid'"},
                       Case{"grid", "64 0", "'grid'"},
                       Case{"grid", "65536 65536", "'grid'"},
                       Case{"grid", "63 64", "'num_cells'"},
                       Case{"domain", "0 0 0 1", "'grid'"}}) {
    WriteFile(prefix + ".meta", intact);
    EditCatalogLine(prefix, c.key, c.value);
    const Status s = FieldDatabase::Open(prefix).status();
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << c.value;
    EXPECT_NE(s.message().find(c.named), std::string::npos) << s.ToString();
  }
  WriteFile(prefix + ".meta", intact);
  auto db = FieldDatabase::Open(prefix);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_NE((*db)->lattice(), nullptr);
  EXPECT_EQ((*db)->lattice()->cols, 64u);
  EXPECT_EQ((*db)->index().cell_store().cells_per_page(), 102u);
  for (const char* suffix : {".pages", ".meta"}) {
    std::remove((prefix + suffix).c_str());
  }
}

}  // namespace
}  // namespace fielddb
