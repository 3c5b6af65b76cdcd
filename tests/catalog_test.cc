// The snapshot catalog codec (core/catalog.h) across all four field
// types: Save writes each catalog byte for byte in its established
// format (golden files), Open survives every single-token edit, dropped
// line and duplicated line of it — the catalog either opens or is
// refused with kCorruption, and nothing aborts — and the codec's own
// rejections name their key: `epoch 0`, a `num_cells` beyond the page
// file and a missing required line.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/field_database.h"
#include "field/grid_field.h"
#include "storage/page.h"
#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"

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

Status SaveGrid(IndexMethod method, const std::string& prefix) {
  FieldDatabaseOptions options;
  options.method = method;
  StatusOr<std::unique_ptr<FieldDatabase>> db =
      FieldDatabase::Build(TinyGrid(), options);
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
// earlier versions must keep opening, so the format does not move.
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
       "build_entries 0\n"
       "spatial 1 1 16 1\n"
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
    prefix_ = ::testing::TempDir() + "/fielddb_catalog_" + GetParam().name;
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
  const std::vector<std::string> lines = SplitLines(intact_);
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string key = SplitTokens(lines[i])[0];
    std::vector<std::string> dropped = lines;
    dropped.erase(dropped.begin() + i);
    const Status s = OpenWith(dropped);
    if (key == "spatial") {
      EXPECT_TRUE(s.ok()) << s.ToString();
      continue;
    }
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << key << ": "
                                                 << s.ToString();
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
  const std::string prefix = ::testing::TempDir() + "/fielddb_catalog_slab";
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

// --- The tree's height against its root ------------------------------

TEST(TreeHeightTest, EditedHeightRefusedByTheFirstUpdate) {
  // Open reads the `tree` line but not the root page, so an edited
  // height still opens and answers queries. The first update must then
  // refuse it before sizing anything from it or writing it back.
  std::vector<double> samples;
  for (uint32_t j = 0; j <= 64; ++j) {
    for (uint32_t i = 0; i <= 64; ++i) samples.push_back(double(i * j % 97));
  }
  const GridField grid =
      GridField::Create(64, 64, Rect2{{0, 0}, {1, 1}}, samples).value();
  FieldDatabaseOptions options;
  options.method = IndexMethod::kIAll;
  const std::string prefix = ::testing::TempDir() + "/fielddb_catalog_height";
  ASSERT_TRUE(FieldDatabase::Build(grid, options).value()->Save(prefix).ok());
  const std::vector<std::string> intact =
      SplitLines(ReadFile(prefix + ".meta"));

  // "tree ROOT HEIGHT SIZE NODES": 4,096 entries make a two-level tree.
  for (const char* height : {"2", "0", "7", "4000000000"}) {
    std::vector<std::string> lines = intact;
    for (std::string& line : lines) {
      std::vector<std::string> tokens = SplitTokens(line);
      if (tokens[0] != "tree") continue;
      ASSERT_EQ(tokens[2], "2");
      tokens[2] = height;
      line = JoinTokens(tokens);
    }
    WriteFile(prefix + ".meta", JoinLines(lines));
    StatusOr<std::unique_ptr<FieldDatabase>> db = FieldDatabase::Open(prefix);
    ASSERT_TRUE(db.ok()) << height << ": " << db.status().ToString();
    ValueQueryResult result;
    EXPECT_TRUE((*db)->ValueQuery(ValueInterval{10, 20}, &result).ok());
    const Status update = (*db)->UpdateCellValues(0, {50, 60, 70, 80});
    if (std::string(height) == "2") {
      EXPECT_TRUE(update.ok()) << update.ToString();
    } else {
      EXPECT_EQ(update.code(), StatusCode::kCorruption)
          << height << ": " << update.ToString();
      EXPECT_NE(update.message().find("height"), std::string::npos)
          << update.ToString();
    }
  }
  for (const char* suffix : {".pages", ".meta"}) {
    std::remove((prefix + suffix).c_str());
  }
}

}  // namespace
}  // namespace fielddb
