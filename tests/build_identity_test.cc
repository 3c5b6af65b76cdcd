// Build identity: the bytes that small fixed builds save are pinned by
// their CRC32C. Every `.pages` file and every catalog (without its own
// `crc32c` line) of a fixed set of builds — a 64x64 fractal under each
// grid method, a budgeted I-Hilbert build that spills, a noise TIN and a
// TIN whose cells tie on their curve keys, a vector, a volume and a
// temporal field, a 2-shard router — must hash to the recorded value.
// A change to the build (the curve encoder, the linearization sort and
// its tie-break, the store layout, the tree packing, Save's page writes,
// the catalog text) that moves one saved byte fails here.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/field_database.h"
#include "core/shard_router.h"
#include "gen/fractal.h"
#include "gen/noise_tin.h"
#include "storage/crc32c.h"
#include "temp_dir.h"
#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"

namespace fielddb {
namespace {

/// One saved file's expected CRC32C, by suffix of the build's prefix.
struct FileCrc {
  const char* suffix;
  uint32_t crc;
};

std::string Prefix(const std::string& tag) {
  return TestTempDir() + "/build_identity_" + tag;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The file's CRC32C; a catalog's `crc32c` line is left out, so a
/// catalog hashes the same signed or unsigned.
uint32_t FileCrc32c(const std::string& path) {
  std::string bytes = ReadAll(path);
  if (path.ends_with(".pages")) return Crc32c(bytes.data(), bytes.size());
  std::string body;
  size_t begin = 0;
  while (begin < bytes.size()) {
    size_t end = bytes.find('\n', begin);
    end = end == std::string::npos ? bytes.size() : end + 1;
    const std::string line = bytes.substr(begin, end - begin);
    if (!line.starts_with("crc32c ")) body += line;
    begin = end;
  }
  return Crc32c(body.data(), body.size());
}

void ExpectFiles(const std::string& prefix,
                 const std::vector<FileCrc>& expected) {
  for (const FileCrc& file : expected) {
    const std::string path = prefix + file.suffix;
    char actual[16];
    std::snprintf(actual, sizeof(actual), "0x%08x", FileCrc32c(path));
    char want[16];
    std::snprintf(want, sizeof(want), "0x%08x", file.crc);
    EXPECT_STREQ(actual, want) << path;
  }
}

GridField Fractal64() {
  FractalOptions fo;
  fo.size_exp = 6;
  fo.roughness_h = 0.7;
  fo.seed = 42;
  return MakeFractalField(fo).value();
}

/// A TIN whose small cells share one curve key: 24 triangles inside a
/// square far smaller than one cell of the curve's grid, over two that
/// span the domain. Their order in a curve-ordered store is the sort's
/// tie-break alone (ascending cell id).
TinField TiedTin() {
  std::vector<TinVertex> vertices = {{{0, 0}, 0.0}, {{1, 0}, 1.0},
                                     {{1, 1}, 2.0}, {{0, 1}, 3.0}};
  std::vector<TinTriangle> triangles = {{{0, 1, 3}}, {{1, 2, 3}}};
  for (uint32_t k = 0; k < 24; ++k) {
    const double x = 0.5 + 1e-8 * (k % 5);
    const double y = 0.25 + 1e-8 * (k / 5);
    const uint32_t first = static_cast<uint32_t>(vertices.size());
    vertices.push_back({{x, y}, 0.1 * k});
    vertices.push_back({{x + 1e-9, y}, 0.1 * k + 0.05});
    vertices.push_back({{x, y + 1e-9}, 0.1 * k + 0.02});
    triangles.push_back({{first, first + 1, first + 2}});
  }
  return TinField::Create(std::move(vertices), std::move(triangles)).value();
}

void SaveGrid(const Field& field, const FieldDatabaseOptions& options,
              const std::string& prefix) {
  auto db = FieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Save(prefix).ok());
}

TEST(BuildIdentityTest, FractalUnderEveryMethod) {
  const GridField field = Fractal64();
  const std::vector<std::pair<IndexMethod, std::vector<FileCrc>>> cases = {
      {IndexMethod::kLinearScan,
       {{".pages", 0x9f089105}, {".meta", 0x07f22a10}}},
      {IndexMethod::kIAll, {{".pages", 0xd48218b4}, {".meta", 0xfeb6a805}}},
      {IndexMethod::kIHilbert,
       {{".pages", 0x378c42b7}, {".meta", 0xa9d80154}}},
      {IndexMethod::kIntervalQuadtree,
       {{".pages", 0x3134d3df}, {".meta", 0x5c5c2b86}}},
  };
  for (const auto& [method, files] : cases) {
    SCOPED_TRACE(IndexMethodName(method));
    FieldDatabaseOptions options;
    options.method = method;
    const std::string prefix = Prefix(IndexMethodName(method));
    SaveGrid(field, options, prefix);
    ExpectFiles(prefix, files);
  }
  // Row-IP cannot be saved: its pages are hashed in memory, written
  // back and read in id order as Save would read them.
  FieldDatabaseOptions options;
  options.method = IndexMethod::kRowIp;
  auto db = FieldDatabase::Build(field, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->pool().Flush().ok());
  const PageFile& file = *(*db)->pool().file();
  uint32_t crc = 0;
  Page page(file.page_size());
  for (PageId id = 0; id < file.NumPages(); ++id) {
    ASSERT_TRUE(file.Read(id, &page).ok());
    crc = Crc32cExtend(crc, page.data(), page.size());
  }
  EXPECT_EQ(crc, 0xbdd414d9u);
}

TEST(BuildIdentityTest, BudgetedIHilbertBuildSpills) {
  FieldDatabaseOptions options;
  options.build_memory_budget_bytes = 16 << 10;
  auto db = FieldDatabase::Build(Fractal64(), options);
  ASSERT_TRUE(db.ok());
  EXPECT_GT((*db)->build_info().ext_spill_runs, 1u);
  const std::string prefix = Prefix("budgeted");
  ASSERT_TRUE((*db)->Save(prefix).ok());
  ExpectFiles(prefix, {{".pages", 0x378c42b7}, {".meta", 0xa9d80154}});
}

TEST(BuildIdentityTest, Tins) {
  const std::string noise = Prefix("noise_tin");
  SaveGrid(MakeUrbanNoiseTin().value(), {}, noise);
  ExpectFiles(noise, {{".pages", 0x34015f79}, {".meta", 0x15e8dfb8}});

  // The tied cells in RAM and through spilled runs.
  const TinField tied = TiedTin();
  for (const size_t budget : {size_t{0}, size_t{256}}) {
    SCOPED_TRACE(budget);
    FieldDatabaseOptions options;
    options.build_memory_budget_bytes = budget;
    const std::string prefix = Prefix("tied_tin");
    SaveGrid(tied, options, prefix);
    ExpectFiles(prefix, {{".pages", 0x2dd0e37f}, {".meta", 0xfda0fab0}});
  }
}

TEST(BuildIdentityTest, ExtensionFields) {
  {
    constexpr uint32_t n = 16;
    std::vector<double> su((n + 1) * (n + 1)), sv((n + 1) * (n + 1));
    for (uint32_t j = 0; j <= n; ++j) {
      for (uint32_t i = 0; i <= n; ++i) {
        su[j * (n + 1) + i] = static_cast<double>(i) + j;
        sv[j * (n + 1) + i] = static_cast<double>(i) - j;
      }
    }
    auto field =
        VectorGridField::Create(n, n, Rect2{{0, 0}, {1, 1}}, su, sv).value();
    auto db = VectorFieldDatabase::Build(field, {});
    ASSERT_TRUE(db.ok());
    const std::string prefix = Prefix("vector");
    ASSERT_TRUE((*db)->Save(prefix).ok());
    ExpectFiles(prefix, {{".pages", 0xa4cc2155}, {".meta", 0xfa9d173b}});
  }
  {
    VolumeFractalOptions vo;
    vo.nx = vo.ny = vo.nz = 8;
    vo.roughness_h = 0.7;
    vo.seed = 909;
    auto db = VolumeFieldDatabase::Build(MakeFractalVolume(vo).value(), {});
    ASSERT_TRUE(db.ok());
    const std::string prefix = Prefix("volume");
    ASSERT_TRUE((*db)->Save(prefix).ok());
    ExpectFiles(prefix, {{".pages", 0x03625cb6}, {".meta", 0xa82c4c3c}});
  }
  {
    constexpr uint32_t n = 16;
    std::vector<std::vector<double>> snapshots(4);
    for (uint32_t k = 0; k < snapshots.size(); ++k) {
      snapshots[k].resize((n + 1) * (n + 1));
      for (uint32_t j = 0; j <= n; ++j) {
        for (uint32_t i = 0; i <= n; ++i) {
          snapshots[k][j * (n + 1) + i] = static_cast<double>(i) + j + 10.0 * k;
        }
      }
    }
    auto field = TemporalGridField::Create(n, n, Rect2{{0, 0}, {1, 1}},
                                           std::move(snapshots))
                     .value();
    auto db = TemporalFieldDatabase::Build(field, {});
    ASSERT_TRUE(db.ok());
    const std::string prefix = Prefix("temporal");
    ASSERT_TRUE((*db)->Save(prefix).ok());
    ExpectFiles(prefix, {{".pages", 0xfdc183eb}, {".meta", 0xe32d534f}});
  }
}

TEST(BuildIdentityTest, TwoShardRouter) {
  ShardRouterOptions options;
  options.shards = 2;
  auto router = ShardRouter::Build(Fractal64(), options);
  ASSERT_TRUE(router.ok());
  const std::string prefix = Prefix("router");
  ASSERT_TRUE((*router)->Save(prefix).ok());
  ExpectFiles(prefix, {{".router", 0xe1a57590},
                       {".s0.pages", 0x5cbb8018},
                       {".s0.meta", 0xf02df634},
                       {".s1.pages", 0xfa88d8b6},
                       {".s1.meta", 0x2e8043c9}});
}

}  // namespace
}  // namespace fielddb
