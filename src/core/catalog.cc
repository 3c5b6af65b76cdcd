// The snapshot catalog codec: one writer, one reader and one validator
// for the grid, temporal, vector and volume catalogs (DESIGN.md §9).

#include "core/catalog.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string_view>
#include <type_traits>

#include "field/cell.h"
#include "storage/crc32c.h"

namespace fielddb {

namespace {

// Indexed by CatalogKey.
constexpr const char* kKeyNames[] = {
    "page_size", "epoch", "method", "num_slabs", "num_cells",
    "store_first_page", "voxel_volume", "value_range", "domain", "grid",
    "build_entries", "tree", "spatial", "slab", "subfields", "sf", "sfv",
    "tsf"};
static_assert(std::size(kKeyNames) == static_cast<size_t>(CatalogKey::kCount));

constexpr uint32_t kRowKeys = CatalogBits(
    {CatalogKey::kSlab, CatalogKey::kSf, CatalogKey::kSfv, CatalogKey::kTsf});
constexpr uint32_t kOptionalKeys =
    kRowKeys | CatalogBits({CatalogKey::kGrid, CatalogKey::kTree,
                            CatalogKey::kSpatial});

constexpr uint32_t kMaxPageSize = uint32_t{1} << 26;
constexpr uint32_t kMaxSlabs = uint32_t{1} << 20;
constexpr uint64_t kMaxRows = uint64_t{1} << 24;
// The longest line WriteCatalog emits (`sfv`) is under 200 bytes.
constexpr size_t kMaxLineBytes = 512;
constexpr const char* kSpace = " \t\r\n\v\f";
// The key of the checksum line that ends a signed catalog.
constexpr const char* kChecksumKey = "crc32c";

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

bool Has(uint32_t bits, uint32_t i) { return i < 32 && ((bits >> i) & 1); }

bool HasKey(const CatalogSchema& schema, CatalogKey key) {
  return Has(schema.keys, static_cast<uint32_t>(key));
}

/// Lines `key` takes in `c`: one per row, one for a present tree, else 1.
size_t LineCount(CatalogKey key, const Catalog& c) {
  switch (key) {
    case CatalogKey::kGrid:
      return c.grid ? 1 : 0;
    case CatalogKey::kTree:
      return c.tree ? 1 : 0;
    case CatalogKey::kSpatial:
      return c.spatial ? 1 : 0;
    case CatalogKey::kSlab:
      return c.slabs.size();
    case CatalogKey::kSf:
      return c.subfields.size();
    case CatalogKey::kSfv:
      return c.vector_subfields.size();
    case CatalogKey::kTsf:
      return c.slab_subfields.size();
    default:
      return 1;
  }
}

/// Row `row` of `rows`, appended when it is one past the end (reading;
/// a tree line likewise emplaces its meta).
template <typename T>
T& Row(std::vector<T>& rows, size_t row) {
  if (row == rows.size()) rows.emplace_back();
  return rows[row];
}

/// Calls `visit` on each field behind one line of `key`, in token order;
/// row keys address row `row`. The writer and the reader both walk this
/// one list, so what is written is exactly what is read back.
template <typename Visit>
void ForEachValue(CatalogKey key, Catalog& c, size_t row, Visit&& visit) {
  const auto tree = [&](RStarMeta& m) {
    visit(m.root);
    visit(m.height);
    visit(m.size);
    visit(m.num_nodes);
  };
  const auto subfield = [&](Subfield& s) {
    visit(s.start);
    visit(s.end);
    visit(s.interval.min);
    visit(s.interval.max);
    visit(s.sum_interval_sizes);
  };
  switch (key) {
    case CatalogKey::kPageSize:
      return visit(c.page_size);
    case CatalogKey::kEpoch:
      return visit(c.epoch);
    case CatalogKey::kMethod:
      return visit(c.method);
    case CatalogKey::kNumSlabs:
      return visit(c.num_slabs);
    case CatalogKey::kNumCells:
      return visit(c.num_cells);
    case CatalogKey::kStoreFirstPage:
      return visit(c.store_first_page);
    case CatalogKey::kVoxelVolume:
      return visit(c.voxel_volume);
    case CatalogKey::kValueRange:
      visit(c.value_range.min);
      return visit(c.value_range.max);
    case CatalogKey::kDomain:
      visit(c.domain.lo.x);
      visit(c.domain.lo.y);
      visit(c.domain.hi.x);
      return visit(c.domain.hi.y);
    case CatalogKey::kGrid: {
      CatalogGrid& g = c.grid ? *c.grid : c.grid.emplace();
      visit(g.cols);
      return visit(g.rows);
    }
    case CatalogKey::kBuildEntries:
      return visit(c.build_entries);
    case CatalogKey::kTree:
      return tree(c.tree ? *c.tree : c.tree.emplace());
    case CatalogKey::kSpatial:
      return tree(c.spatial ? *c.spatial : c.spatial.emplace());
    case CatalogKey::kSlab: {
      CatalogSlab& s = Row(c.slabs, row);
      visit(s.slab);
      return visit(s.first_page);
    }
    case CatalogKey::kSubfields:
      return visit(c.num_subfields);
    case CatalogKey::kSf:
      return subfield(Row(c.subfields, row));
    case CatalogKey::kSfv: {
      VectorSubfield& s = Row(c.vector_subfields, row);
      visit(s.start);
      visit(s.end);
      visit(s.box.lo[0]);
      visit(s.box.lo[1]);
      visit(s.box.hi[0]);
      visit(s.box.hi[1]);
      return visit(s.sum_box_sizes);
    }
    case CatalogKey::kTsf: {
      CatalogSlabSubfield& s = Row(c.slab_subfields, row);
      visit(s.slab);
      return subfield(s.subfield);
    }
    case CatalogKey::kCount:
      return;
  }
}

bool Ordered(const Subfield& s) { return s.interval.min <= s.interval.max; }

bool Ordered(const VectorSubfield& s) {
  return s.box.lo[0] <= s.box.hi[0] && s.box.lo[1] <= s.box.hi[1];
}

/// Whether `rows` are a valid subfield table: none for an untiled
/// method, else non-inverted rows whose [start, end) runs tile
/// [0, num_cells) in order. The builders always produce a tiling, and
/// updates locate a cell's subfield by it (SubfieldContaining).
template <typename Row>
bool ValidTable(const std::vector<Row>& rows, bool tiled, uint64_t num_cells) {
  if (!tiled) return rows.empty();
  uint64_t next = 0;
  for (const Row& r : rows) {
    if (r.start != next || r.end < r.start || !Ordered(r)) return false;
    next = r.end;
  }
  return next == num_cells;
}

Status Invalid(const std::string& path, std::string_view key) {
  return Status::Corruption("catalog " + path + ": invalid value for '" +
                            std::string(key) + "'");
}

/// Parses the lines of `body` into `*c`, setting bit k of `*seen` for
/// each key k met.
Status ParseLines(std::string_view body, const std::string& path,
                  const CatalogSchema& schema, Catalog* c, uint32_t* seen) {
  bool magic = false;
  uint64_t rows = 0;
  while (!body.empty()) {
    const size_t eol = std::min(body.find('\n'), body.size());
    std::string_view rest = body.substr(0, eol);
    body.remove_prefix(std::min(eol + 1, body.size()));
    // No line WriteCatalog emits is this long or holds a NUL byte.
    if (rest.size() >= kMaxLineBytes ||
        rest.find('\0') != std::string_view::npos) {
      return Status::Corruption("catalog " + path + ": malformed line");
    }
    const std::string_view name = NextCatalogToken(&rest);
    if (name.empty()) continue;
    if (!magic) {
      if (name == schema.magic && NextCatalogToken(&rest).empty()) {
        magic = true;
        continue;
      }
      if (schema.retired_magic != nullptr && name == schema.retired_magic) {
        return Status::Corruption("catalog " + path + ": retired format " +
                                  schema.retired_magic +
                                  "; re-save with this version");
      }
      return Status::Corruption("bad magic in " + path);
    }
    uint32_t k = 0;
    while (k < std::size(kKeyNames) &&
           !(Has(schema.keys, k) && name == kKeyNames[k])) {
      ++k;
    }
    if (k == std::size(kKeyNames)) {
      return Status::Corruption("catalog " + path + ": unknown key '" +
                                std::string(name) + "'");
    }
    const bool row_key = Has(kRowKeys, k);
    if (row_key ? ++rows > kMaxRows : Has(*seen, k)) return Invalid(path, name);
    *seen |= uint32_t{1} << k;
    const CatalogKey key = static_cast<CatalogKey>(k);
    bool ok = true;
    ForEachValue(key, *c, LineCount(key, *c), [&](auto& v) {
      ok = ok && ParseCatalogValue(NextCatalogToken(&rest), &v);
    });
    if (!ok || !NextCatalogToken(&rest).empty()) return Invalid(path, name);
  }
  if (!magic) return Status::Corruption("bad magic in " + path);
  return Status::OK();
}

/// The rules every field type shares, after parsing (see ReadCatalog).
Status ValidateCatalog(const std::string& path, const CatalogSchema& schema,
                       const Catalog& c, uint32_t seen) {
  // Every key the schema writes is required but the optional ones, and
  // the tree too for the methods that need one.
  uint32_t required = schema.keys & ~kOptionalKeys;
  if (Has(schema.tree_methods, c.method)) {
    required |= CatalogBits({CatalogKey::kTree});
  }
  if (const uint32_t missing = required & ~seen; missing != 0) {
    return Status::Corruption("catalog " + path + ": missing key '" +
                              kKeyNames[std::countr_zero(missing)] + "'");
  }
  if (c.grid) {
    const uint64_t lattice_cells = uint64_t{c.grid->cols} * c.grid->rows;
    if (lattice_cells == 0 || lattice_cells > uint64_t{kInvalidCellId} ||
        !(c.domain.Width() > 0) || !(c.domain.Height() > 0)) {
      return Invalid(path, "grid");
    }
    if (c.num_cells > lattice_cells) return Invalid(path, "num_cells");
  }
  if (c.page_size < RecordSize(schema, c) || c.page_size > kMaxPageSize) {
    return Invalid(path, "page_size");
  }
  // Save stamps epoch >= 1; the page file reads 0 as "skip the check".
  if (c.epoch == 0) return Invalid(path, "epoch");
  if (c.method >= schema.num_methods) return Invalid(path, "method");
  if (c.value_range.min > c.value_range.max) {
    return Invalid(path, "value_range");
  }
  if (c.domain.lo.x > c.domain.hi.x || c.domain.lo.y > c.domain.hi.y) {
    return Invalid(path, "domain");
  }
  if (c.voxel_volume < 0.0) return Invalid(path, "voxel_volume");
  if (HasKey(schema, CatalogKey::kNumSlabs) &&
      (c.num_slabs == 0 || c.num_slabs > kMaxSlabs)) {
    return Invalid(path, "num_slabs");
  }
  if (c.slabs.size() != c.num_slabs) return Invalid(path, "slab");
  for (uint32_t k = 0; k < c.num_slabs; ++k) {
    if (c.slabs[k].slab != k) return Invalid(path, "slab");
  }
  if (c.num_subfields != c.subfields.size() + c.vector_subfields.size() +
                             c.slab_subfields.size()) {
    return Invalid(path, "subfields");
  }
  // A schema has one kind of subfield row.
  const bool tiled = Has(schema.tiled_methods, c.method);
  if (HasKey(schema, CatalogKey::kSf) &&
      !ValidTable(c.subfields, tiled, c.num_cells)) {
    return Invalid(path, "sf");
  }
  if (HasKey(schema, CatalogKey::kSfv) &&
      !ValidTable(c.vector_subfields, tiled, c.num_cells)) {
    return Invalid(path, "sfv");
  }
  // tsf rows run slab-major, and each slab's rows tile its own store.
  size_t next = 0;
  for (uint32_t k = 0; k < c.num_slabs; ++k) {
    std::vector<Subfield> slab;
    for (; next < c.slab_subfields.size() && c.slab_subfields[next].slab == k;
         ++next) {
      slab.push_back(c.slab_subfields[next].subfield);
    }
    if (!ValidTable(slab, tiled, c.num_cells)) return Invalid(path, "tsf");
  }
  if (next != c.slab_subfields.size()) return Invalid(path, "tsf");
  // A tiled method's tree holds one entry per subfield row (for
  // temporal, the rows of every slab).
  if (tiled && c.tree && c.tree->size != c.num_subfields) {
    return Invalid(path, "tree");
  }
  return Status::OK();
}

}  // namespace

uint32_t RecordSize(const CatalogSchema& schema, const Catalog& catalog) {
  return catalog.grid ? schema.lattice_record_size : schema.record_size;
}

Status WriteCatalogFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  // Make the catalog durable before it can become a rename target.
  ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  return ok ? Status::OK() : Status::IOError("flush failed for " + path);
}

void SignCatalog(std::string* text) {
  char line[32];
  std::snprintf(line, sizeof(line), "%s %08x\n", kChecksumKey,
                Crc32c(text->data(), text->size()));
  *text += line;
}

StatusOr<std::string> ReadCatalogBody(const std::string& path) {
  std::string text;
  {
    const std::unique_ptr<std::FILE, FileCloser> f(
        std::fopen(path.c_str(), "rb"));
    if (f == nullptr) return Status::IOError("cannot read " + path);
    char buf[1 << 16];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
      text.append(buf, got);
    }
    if (std::ferror(f.get())) return Status::IOError("cannot read " + path);
  }
  // The checksum line starts the text or follows a newline.
  const std::string key = std::string(kChecksumKey) + " ";
  size_t at = text.starts_with(key) ? 0 : text.find("\n" + key);
  if (at == std::string::npos) return text;  // unsigned
  if (at > 0) ++at;
  std::string_view line = std::string_view(text).substr(at);
  uint32_t stored = 0;
  const std::string_view hex = line.substr(key.size(), 8);
  const auto [end, ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), stored, 16);
  // Exactly `crc32c` and 8 hex digits, then the end of the text.
  if (hex.size() != 8 || ec != std::errc() || end != hex.data() + 8 ||
      line.substr(key.size() + 8) != "\n") {
    return Status::Corruption("catalog " + path + ": invalid value for '" +
                              kChecksumKey + "'");
  }
  if (Crc32c(text.data(), at) != stored) {
    return Status::Corruption("catalog " + path + ": checksum mismatch");
  }
  text.resize(at);
  return text;
}

std::string_view NextCatalogToken(std::string_view* rest) {
  const size_t begin = rest->find_first_not_of(kSpace);
  if (begin == std::string_view::npos) {
    *rest = {};
    return {};
  }
  const size_t end = std::min(rest->find_first_of(kSpace, begin), rest->size());
  const std::string_view token = rest->substr(begin, end - begin);
  rest->remove_prefix(end);
  return token;
}

Status WriteCatalog(const std::string& path, const CatalogSchema& schema,
                    Catalog catalog) {
  catalog.num_subfields = catalog.subfields.size() +
                          catalog.vector_subfields.size() +
                          catalog.slab_subfields.size();
  std::string text = std::string(schema.magic) + "\n";
  for (uint32_t k = 0; k < std::size(kKeyNames); ++k) {
    if (!Has(schema.keys, k)) continue;
    const CatalogKey key = static_cast<CatalogKey>(k);
    for (size_t row = 0; row < LineCount(key, catalog); ++row) {
      text += kKeyNames[k];
      ForEachValue(key, catalog, row, [&](const auto& v) {
        text += ' ';
        if constexpr (std::is_floating_point_v<
                          std::remove_cvref_t<decltype(v)>>) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.17g", v);
          text += buf;
        } else {
          text += std::to_string(v);
        }
      });
      text += '\n';
    }
  }
  SignCatalog(&text);
  return WriteCatalogFile(path, text);
}

StatusOr<Catalog> ReadCatalog(const std::string& path,
                              const CatalogSchema& schema) {
  const StatusOr<std::string> body = ReadCatalogBody(path);
  if (!body.ok()) return body.status();
  Catalog catalog;
  uint32_t seen = 0;
  FIELDDB_RETURN_IF_ERROR(ParseLines(*body, path, schema, &catalog, &seen));
  FIELDDB_RETURN_IF_ERROR(ValidateCatalog(path, schema, catalog, seen));
  return catalog;
}

Status CheckCatalogPages(const std::string& path, const CatalogSchema& schema,
                         const Catalog& catalog, uint64_t num_pages) {
  if (catalog.tree && catalog.tree->root >= num_pages) {
    return Invalid(path, "tree");
  }
  if (catalog.spatial && catalog.spatial->root >= num_pages) {
    return Invalid(path, "spatial");
  }
  // A store of n > 0 records fills pages [first, first + ceil(n /
  // per_page)); an empty store reads none. ValidateCatalog made
  // per_page >= 1.
  const uint64_t per_page = catalog.page_size / RecordSize(schema, catalog);
  const auto check_store = [&](PageId first, const char* key) {
    if (catalog.num_cells == 0) return Status::OK();
    if (first >= num_pages) return Invalid(path, key);
    if ((catalog.num_cells - 1) / per_page >= num_pages - first) {
      return Invalid(path, "num_cells");
    }
    return Status::OK();
  };
  if (HasKey(schema, CatalogKey::kStoreFirstPage)) {
    FIELDDB_RETURN_IF_ERROR(
        check_store(catalog.store_first_page, "store_first_page"));
  }
  for (const CatalogSlab& slab : catalog.slabs) {
    FIELDDB_RETURN_IF_ERROR(check_store(slab.first_page, "slab"));
  }
  return Status::OK();
}

}  // namespace fielddb
