#ifndef FIELDDB_CORE_CATALOG_H_
#define FIELDDB_CORE_CATALOG_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/geometry.h"
#include "common/interval.h"
#include "common/status.h"
#include "index/subfield.h"
#include "rtree/rstar_tree.h"
#include "storage/page.h"

namespace fielddb {

/// Every key a snapshot catalog can hold, in file order (DESIGN.md §9).
/// A catalog is a magic line followed by `key v1 v2 ...` lines; each
/// field type's CatalogSchema picks the keys it writes, and all four
/// formats share this order, so one writer and one reader serve them.
enum class CatalogKey : uint32_t {
  kPageSize,        // page_size <u32>
  kEpoch,           // epoch <u32>: the snapshot generation, >= 1
  kMethod,          // method <u32>: the field type's index method
  kNumSlabs,        // num_slabs <u32> (temporal)
  kNumCells,        // num_cells <u64>: records in each store
  kStoreFirstPage,  // store_first_page <page>
  kVoxelVolume,     // voxel_volume <double> (volume)
  kValueRange,      // value_range <min> <max>
  kDomain,          // domain <lo.x> <lo.y> <hi.x> <hi.y> (grid)
  kGrid,            // grid <cols> <rows>: a lattice store's lattice (grid)
  kBuildEntries,    // build_entries <u64> (grid)
  kTree,            // tree <root page> <height> <size> <num_nodes>
  kSpatial,         // spatial <root page> <height> <size> <num_nodes>
  kSlab,            // slab <k> <first page>: one row per slab (temporal)
  kSubfields,       // subfields <u64>: the number of sf/sfv/tsf rows
  kSf,              // sf <start> <end> <min> <max> <sum>
  kSfv,             // sfv <start> <end> <lo.u> <lo.v> <hi.u> <hi.v> <sum>
  kTsf,             // tsf <k> <start> <end> <min> <max> <sum>
  kCount,
};

/// A bit set over enumerators: bit i is set for the enumerator of value i.
template <typename Enum>
constexpr uint32_t CatalogBits(std::initializer_list<Enum> values) {
  uint32_t bits = 0;
  for (const Enum v : values) bits |= uint32_t{1} << static_cast<uint32_t>(v);
  return bits;
}

/// One field type's catalog format.
struct CatalogSchema {
  /// The first line of the file.
  const char* magic;
  /// A retired format's magic (the grid's v1, whose pages carry no
  /// checksums), refused with a re-save hint; may be null.
  const char* retired_magic;
  /// The keys the type writes (CatalogBits over CatalogKey). All but
  /// `tree`, `spatial` and the rows are required.
  uint32_t keys;
  /// `method` lies in [0, num_methods); a type without the key has 1.
  uint32_t num_methods;
  /// Methods (CatalogBits over the type's method enum) that need a
  /// `tree` line, and those whose subfield rows must tile each store;
  /// the other methods have no subfield rows.
  uint32_t tree_methods;
  uint32_t tiled_methods;
  /// Bytes per store slot: bounds `num_cells` by the page file
  /// (RecordSize picks the one of the catalog's layout).
  uint32_t record_size;
  /// Bytes per slot of a lattice store, the layout a `grid` line
  /// selects; 0 for a type without lattice stores.
  uint32_t lattice_record_size = 0;
};

/// The `grid` line: the lattice of a grid store that keeps only each
/// cell's values (its domain is the `domain` line).
struct CatalogGrid {
  uint32_t cols = 0;
  uint32_t rows = 0;
};

/// A temporal `slab` row: slab `slab`'s store starts at `first_page`.
struct CatalogSlab {
  uint32_t slab = 0;
  PageId first_page = 0;
};

/// A temporal `tsf` row: one subfield of slab `slab`'s store.
struct CatalogSlabSubfield {
  uint32_t slab = 0;
  Subfield subfield;
};

/// A decoded catalog: the union of every field type's keys. A type
/// leaves the keys its schema does not name at their defaults.
struct Catalog {
  uint32_t page_size = 0;
  uint32_t epoch = 0;
  uint32_t method = 0;
  uint32_t num_slabs = 0;
  uint64_t num_cells = 0;
  PageId store_first_page = 0;
  double voxel_volume = 0.0;
  ValueInterval value_range;
  Rect2 domain;
  std::optional<CatalogGrid> grid;
  uint64_t build_entries = 0;
  std::optional<RStarMeta> tree;
  std::optional<RStarMeta> spatial;
  std::vector<CatalogSlab> slabs;  // in slab order
  /// The `subfields` line. WriteCatalog derives it from the rows.
  uint64_t num_subfields = 0;
  std::vector<Subfield> subfields;                  // sf rows
  std::vector<VectorSubfield> vector_subfields;     // sfv rows
  std::vector<CatalogSlabSubfield> slab_subfields;  // tsf rows, slab-major
};

/// Writes the text catalog `text` at `path`, then makes it durable
/// (fflush + fsync) before it can become a rename target.
Status WriteCatalogFile(const std::string& path, std::string_view text);

/// Appends the checksum line that ends every catalog (grid, temporal,
/// vector, volume and the router's): `crc32c <8 hex digits>`, the
/// CRC32C of every byte of `*text` before the line.
void SignCatalog(std::string* text);

/// Reads the catalog file at `path` (kIOError when it cannot be read)
/// and returns its body: the bytes before its checksum line, checked
/// against it before any key is parsed. A catalog without the line —
/// one saved before catalogs were signed — is all body. A checksum that
/// does not match, a malformed line or one that is not the last (a
/// second one included) is kCorruption.
StatusOr<std::string> ReadCatalogBody(const std::string& path);

/// Splits the next whitespace-separated token off `*rest`; empty at the
/// end of the text.
std::string_view NextCatalogToken(std::string_view* rest);

/// Parses a whole token into `*out`, range-checked: an unsigned integer
/// must fit its field and carry no sign, a double must be finite.
template <typename T>
bool ParseCatalogValue(std::string_view token, T* out) {
  const char* const last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, *out);
  if (ec != std::errc() || end != last) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(*out);
  return true;
}

/// Writes `catalog` in `schema`'s format to `path`, signed (SignCatalog),
/// and makes it durable (WriteCatalogFile). Integers print in decimal
/// and doubles as `%.17g`, so every value reads back exactly.
Status WriteCatalog(const std::string& path, const CatalogSchema& schema,
                    Catalog catalog);

/// Bytes per store slot in `catalog`'s layout: the lattice slot when it
/// has a `grid` line, else `schema.record_size`.
uint32_t RecordSize(const CatalogSchema& schema, const Catalog& catalog);

/// Reads and validates a catalog written by WriteCatalog. Every value
/// must parse in range for its field (unsigned integers without a sign,
/// finite doubles) with the key's fixed arity; a scalar key appears at
/// most once and a required key (with `tree` for the methods that need
/// one) must appear. The shared rules follow: `page_size` fits a record
/// and at most 64 MiB, `epoch` >= 1, `method` < num_methods, ranges and
/// the domain are not inverted, `voxel_volume` >= 0, `num_slabs` in
/// [1, 2^20] with one `slab` line each, and the subfield rows match
/// their declared count and tile `[0, num_cells)` (per slab for `tsf`).
/// A `grid` line needs cols and rows >= 1 with cols x rows lattice ids
/// that fit a CellId, no more than that many cells, and a domain of
/// positive width and height.
/// The body is checked against its checksum line first
/// (ReadCatalogBody). A failure is kCorruption naming the key; a missing
/// file is kIOError.
StatusOr<Catalog> ReadCatalog(const std::string& path,
                              const CatalogSchema& schema);

/// The checks that need the page file, run before anything is sized from
/// `num_cells`: the `tree` and `spatial` roots and every store's first
/// and last page (`store_first_page`, each `slab`) must lie in its
/// `num_pages` pages. An oversized `num_cells` is kCorruption naming it.
Status CheckCatalogPages(const std::string& path, const CatalogSchema& schema,
                         const Catalog& catalog, uint64_t num_pages);

}  // namespace fielddb

#endif  // FIELDDB_CORE_CATALOG_H_
