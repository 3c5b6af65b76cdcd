#ifndef FIELDDB_CORE_CATALOG_H_
#define FIELDDB_CORE_CATALOG_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
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
  /// Bytes per store record: bounds `num_cells` by the page file.
  uint32_t record_size;
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

/// Writes a text catalog at `path` through `body`, then makes it durable
/// (fflush + fsync) before it can become a rename target. `body` returns
/// false on a formatting failure.
Status WriteCatalogFile(const std::string& path,
                        const std::function<bool(std::FILE*)>& body);

/// Writes `catalog` in `schema`'s format to `path` and makes it durable
/// (WriteCatalogFile). Integers print in decimal and doubles as `%.17g`,
/// so every value reads back exactly.
Status WriteCatalog(const std::string& path, const CatalogSchema& schema,
                    Catalog catalog);

/// Reads and validates a catalog written by WriteCatalog. Every value
/// must parse in range for its field (unsigned integers without a sign,
/// finite doubles) with the key's fixed arity; a scalar key appears at
/// most once and a required key (with `tree` for the methods that need
/// one) must appear. The shared rules follow: `page_size` fits a record
/// and at most 64 MiB, `epoch` >= 1, `method` < num_methods, ranges and
/// the domain are not inverted, `voxel_volume` >= 0, `num_slabs` in
/// [1, 2^20] with one `slab` line each, and the subfield rows match
/// their declared count and tile `[0, num_cells)` (per slab for `tsf`).
/// A failure is kCorruption naming the key; a missing file is kIOError.
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
