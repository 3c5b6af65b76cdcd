// FieldDatabase persistence: Save writes the checksummed page file and a
// text catalog to temp paths, fsyncs, then atomically renames them over
// the previous snapshot (crash-safe: an interrupted save leaves the old
// snapshot loadable). Open validates the catalog strictly (the shared
// codec, core/catalog.h) and re-attaches every component (cell store —
// lattice slots when the catalog has a `grid` line, explicit CellRecords
// otherwise — value index, spatial tree) against the on-disk pages.

#include <optional>
#include <string>

#include "core/field_database.h"
#include "core/field_engine.h"

namespace fielddb {

namespace {

// v2 added the per-page [crc | epoch | page id] header framing and the
// `epoch` key; v1 files have no page headers and cannot be verified, so
// they are rejected rather than trusted.
constexpr CatalogSchema kGridCatalog = {
    .magic = "fielddb-meta-v2",
    .retired_magic = "fielddb-meta-v1",
    .keys = CatalogBits({CatalogKey::kPageSize, CatalogKey::kEpoch,
                         CatalogKey::kMethod, CatalogKey::kNumCells,
                         CatalogKey::kStoreFirstPage, CatalogKey::kValueRange,
                         CatalogKey::kDomain, CatalogKey::kGrid,
                         CatalogKey::kBuildEntries,
                         CatalogKey::kTree, CatalogKey::kSpatial,
                         CatalogKey::kSubfields, CatalogKey::kSf}),
    // Row-IP is a comparison baseline without persistence support.
    .num_methods = static_cast<uint32_t>(IndexMethod::kRowIp),
    .tree_methods = CatalogBits({IndexMethod::kIAll, IndexMethod::kIHilbert,
                                 IndexMethod::kIntervalQuadtree}),
    // Only I-Hilbert and the Interval Quadtree partition the store.
    .tiled_methods =
        CatalogBits({IndexMethod::kIHilbert, IndexMethod::kIntervalQuadtree}),
    .record_size = sizeof(CellRecord),
    .lattice_record_size = sizeof(LatticeSlot),
};

/// kCorruption naming the key that `num_cells` disagrees with.
Status Disagrees(const std::string& path, const Catalog& catalog,
                 const char* key) {
  return Status::Corruption("catalog " + path + ": 'num_cells' " +
                            std::to_string(catalog.num_cells) +
                            " disagrees with '" + key + "'");
}

/// kCorruption unless the catalog's own counts agree with `num_cells`:
/// the spatial tree holds one entry per cell, and so do I-All's value
/// tree and build. Runs after the page-file bounds, so an oversized
/// `num_cells` is still refused under its own name first.
Status CheckCellCounts(const std::string& path, const Catalog& catalog) {
  if (catalog.spatial && catalog.spatial->size != catalog.num_cells) {
    return Disagrees(path, catalog, "spatial");
  }
  if (static_cast<IndexMethod>(catalog.method) == IndexMethod::kIAll) {
    if (catalog.tree->size != catalog.num_cells) {
      return Disagrees(path, catalog, "tree");
    }
    if (catalog.build_entries != catalog.num_cells) {
      return Disagrees(path, catalog, "build_entries");
    }
  }
  return Status::OK();
}

/// kCorruption unless the attached store ends where `num_cells` says,
/// which nothing else states for LinearScan: the bytes past its last
/// record on the store's last page are zero (the appender leaves them
/// so and no update writes them), and a LinearScan store with no
/// spatial tree after it ends at the page file's last page.
Status CheckStoreEnd(const std::string& path, const Catalog& catalog,
                     const CellStore& store, uint64_t file_pages) {
  StatusOr<bool> tail_is_zero = store.records().TailIsZero();
  if (!tail_is_zero.ok()) return tail_is_zero.status();
  const bool store_ends_file =
      store.first_page() + store.num_pages() == file_pages;
  if (!*tail_is_zero ||
      (static_cast<IndexMethod>(catalog.method) == IndexMethod::kLinearScan &&
       !catalog.spatial && !store_ends_file)) {
    return Disagrees(path, catalog, "store_first_page");
  }
  return Status::OK();
}

}  // namespace

StatusOr<uint32_t> FieldDatabase::PeekEpoch(const std::string& prefix) {
  StatusOr<Catalog> catalog = ReadCatalog(prefix + ".meta", kGridCatalog);
  if (!catalog.ok()) return catalog.status();
  return catalog->epoch;
}

Status FieldDatabase::Save(const std::string& prefix) {
  return SaveImpl(prefix, SaveCrashPoint::kNone);
}

Status FieldDatabase::SaveImpl(const std::string& prefix,
                               SaveCrashPoint crash_point) {
  if (index_->method() == IndexMethod::kRowIp) {
    // Refuse before any page is copied, not from inside the pipeline.
    return Status::Unimplemented(
        "Row-IP is a comparison baseline without persistence support");
  }
  // The page-copy / rename / WAL-truncate pipeline is the engine's
  // (field-type-agnostic); only the catalog's keys are ours.
  return engine_.SaveSnapshot(
      prefix, crash_point, kGridCatalog, [&](Catalog* catalog) {
        const CellStore& store = index_->cell_store();
        catalog->method = static_cast<uint32_t>(index_->method());
        catalog->num_cells = store.size();
        catalog->store_first_page = store.first_page();
        catalog->value_range = value_range_;
        catalog->domain = domain_;
        if (const GridLattice* lattice = this->lattice()) {
          catalog->grid = CatalogGrid{lattice->cols, lattice->rows};
        }
        catalog->build_entries = index_->build_info().num_index_entries;
        if (const RStarTree<1>* tree = index_->tree()) {
          catalog->tree = tree->meta();
        }
        if (const std::vector<Subfield>* sfs = index_->subfields()) {
          catalog->subfields = *sfs;
        }
        if (spatial_.has_value()) catalog->spatial = spatial_->meta();
      });
}

StatusOr<std::unique_ptr<FieldDatabase>> FieldDatabase::Open(
    const std::string& prefix, size_t pool_pages) {
  OpenOptions options;
  options.pool_pages = pool_pages;
  return Open(prefix, options);
}

StatusOr<std::unique_ptr<FieldDatabase>> FieldDatabase::Open(
    const std::string& prefix, const OpenOptions& options) {
  auto db = std::unique_ptr<FieldDatabase>(new FieldDatabase());
  StatusOr<Catalog> catalog =
      db->engine_.InitForOpen(prefix, kGridCatalog, options);
  if (!catalog.ok()) return catalog.status();
  FIELDDB_RETURN_IF_ERROR(CheckCellCounts(prefix + ".meta", *catalog));
  BufferPool* const pool = db->engine_.pool();
  db->value_range_ = catalog->value_range;
  db->domain_ = catalog->domain;

  // The `grid` line selects lattice slots; the codec made its domain a
  // positive-area rectangle.
  const CellSlots slots =
      catalog->grid ? CellSlots(GridLattice{catalog->grid->cols,
                                            catalog->grid->rows,
                                            catalog->domain})
                    : CellSlots();
  StatusOr<CellStore> store = CellStore::Attach(
      pool, catalog->store_first_page, catalog->num_cells, slots);
  if (!store.ok()) return store.status();
  FIELDDB_RETURN_IF_ERROR(CheckStoreEnd(prefix + ".meta", *catalog, *store,
                                        pool->file()->NumPages()));

  IndexBuildInfo info;
  info.num_cells = catalog->num_cells;
  info.num_index_entries = catalog->build_entries;
  info.num_subfields = catalog->subfields.size();
  info.store_pages = store->num_pages();
  info.tree_height = catalog->tree ? catalog->tree->height : 0;
  info.tree_nodes = catalog->tree ? catalog->tree->num_nodes : 0;

  // The codec bounded the method and required a tree for every method
  // but LinearScan.
  std::optional<RStarTree<1>> tree;
  if (catalog->tree) {
    StatusOr<RStarTree<1>> attached =
        RStarTree<1>::Attach(pool, *catalog->tree);
    if (!attached.ok()) return attached.status();
    tree.emplace(std::move(attached).value());
  }
  db->index_ = ValueIndex::Attach(
      static_cast<IndexMethod>(catalog->method), std::move(store).value(),
      std::move(tree), std::move(catalog->subfields), info);
  if (catalog->spatial) {
    StatusOr<RStarTree<2>> spatial =
        RStarTree<2>::Attach(pool, *catalog->spatial);
    if (!spatial.ok()) return spatial.status();
    db->spatial_.emplace(std::move(spatial).value());
  }
  // Planning is a pure function of the attached index state, so a
  // reopened snapshot plans exactly like the database that saved it.
  db->InitPlanner();

  // Recovery: replay the write-ahead log over the snapshot (logical
  // redo through the same UpdateCellValues path the original mutations
  // took, so the zone map, subfield intervals and interval-tree entries
  // are all maintained, not just pages), then either keep logging or
  // fold into a fresh checkpoint. The scan/replay/verify pipeline,
  // stale-epoch filtering, metrics and events are the engine's.
  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishOpen(
      prefix, options,
      [&](const WalFrame& frame) -> Status {
        FIELDDB_RETURN_IF_ERROR(
            db->index_->UpdateCellValues(frame.cell_id, frame.values));
        for (const double w : frame.values) db->value_range_.Extend(w);
        return Status::OK();
      },
      [&]() { return db->SaveImpl(prefix, SaveCrashPoint::kNone); }));
  return db;
}

}  // namespace fielddb
