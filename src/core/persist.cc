// FieldDatabase persistence: Save writes the checksummed page file and a
// text catalog to temp paths, fsyncs, then atomically renames them over
// the previous snapshot (crash-safe: an interrupted save leaves the old
// snapshot loadable). Open validates the catalog strictly (the shared
// codec, core/catalog.h) and re-attaches every component (cell store,
// value index, spatial tree) against the on-disk pages.

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
                         CatalogKey::kDomain, CatalogKey::kBuildEntries,
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
};

/// kCorruption unless the catalog's own counts agree with `num_cells`:
/// the spatial tree holds one entry per cell, and so do I-All's value
/// tree and build. Runs after the page-file bounds, so an oversized
/// `num_cells` is still refused under its own name first.
Status CheckCellCounts(const std::string& path, const Catalog& catalog) {
  const auto disagrees = [&](const char* key) {
    return Status::Corruption("catalog " + path + ": 'num_cells' " +
                              std::to_string(catalog.num_cells) +
                              " disagrees with '" + key + "'");
  };
  if (catalog.spatial && catalog.spatial->size != catalog.num_cells) {
    return disagrees("spatial");
  }
  if (static_cast<IndexMethod>(catalog.method) == IndexMethod::kIAll) {
    if (catalog.tree->size != catalog.num_cells) return disagrees("tree");
    if (catalog.build_entries != catalog.num_cells) {
      return disagrees("build_entries");
    }
  }
  return Status::OK();
}

/// The 1-D value tree of the persistable methods that have one.
const RStarTree<1>* ValueTree(const ValueIndex& index) {
  switch (index.method()) {
    case IndexMethod::kIAll:
      return &static_cast<const IAllIndex&>(index).tree();
    case IndexMethod::kIHilbert:
      return &static_cast<const IHilbertIndex&>(index).tree();
    case IndexMethod::kIntervalQuadtree:
      return &static_cast<const IntervalQuadtreeIndex&>(index).tree();
    default:
      return nullptr;
  }
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
        catalog->build_entries = index_->build_info().num_index_entries;
        if (const RStarTree<1>* tree = ValueTree(*index_)) {
          catalog->tree = tree->meta();
        }
        if (const std::vector<Subfield>* sfs = subfields()) {
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
  pool->set_readahead_pages(options.readahead_pages);
  db->value_range_ = catalog->value_range;
  db->domain_ = catalog->domain;

  StatusOr<CellStore> store =
      CellStore::Attach(pool, catalog->store_first_page, catalog->num_cells);
  if (!store.ok()) return store.status();

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
  switch (static_cast<IndexMethod>(catalog->method)) {
    case IndexMethod::kLinearScan:
      db->index_ = LinearScanIndex::Attach(std::move(store).value(), info);
      break;
    case IndexMethod::kIAll:
      db->index_ = IAllIndex::Attach(std::move(store).value(),
                                     std::move(*tree), info);
      break;
    case IndexMethod::kIHilbert:
      db->index_ = IHilbertIndex::Attach(std::move(store).value(),
                                         std::move(*tree),
                                         std::move(catalog->subfields), info);
      break;
    case IndexMethod::kIntervalQuadtree:
      db->index_ = IntervalQuadtreeIndex::Attach(
          std::move(store).value(), std::move(*tree),
          std::move(catalog->subfields), info);
      break;
    case IndexMethod::kRowIp:
      return Status::Corruption("unknown index method in catalog");
  }
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
