// FieldDatabase persistence: Save writes the checksummed page file and a
// text catalog to temp paths, fsyncs, then atomically renames them over
// the previous snapshot (crash-safe: an interrupted save leaves the old
// snapshot loadable). Open validates the catalog strictly and re-attaches
// every component (cell store, value index, spatial tree) against the
// on-disk pages.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/field_database.h"
#include "core/field_engine.h"
#include "index/subfield_maintenance.h"

namespace fielddb {

namespace {

// v2 bumped for the per-page [crc | epoch | page id] header framing and
// the catalog's `epoch` key; v1 files have no page headers and cannot be
// verified, so they are rejected rather than trusted.
constexpr const char* kMagic = "fielddb-meta-v2";
constexpr const char* kMagicV1 = "fielddb-meta-v1";

struct MetaData {
  uint32_t page_size = 0;
  uint32_t epoch = 0;
  int method = 0;
  uint64_t num_cells = 0;
  PageId store_first_page = 0;
  ValueInterval value_range;
  Rect2 domain;
  bool has_tree = false;
  RStarMeta tree;
  bool has_spatial = false;
  RStarMeta spatial;
  IndexBuildInfo info;
  std::vector<Subfield> subfields;
  uint64_t declared_subfields = 0;
};

void WriteRStarMeta(std::FILE* f, const char* key, const RStarMeta& m) {
  std::fprintf(f, "%s %" PRIu64 " %u %" PRIu64 " %" PRIu64 "\n", key,
               m.root, m.height, m.size, m.num_nodes);
}

Status WriteMeta(const std::string& path, const MetaData& meta) {
  return WriteCatalogFile(path, [&](std::FILE* f) {
  std::fprintf(f, "%s\n", kMagic);
  std::fprintf(f, "page_size %u\n", meta.page_size);
  std::fprintf(f, "epoch %u\n", meta.epoch);
  std::fprintf(f, "method %d\n", meta.method);
  std::fprintf(f, "num_cells %" PRIu64 "\n", meta.num_cells);
  std::fprintf(f, "store_first_page %" PRIu64 "\n", meta.store_first_page);
  std::fprintf(f, "value_range %.17g %.17g\n", meta.value_range.min,
               meta.value_range.max);
  std::fprintf(f, "domain %.17g %.17g %.17g %.17g\n", meta.domain.lo.x,
               meta.domain.lo.y, meta.domain.hi.x, meta.domain.hi.y);
  std::fprintf(f, "build_entries %" PRIu64 "\n",
               meta.info.num_index_entries);
  if (meta.has_tree) WriteRStarMeta(f, "tree", meta.tree);
  if (meta.has_spatial) WriteRStarMeta(f, "spatial", meta.spatial);
  std::fprintf(f, "subfields %zu\n", meta.subfields.size());
  for (const Subfield& sf : meta.subfields) {
    std::fprintf(f, "sf %" PRIu64 " %" PRIu64 " %.17g %.17g %.17g\n",
                 sf.start, sf.end, sf.interval.min, sf.interval.max,
                 sf.sum_interval_sizes);
  }
    return true;
  });
}

/// Numeric-range validation after parsing. The parser only proves the
/// catalog is well-formed text; this proves the values can be acted on
/// without feeding garbage (zero page sizes, NaN ranges, inverted
/// subfields) into the storage layer. kCorruption names the bad key.
Status ValidateMeta(const MetaData& meta, const std::string& path) {
  const auto bad = [&](const char* key) {
    return Status::Corruption("catalog " + path + ": invalid value for '" +
                              key + "'");
  };
  if (meta.page_size == 0 || meta.page_size > (1u << 26)) {
    return bad("page_size");
  }
  if (meta.method < 0 ||
      meta.method > static_cast<int>(IndexMethod::kRowIp)) {
    return bad("method");
  }
  if (!std::isfinite(meta.value_range.min) ||
      !std::isfinite(meta.value_range.max) ||
      meta.value_range.min > meta.value_range.max) {
    return bad("value_range");
  }
  if (!std::isfinite(meta.domain.lo.x) || !std::isfinite(meta.domain.lo.y) ||
      !std::isfinite(meta.domain.hi.x) || !std::isfinite(meta.domain.hi.y)) {
    return bad("domain");
  }
  if (meta.declared_subfields != meta.subfields.size()) {
    return bad("subfields");
  }
  // Only I-Hilbert and the Interval Quadtree partition the store, and
  // their tables must tile it: updates locate a cell's subfield by that
  // invariant.
  const bool partitioned =
      meta.method == static_cast<int>(IndexMethod::kIHilbert) ||
      meta.method == static_cast<int>(IndexMethod::kIntervalQuadtree);
  if (partitioned ? !TilesStore(meta.subfields, meta.num_cells)
                  : !meta.subfields.empty()) {
    return bad("sf");
  }
  for (const Subfield& sf : meta.subfields) {
    if (!std::isfinite(sf.interval.min) || !std::isfinite(sf.interval.max) ||
        sf.interval.min > sf.interval.max ||
        !std::isfinite(sf.sum_interval_sizes)) {
      return bad("sf");
    }
  }
  return Status::OK();
}

StatusOr<MetaData> ReadMeta(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::IOError("cannot read " + path);
  MetaData meta;
  char magic[64] = {};
  if (std::fscanf(f, "%63s", magic) != 1) {
    std::fclose(f);
    return Status::Corruption("bad magic in " + path);
  }
  if (std::string(magic) == kMagicV1) {
    std::fclose(f);
    return Status::Corruption(
        "unsupported v1 catalog (no page checksums) in " + path +
        "; re-save with this version");
  }
  if (std::string(magic) != kMagic) {
    std::fclose(f);
    return Status::Corruption("bad magic in " + path);
  }
  char key[64];
  bool ok = true;
  while (ok && std::fscanf(f, "%63s", key) == 1) {
    const std::string k = key;
    if (k == "page_size") {
      ok = std::fscanf(f, "%u", &meta.page_size) == 1;
    } else if (k == "epoch") {
      ok = std::fscanf(f, "%u", &meta.epoch) == 1;
    } else if (k == "method") {
      ok = std::fscanf(f, "%d", &meta.method) == 1;
    } else if (k == "num_cells") {
      ok = std::fscanf(f, "%" SCNu64, &meta.num_cells) == 1;
    } else if (k == "store_first_page") {
      ok = std::fscanf(f, "%" SCNu64, &meta.store_first_page) == 1;
    } else if (k == "value_range") {
      ok = std::fscanf(f, "%lg %lg", &meta.value_range.min,
                       &meta.value_range.max) == 2;
    } else if (k == "domain") {
      ok = std::fscanf(f, "%lg %lg %lg %lg", &meta.domain.lo.x,
                       &meta.domain.lo.y, &meta.domain.hi.x,
                       &meta.domain.hi.y) == 4;
    } else if (k == "build_entries") {
      ok = std::fscanf(f, "%" SCNu64, &meta.info.num_index_entries) == 1;
    } else if (k == "tree" || k == "spatial") {
      RStarMeta m;
      ok = std::fscanf(f, "%" SCNu64 " %u %" SCNu64 " %" SCNu64, &m.root,
                       &m.height, &m.size, &m.num_nodes) == 4;
      if (k == "tree") {
        meta.tree = m;
        meta.has_tree = true;
      } else {
        meta.spatial = m;
        meta.has_spatial = true;
      }
    } else if (k == "subfields") {
      ok = std::fscanf(f, "%" SCNu64, &meta.declared_subfields) == 1;
      // Bound the reserve: a corrupt count must not become an
      // allocation bomb. The mismatch is caught by ValidateMeta.
      if (ok && meta.declared_subfields <= (uint64_t{1} << 24)) {
        meta.subfields.reserve(meta.declared_subfields);
      }
    } else if (k == "sf") {
      Subfield sf;
      ok = std::fscanf(f, "%" SCNu64 " %" SCNu64 " %lg %lg %lg", &sf.start,
                       &sf.end, &sf.interval.min, &sf.interval.max,
                       &sf.sum_interval_sizes) == 5;
      meta.subfields.push_back(sf);
    } else {
      ok = false;
    }
  }
  std::fclose(f);
  if (!ok) return Status::Corruption("malformed catalog " + path);
  FIELDDB_RETURN_IF_ERROR(ValidateMeta(meta, path));
  return meta;
}

}  // namespace

StatusOr<uint32_t> FieldDatabase::PeekEpoch(const std::string& prefix) {
  StatusOr<MetaData> meta = ReadMeta(prefix + ".meta");
  if (!meta.ok()) return meta.status();
  return meta->epoch;
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
  // (field-type-agnostic); only the catalog body is ours.
  return engine_.SaveSnapshot(
      prefix, crash_point,
      [&](const std::string& meta_tmp_path, uint32_t new_epoch) -> Status {
        MetaData meta;
        meta.page_size = engine_.file()->page_size();
        meta.epoch = new_epoch;
        meta.method = static_cast<int>(index_->method());
        meta.num_cells = index_->cell_store().size();
        meta.store_first_page = index_->cell_store().first_page();
        meta.value_range = value_range_;
        meta.domain = domain_;
        meta.info = index_->build_info();
        switch (index_->method()) {
          case IndexMethod::kLinearScan:
            break;
          case IndexMethod::kIAll:
            meta.has_tree = true;
            meta.tree =
                static_cast<const IAllIndex*>(index_.get())->tree().meta();
            break;
          case IndexMethod::kIHilbert: {
            const auto* idx = static_cast<const IHilbertIndex*>(index_.get());
            meta.has_tree = true;
            meta.tree = idx->tree().meta();
            meta.subfields = idx->subfields();
            break;
          }
          case IndexMethod::kIntervalQuadtree: {
            const auto* idx =
                static_cast<const IntervalQuadtreeIndex*>(index_.get());
            meta.has_tree = true;
            meta.tree = idx->tree().meta();
            meta.subfields = idx->subfields();
            break;
          }
          case IndexMethod::kRowIp:
            return Status::Unimplemented(
                "Row-IP is a comparison baseline without persistence "
                "support");
        }
        if (spatial_.has_value()) {
          meta.has_spatial = true;
          meta.spatial = spatial_->meta();
        }
        return WriteMeta(meta_tmp_path, meta);
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
  StatusOr<MetaData> meta = ReadCatalog(prefix, &ReadMeta);
  if (!meta.ok()) return meta.status();

  auto db = std::unique_ptr<FieldDatabase>(new FieldDatabase());
  FIELDDB_RETURN_IF_ERROR(
      db->engine_.InitForOpen(prefix, meta->page_size, meta->epoch,
                              options.pool_pages, options.readahead_pages));

  // Page-range validation against the actual file: a truncated or
  // mismatched page file must not turn into out-of-range reads later.
  const FieldEngine& engine = db->engine_;
  if (meta->num_cells > 0) {
    FIELDDB_RETURN_IF_ERROR(engine.CheckCatalogPage(
        prefix, "store_first_page", meta->store_first_page));
  }
  if (meta->has_tree) {
    FIELDDB_RETURN_IF_ERROR(
        engine.CheckCatalogPage(prefix, "tree", meta->tree.root));
  }
  if (meta->has_spatial) {
    FIELDDB_RETURN_IF_ERROR(
        engine.CheckCatalogPage(prefix, "spatial", meta->spatial.root));
  }

  BufferPool* const pool = db->engine_.pool();
  db->value_range_ = meta->value_range;
  db->domain_ = meta->domain;

  StatusOr<CellStore> store =
      CellStore::Attach(pool, meta->store_first_page, meta->num_cells);
  if (!store.ok()) return store.status();

  IndexBuildInfo info;
  info.num_cells = meta->num_cells;
  info.num_index_entries = meta->info.num_index_entries;
  info.num_subfields = meta->subfields.size();
  info.store_pages = store->num_pages();
  info.tree_height = meta->has_tree ? meta->tree.height : 0;
  info.tree_nodes = meta->has_tree ? meta->tree.num_nodes : 0;

  const IndexMethod method = static_cast<IndexMethod>(meta->method);
  switch (method) {
    case IndexMethod::kLinearScan:
      db->index_ =
          LinearScanIndex::Attach(std::move(store).value(), info);
      break;
    case IndexMethod::kIAll: {
      if (!meta->has_tree) return Status::Corruption("missing tree meta");
      db->index_ = IAllIndex::Attach(
          std::move(store).value(),
          RStarTree<1>::Attach(pool, meta->tree), info);
      break;
    }
    case IndexMethod::kIHilbert: {
      if (!meta->has_tree) return Status::Corruption("missing tree meta");
      db->index_ = IHilbertIndex::Attach(
          std::move(store).value(),
          RStarTree<1>::Attach(pool, meta->tree),
          std::move(meta->subfields), info);
      break;
    }
    case IndexMethod::kIntervalQuadtree: {
      if (!meta->has_tree) return Status::Corruption("missing tree meta");
      db->index_ = IntervalQuadtreeIndex::Attach(
          std::move(store).value(),
          RStarTree<1>::Attach(pool, meta->tree),
          std::move(meta->subfields), info);
      break;
    }
    default:
      return Status::Corruption("unknown index method in catalog");
  }
  if (meta->has_spatial) {
    db->spatial_.emplace(RStarTree<2>::Attach(pool, meta->spatial));
  }
  // Planning is a pure function of the attached index state, so a
  // reopened snapshot plans exactly like the database that saved it.
  db->InitPlanner(PlannerMode::kAuto);

  // Recovery: replay the write-ahead log over the snapshot (logical
  // redo through the same UpdateCellValues path the original mutations
  // took, so the zone map, subfield intervals and interval-tree entries
  // are all maintained, not just pages), then either keep logging or
  // fold into a fresh checkpoint. The scan/replay/verify pipeline,
  // stale-epoch filtering, metrics and events are the engine's.
  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishOpen(
      prefix, options.wal_mode,
      [&](const WalFrame& frame) -> Status {
        FIELDDB_RETURN_IF_ERROR(
            db->index_->UpdateCellValues(frame.cell_id, frame.values));
        for (const double w : frame.values) db->value_range_.Extend(w);
        return Status::OK();
      },
      [&]() { return db->SaveImpl(prefix, SaveCrashPoint::kNone); },
      options.event_log_path, options.slow_query_threshold_ms,
      options.recovery_report));
  return db;
}

}  // namespace fielddb
