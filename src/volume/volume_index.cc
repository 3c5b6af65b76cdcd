#include "volume/volume_index.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "core/ext_sort.h"
#include "curve/hilbert.h"
#include "index/subfield_maintenance.h"
#include "volume/tet_band.h"

namespace fielddb {

namespace {

constexpr const char* kVolumeMagic = "fielddb-volume-meta-v1";

struct VolumeMetaData {
  uint32_t page_size = 0;
  uint32_t epoch = 0;
  int method = 0;
  uint64_t num_cells = 0;
  PageId store_first_page = 0;
  double voxel_volume = 0.0;
  ValueInterval value_range;
  bool has_tree = false;
  RStarMeta tree;
  std::vector<Subfield> subfields;
  uint64_t declared_subfields = 0;
};

Status WriteVolumeMeta(const std::string& path, const VolumeMetaData& meta) {
  return WriteCatalogFile(path, [&](std::FILE* f) {
    std::fprintf(f, "%s\n", kVolumeMagic);
    std::fprintf(f, "page_size %u\n", meta.page_size);
    std::fprintf(f, "epoch %u\n", meta.epoch);
    std::fprintf(f, "method %d\n", meta.method);
    std::fprintf(f, "num_cells %" PRIu64 "\n", meta.num_cells);
    std::fprintf(f, "store_first_page %" PRIu64 "\n",
                 meta.store_first_page);
    std::fprintf(f, "voxel_volume %.17g\n", meta.voxel_volume);
    std::fprintf(f, "value_range %.17g %.17g\n", meta.value_range.min,
                 meta.value_range.max);
    if (meta.has_tree) {
      std::fprintf(f, "tree %" PRIu64 " %u %" PRIu64 " %" PRIu64 "\n",
                   meta.tree.root, meta.tree.height, meta.tree.size,
                   meta.tree.num_nodes);
    }
    std::fprintf(f, "subfields %zu\n", meta.subfields.size());
    for (const Subfield& sf : meta.subfields) {
      std::fprintf(f, "sf %" PRIu64 " %" PRIu64 " %.17g %.17g %.17g\n",
                   sf.start, sf.end, sf.interval.min, sf.interval.max,
                   sf.sum_interval_sizes);
    }
    return true;
  });
}

Status ValidateVolumeMeta(const VolumeMetaData& meta,
                          const std::string& path) {
  const auto bad = [&](const char* key) {
    return Status::Corruption("catalog " + path + ": invalid value for '" +
                              key + "'");
  };
  if (meta.page_size == 0 || meta.page_size > (1u << 26)) {
    return bad("page_size");
  }
  if (meta.method < 0 ||
      meta.method > static_cast<int>(VolumeIndexMethod::kIHilbert)) {
    return bad("method");
  }
  if (!std::isfinite(meta.voxel_volume) || meta.voxel_volume < 0.0) {
    return bad("voxel_volume");
  }
  if (!std::isfinite(meta.value_range.min) ||
      !std::isfinite(meta.value_range.max) ||
      meta.value_range.min > meta.value_range.max) {
    return bad("value_range");
  }
  if (meta.declared_subfields != meta.subfields.size()) {
    return bad("subfields");
  }
  // Only I-Hilbert partitions the store, and its table must tile it.
  if (meta.method == static_cast<int>(VolumeIndexMethod::kIHilbert)
          ? !TilesStore(meta.subfields, meta.num_cells)
          : !meta.subfields.empty()) {
    return bad("sf");
  }
  for (const Subfield& sf : meta.subfields) {
    if (!std::isfinite(sf.interval.min) ||
        !std::isfinite(sf.interval.max) ||
        sf.interval.min > sf.interval.max ||
        !std::isfinite(sf.sum_interval_sizes)) {
      return bad("sf");
    }
  }
  return Status::OK();
}

StatusOr<VolumeMetaData> ReadVolumeMeta(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::IOError("cannot read " + path);
  VolumeMetaData meta;
  char magic[64] = {};
  if (std::fscanf(f, "%63s", magic) != 1 ||
      std::string(magic) != kVolumeMagic) {
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
    } else if (k == "voxel_volume") {
      ok = std::fscanf(f, "%lg", &meta.voxel_volume) == 1;
    } else if (k == "value_range") {
      ok = std::fscanf(f, "%lg %lg", &meta.value_range.min,
                       &meta.value_range.max) == 2;
    } else if (k == "tree") {
      ok = std::fscanf(f, "%" SCNu64 " %u %" SCNu64 " %" SCNu64,
                       &meta.tree.root, &meta.tree.height, &meta.tree.size,
                       &meta.tree.num_nodes) == 4;
      meta.has_tree = true;
    } else if (k == "subfields") {
      ok = std::fscanf(f, "%" SCNu64, &meta.declared_subfields) == 1;
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
  FIELDDB_RETURN_IF_ERROR(ValidateVolumeMeta(meta, path));
  return meta;
}

}  // namespace

const char* VolumeIndexMethodName(VolumeIndexMethod method) {
  switch (method) {
    case VolumeIndexMethod::kLinearScan:
      return "3D-LinearScan";
    case VolumeIndexMethod::kIHilbert:
      return "3D-I-Hilbert";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<VolumeFieldDatabase>> VolumeFieldDatabase::Build(
    const VolumeGridField& field, const Options& options) {
  auto db = std::unique_ptr<VolumeFieldDatabase>(new VolumeFieldDatabase());
  db->method_ = options.method;
  db->planner_mode_.store(options.planner_mode, std::memory_order_relaxed);
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForBuild(
      {.page_size = options.page_size,
       .pool_pages = options.pool_pages,
       .page_file_factory = options.page_file_factory}));
  BufferPool* const pool = db->engine_.pool();
  db->value_range_ = field.ValueRange();
  db->voxel_volume_ = field.VoxelVolume();

  // 3-D Hilbert order over voxel coordinates. One sorter serves both
  // the in-RAM (budget 0: a single sort) and the bounded-memory
  // (spilled runs + k-way merge) builds; its (key, insertion-seq)
  // tie-break equals the (key, id) order, so both paths emit voxels
  // identically.
  const uint32_t max_dim =
      std::max({field.nx(), field.ny(), field.nz(), 2u});
  int order = 1;
  while ((uint32_t{1} << order) < max_dim) ++order;

  const VoxelId n = field.NumCells();
  ExternalKeyRecordSorter<VoxelId> sorter(
      options.build_memory_budget_bytes);
  for (VoxelId id = 0; id < n; ++id) {
    const std::array<uint32_t, 3> c = field.VoxelCoords(id);
    FIELDDB_RETURN_IF_ERROR(
        sorter.Add(HilbertEncodeND(order, {c[0], c[1], c[2]}), id));
  }

  db->pos_of_.assign(n, 0);
  db->zones_.Reserve(n);
  RecordStoreAppender<VoxelRecord> appender(pool);
  SubfieldStreamBuilder costing(db->value_range_, options.cost);
  FIELDDB_RETURN_IF_ERROR(
      sorter.Merge([&](uint64_t, const VoxelId& id) -> Status {
        const VoxelRecord record = field.GetCell(id);
        db->pos_of_[id] = appender.size();
        FIELDDB_RETURN_IF_ERROR(appender.Append(record));
        const ValueInterval iv = record.Interval();
        db->zones_.Append(iv);
        costing.Add(iv);
        return Status::OK();
      }));
  StatusOr<RecordStore<VoxelRecord>> store = appender.Finish();
  if (!store.ok()) return store.status();
  db->store_ =
      std::make_unique<RecordStore<VoxelRecord>>(std::move(store).value());
  db->ext_spill_runs_ = sorter.spill_runs();
  db->ext_peak_buffered_bytes_ = sorter.peak_buffered_bytes();

  if (options.method == VolumeIndexMethod::kIHilbert) {
    db->subfields_ = costing.Finish();
    std::vector<RTreeEntry<1>> entries(db->subfields_.size());
    for (size_t i = 0; i < db->subfields_.size(); ++i) {
      entries[i].box = BoxFromInterval(db->subfields_[i].interval);
      entries[i].a = db->subfields_[i].start;
      entries[i].b = db->subfields_[i].end;
    }
    StatusOr<RStarTree<1>> tree =
        RStarTree<1>::BulkLoad(pool, entries, options.rstar);
    if (!tree.ok()) return tree.status();
    db->tree_ = std::make_unique<RStarTree<1>>(std::move(tree).value());
  }

  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishBuild(
      options.wal_mode, options.wal_path, options.event_log_path,
      options.slow_query_threshold_ms));
  return db;
}

Status VolumeFieldDatabase::SaveImpl(const std::string& prefix,
                                     SnapshotCrashPoint crash_point) {
  return engine_.SaveSnapshot(
      prefix, crash_point,
      [&](const std::string& meta_tmp_path, uint32_t new_epoch) -> Status {
        VolumeMetaData meta;
        meta.page_size = engine_.file()->page_size();
        meta.epoch = new_epoch;
        meta.method = static_cast<int>(method_);
        meta.num_cells = store_->size();
        meta.store_first_page = store_->first_page();
        meta.voxel_volume = voxel_volume_;
        meta.value_range = value_range_;
        if (tree_ != nullptr) {
          meta.has_tree = true;
          meta.tree = tree_->meta();
        }
        meta.subfields = subfields_;
        return WriteVolumeMeta(meta_tmp_path, meta);
      });
}

StatusOr<std::unique_ptr<VolumeFieldDatabase>> VolumeFieldDatabase::Open(
    const std::string& prefix) {
  return Open(prefix, OpenOptions{});
}

StatusOr<std::unique_ptr<VolumeFieldDatabase>> VolumeFieldDatabase::Open(
    const std::string& prefix, const OpenOptions& options) {
  StatusOr<VolumeMetaData> meta = ReadCatalog(prefix, &ReadVolumeMeta);
  if (!meta.ok()) return meta.status();

  auto db = std::unique_ptr<VolumeFieldDatabase>(new VolumeFieldDatabase());
  db->method_ = static_cast<VolumeIndexMethod>(meta->method);
  db->planner_mode_.store(options.planner_mode, std::memory_order_relaxed);
  db->value_range_ = meta->value_range;
  db->voxel_volume_ = meta->voxel_volume;
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForOpen(
      prefix, meta->page_size, meta->epoch, options.pool_pages));
  BufferPool* const pool = db->engine_.pool();

  const FieldEngine& engine = db->engine_;
  if (meta->num_cells > 0) {
    FIELDDB_RETURN_IF_ERROR(engine.CheckCatalogPage(
        prefix, "store_first_page", meta->store_first_page));
  }
  if (meta->has_tree) {
    FIELDDB_RETURN_IF_ERROR(
        engine.CheckCatalogPage(prefix, "tree", meta->tree.root));
  }
  if (db->method_ == VolumeIndexMethod::kIHilbert && !meta->has_tree) {
    return Status::Corruption("catalog " + prefix +
                              ".meta: missing tree meta");
  }

  StatusOr<RecordStore<VoxelRecord>> store = RecordStore<VoxelRecord>::Attach(
      pool, meta->store_first_page, meta->num_cells);
  if (!store.ok()) return store.status();
  db->store_ =
      std::make_unique<RecordStore<VoxelRecord>>(std::move(store).value());
  db->subfields_ = std::move(meta->subfields);
  if (meta->has_tree) {
    db->tree_ = std::make_unique<RStarTree<1>>(
        RStarTree<1>::Attach(pool, meta->tree));
  }

  // One store pass rebuilds both in-RAM sidecars: the voxel-id ->
  // position map and the zone map the planner probes.
  db->zones_.Reserve(meta->num_cells);
  FIELDDB_RETURN_IF_ERROR(MapRecordIds(
      *db->store_, &db->pos_of_, [&](uint64_t, const VoxelRecord& rec) {
        db->zones_.Append(rec.Interval());
      }));

  // Recovery: logical redo through the same apply path updates took, so
  // subfield hulls, tree entries and the zone map are maintained.
  VolumeFieldDatabase* const raw = db.get();
  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishOpen(
      prefix, options.wal_mode,
      [raw](const WalFrame& frame) -> Status {
        return raw->ApplyVoxelValues(static_cast<VoxelId>(frame.cell_id),
                                     frame.values);
      },
      [raw, &prefix]() {
        return raw->SaveImpl(prefix, SnapshotCrashPoint::kNone);
      },
      options.event_log_path, options.slow_query_threshold_ms,
      options.recovery_report));
  return db;
}

Status VolumeFieldDatabase::UpdateVoxelValues(VoxelId id,
                                              const std::vector<double>& w) {
  if (id >= pos_of_.size()) return Status::OutOfRange("no such voxel");
  if (w.size() != 8) {
    return Status::InvalidArgument("expected 8 corner values, got " +
                                   std::to_string(w.size()));
  }
  // Validated above, so only appliable updates reach the log; replay
  // never meets an invalid frame.
  FIELDDB_RETURN_IF_ERROR(engine_.LogUpdate(id, w));
  return ApplyVoxelValues(id, w);
}

Status VolumeFieldDatabase::ApplyVoxelValues(VoxelId id,
                                             const std::vector<double>& w) {
  if (id >= pos_of_.size()) return Status::OutOfRange("no such voxel");
  if (w.size() != 8) {
    return Status::InvalidArgument("expected 8 corner values, got " +
                                   std::to_string(w.size()));
  }
  const uint64_t pos = pos_of_[id];
  VoxelRecord voxel;
  FIELDDB_RETURN_IF_ERROR(store_->Get(pos, &voxel));
  for (int i = 0; i < 8; ++i) voxel.w[i] = w[i];
  FIELDDB_RETURN_IF_ERROR(store_->Put(pos, voxel));
  const ValueInterval iv = voxel.Interval();
  zones_.Set(pos, iv);
  value_range_.Extend(iv);
  if (tree_ == nullptr) return Status::OK();
  // Same maintenance rule as the 2-D scalar indexes.
  return RefreshSubfieldAfterUpdate(*store_, tree_.get(), &subfields_, pos);
}

PhysicalPlan VolumeFieldDatabase::PlanBandQuery(
    const ValueInterval& band) const {
  const PlanCostModel cost;
  const StoreShape shape = ShapeOf(*store_);
  return ChoosePlan(cost, shape, planner_mode(), tree_ != nullptr, [&] {
    std::vector<PosRange> runs;
    zones_.FilterRanges(band, &runs);
    return ExactProbe(cost, shape, runs,
                      PagePattern::Random(tree_->height()));
  });
}

Status VolumeFieldDatabase::BandQuery(const ValueInterval& band,
                                      VolumeQueryResult* out,
                                      QueryContext* ctx) const {
  if (band.IsEmpty()) {
    return Status::InvalidArgument("empty query band");
  }
  out->volume = 0.0;
  out->stats = QueryStats{};
  out->plan = PlanBandQuery(band);
  FIELDDB_RETURN_IF_ERROR(engine_.RunStoreQuery(
      *store_, out->plan, ctx,
      [&](std::vector<PosRange>* runs) {
        return tree_->Search(BoxFromInterval(band),
                             [&](const RTreeEntry<1>& e) {
                               runs->push_back(PosRange{e.a, e.b});
                               return true;
                             });
      },
      [&](uint64_t, const VoxelRecord& voxel) {
        if (!voxel.Interval().Intersects(band)) return true;
        const double fraction = VoxelBandFraction(voxel.w, band);
        if (fraction > 0.0) {
          out->volume += fraction * voxel_volume_;
          ++out->stats.answer_cells;
        }
        return true;
      },
      &out->stats));
  engine_.MaybeLogSlowQuery(out->stats, [&](EventLog::Event* event) {
    event->Add("field_type", "volume")
        .Add("query_min", band.min)
        .Add("query_max", band.max);
    return out->plan;
  });
  return Status::OK();
}

StatusOr<WorkloadStats> VolumeFieldDatabase::RunWorkload(
    const std::vector<ValueInterval>& queries) const {
  return engine_.RunWorkload(
      queries.size(), /*cold_cache=*/true, [&](size_t i, QueryStats* stats) {
        VolumeQueryResult result;
        FIELDDB_RETURN_IF_ERROR(BandQuery(queries[i], &result));
        *stats = result.stats;
        return Status::OK();
      });
}

}  // namespace fielddb
