#include "volume/volume_index.h"

#include <algorithm>

#include "core/ext_sort.h"
#include "curve/hilbert.h"
#include "index/subfield_maintenance.h"
#include "volume/tet_band.h"

namespace fielddb {

namespace {

constexpr CatalogSchema kVolumeCatalog = {
    .magic = "fielddb-volume-meta-v1",
    .retired_magic = nullptr,
    .keys = CatalogBits({CatalogKey::kPageSize, CatalogKey::kEpoch,
                         CatalogKey::kMethod, CatalogKey::kNumCells,
                         CatalogKey::kStoreFirstPage, CatalogKey::kVoxelVolume,
                         CatalogKey::kValueRange, CatalogKey::kTree,
                         CatalogKey::kSubfields, CatalogKey::kSf}),
    .num_methods = static_cast<uint32_t>(VolumeIndexMethod::kIHilbert) + 1,
    .tree_methods = CatalogBits({VolumeIndexMethod::kIHilbert}),
    .tiled_methods = CatalogBits({VolumeIndexMethod::kIHilbert}),
    .record_size = sizeof(VoxelRecord),
};

}  // namespace

StatusOr<std::unique_ptr<VolumeFieldDatabase>> VolumeFieldDatabase::Build(
    const VolumeGridField& field, const Options& options) {
  auto db = std::unique_ptr<VolumeFieldDatabase>(new VolumeFieldDatabase());
  db->method_ = options.method;
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForBuild(options));
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
  sorter.Reserve(n);
  for (VoxelId id = 0; id < n; ++id) {
    const std::array<uint32_t, 3> c = field.VoxelCoords(id);
    FIELDDB_RETURN_IF_ERROR(
        sorter.Add(HilbertEncodeND(order, {c[0], c[1], c[2]}), id));
  }
  BasicCellStore<VoxelRecord>::Appender appender(pool, n);
  FIELDDB_RETURN_IF_ERROR(
      sorter.Merge([&](uint64_t, const VoxelId& id) -> Status {
        return appender.Append(field.GetCell(id));
      }));
  StatusOr<BasicCellStore<VoxelRecord>> store = appender.Finish();
  if (!store.ok()) return store.status();
  db->store_.emplace(std::move(store).value());
  db->RecordBuildSort(sorter);

  if (options.method == VolumeIndexMethod::kIHilbert) {
    db->subfields_ = PartitionStore(*db->store_, db->value_range_,
                                    options.cost);
    StatusOr<RStarTree<1>> tree = RStarTree<1>::BulkLoad(
        pool, SubfieldEntries(db->subfields_, RunEntry{}));
    if (!tree.ok()) return tree.status();
    db->tree_ = std::make_unique<RStarTree<1>>(std::move(tree).value());
  }

  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishBuild(options));
  return db;
}

Status VolumeFieldDatabase::SaveImpl(const std::string& prefix,
                                     SnapshotCrashPoint crash_point) {
  return engine_.SaveSnapshot(
      prefix, crash_point, kVolumeCatalog, [&](Catalog* catalog) {
        catalog->method = static_cast<uint32_t>(method_);
        catalog->num_cells = store_->size();
        catalog->store_first_page = store_->first_page();
        catalog->voxel_volume = voxel_volume_;
        catalog->value_range = value_range_;
        if (tree_ != nullptr) catalog->tree = tree_->meta();
        catalog->subfields = subfields_;
      });
}

StatusOr<std::unique_ptr<VolumeFieldDatabase>> VolumeFieldDatabase::Open(
    const std::string& prefix, const OpenOptions& options) {
  auto db = std::unique_ptr<VolumeFieldDatabase>(new VolumeFieldDatabase());
  StatusOr<Catalog> catalog =
      db->engine_.InitForOpen(prefix, kVolumeCatalog, options);
  if (!catalog.ok()) return catalog.status();
  db->method_ = static_cast<VolumeIndexMethod>(catalog->method);
  db->value_range_ = catalog->value_range;
  db->voxel_volume_ = catalog->voxel_volume;
  BufferPool* const pool = db->engine_.pool();

  StatusOr<BasicCellStore<VoxelRecord>> store =
      BasicCellStore<VoxelRecord>::Attach(pool, catalog->store_first_page,
                                          catalog->num_cells);
  if (!store.ok()) return store.status();
  db->store_.emplace(std::move(store).value());
  db->subfields_ = std::move(catalog->subfields);
  if (db->method_ == VolumeIndexMethod::kIHilbert) {
    StatusOr<RStarTree<1>> tree = RStarTree<1>::Attach(pool, *catalog->tree);
    if (!tree.ok()) return tree.status();
    db->tree_ = std::make_unique<RStarTree<1>>(std::move(tree).value());
  }

  // Recovery: logical redo through the same apply path updates took, so
  // subfield hulls, tree entries and the zone map are maintained.
  VolumeFieldDatabase* const raw = db.get();
  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishOpen(
      prefix, options,
      [raw](const WalFrame& frame) -> Status {
        return raw->ApplyVoxelValues(static_cast<VoxelId>(frame.cell_id),
                                     frame.values);
      },
      [raw, &prefix]() {
        return raw->SaveImpl(prefix, SnapshotCrashPoint::kNone);
      }));
  return db;
}

Status VolumeFieldDatabase::UpdateVoxelValues(VoxelId id,
                                              const std::vector<double>& w) {
  // Validated first, so only appliable updates reach the log; replay
  // never meets an invalid frame.
  FIELDDB_RETURN_IF_ERROR(store_->CheckUpdate(id, SetSamples(w)));
  FIELDDB_RETURN_IF_ERROR(engine_.LogUpdate(id, w));
  return ApplyVoxelValues(id, w);
}

Status VolumeFieldDatabase::ApplyVoxelValues(VoxelId id,
                                             const std::vector<double>& w) {
  BasicCellStore<VoxelRecord>::Change change;
  FIELDDB_RETURN_IF_ERROR(store_->Update(id, SetSamples(w), &change));
  value_range_.Extend(change.new_key);
  if (tree_ == nullptr) return Status::OK();
  return RefreshSubfieldAfterUpdate(*store_, change, tree_.get(),
                                    &subfields_, RunEntry{});
}

PhysicalPlan VolumeFieldDatabase::PlanBandQuery(
    const ValueInterval& band) const {
  return PlanStoreQuery(*store_, band, planner_mode(), tree_.get());
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
  const auto describe = [&](EventLog::Event* event) {
    event->Add("field_type", "volume")
        .Add("query_min", band.min)
        .Add("query_max", band.max);
  };
  // The zone filter hands over only voxels whose interval meets the
  // band.
  const auto visit = [&](uint64_t, const VoxelRecord& voxel) {
    const double fraction = VoxelBandFraction(voxel.w, band);
    if (fraction > 0.0) {
      out->volume += fraction * voxel_volume_;
      out->stats.AddAnswerCell(band.Contains(voxel.Interval()));
    }
    return true;
  };
  FIELDDB_RETURN_IF_ERROR(FieldEngine::MeasureQuery(
      ctx, &out->stats, [&](QueryContext* ctx) {
        return engine_.BandScan(
            *store_, band,
            {.plan = out->plan.kind,
             .ctx = ctx,
             .stats = &out->stats,
             .describe = describe},
            [&](std::vector<PosRange>* runs) {
              return SearchRunEntries(*tree_, subfields_,
                                      BoxFromInterval(band), runs);
            },
            visit);
      }));
  engine_.MaybeLogSlowQuery(out->stats, [&](EventLog::Event* event) {
    describe(event);
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
