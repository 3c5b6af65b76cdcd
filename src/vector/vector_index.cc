#include "vector/vector_index.h"

#include <algorithm>

#include "core/ext_sort.h"
#include "curve/hilbert.h"
#include "index/subfield_maintenance.h"

namespace fielddb {

namespace {

constexpr CatalogSchema kVectorCatalog = {
    .magic = "fielddb-vector-meta-v1",
    .retired_magic = nullptr,
    .keys = CatalogBits({CatalogKey::kPageSize, CatalogKey::kEpoch,
                         CatalogKey::kMethod, CatalogKey::kNumCells,
                         CatalogKey::kStoreFirstPage, CatalogKey::kTree,
                         CatalogKey::kSubfields, CatalogKey::kSfv}),
    .num_methods = static_cast<uint32_t>(VectorIndexMethod::kIHilbert) + 1,
    .tree_methods = CatalogBits({VectorIndexMethod::kIHilbert}),
    .tiled_methods = CatalogBits({VectorIndexMethod::kIHilbert}),
    .record_size = sizeof(VectorCellRecord),
};

ValueInterval BoxUInterval(const Box<2>& b) {
  return ValueInterval{b.lo[0], b.hi[0]};
}
ValueInterval BoxVInterval(const Box<2>& b) {
  return ValueInterval{b.lo[1], b.hi[1]};
}

}  // namespace

VectorSubfieldCostModel::VectorSubfieldCostModel(
    const Box<2>& value_range, const VectorCostConfig& config)
    : config_(config) {
  range_u_ = value_range.IsEmpty()
                 ? 1.0
                 : value_range.hi[0] - value_range.lo[0] + 1.0;
  range_v_ = value_range.IsEmpty()
                 ? 1.0
                 : value_range.hi[1] - value_range.lo[1] + 1.0;
  if (range_u_ <= 0) range_u_ = 1.0;
  if (range_v_ <= 0) range_v_ = 1.0;
}

double VectorSubfieldCostModel::Cost(const Box<2>& box,
                                     double sum_box_sizes) const {
  // (Lu + q̄·Ru)(Lv + q̄·Rv) / SI — the scale-free form of
  // (Lu' + q̄)(Lv' + q̄) / SI' with normalized extents.
  const double q = config_.avg_query_fraction;
  const double pu = (box.hi[0] - box.lo[0] + 1.0) + q * range_u_;
  const double pv = (box.hi[1] - box.lo[1] + 1.0) + q * range_v_;
  return pu * pv / sum_box_sizes;
}

bool VectorSubfieldCostModel::ShouldAppend(const VectorSubfield& current,
                                           const Box<2>& cell_box) const {
  const double before = Cost(current.box, current.sum_box_sizes);
  Box<2> merged = current.box;
  merged.Extend(cell_box);
  const double after =
      Cost(merged, current.sum_box_sizes + BoxPaperSize(cell_box));
  return before > after;
}

VectorSubfieldStreamBuilder::VectorSubfieldStreamBuilder(
    const Box<2>& value_range, const VectorCostConfig& config)
    : model_(value_range, config) {}

void VectorSubfieldStreamBuilder::Add(const Box<2>& cell_box) {
  const double size = (cell_box.hi[0] - cell_box.lo[0] + 1.0) *
                      (cell_box.hi[1] - cell_box.lo[1] + 1.0);
  const uint64_t pos = num_cells_++;
  if (pos == 0) {
    current_.start = 0;
    current_.end = 1;
    current_.box = cell_box;
    current_.sum_box_sizes = size;
    return;
  }
  if (model_.ShouldAppend(current_, cell_box)) {
    current_.end = pos + 1;
    current_.box.Extend(cell_box);
    current_.sum_box_sizes += size;
  } else {
    subfields_.push_back(current_);
    current_.start = pos;
    current_.end = pos + 1;
    current_.box = cell_box;
    current_.sum_box_sizes = size;
  }
}

std::vector<VectorSubfield> VectorSubfieldStreamBuilder::Finish() {
  if (num_cells_ > 0) subfields_.push_back(current_);
  return std::move(subfields_);
}

std::vector<VectorSubfield> BuildVectorSubfields(
    const std::vector<Box<2>>& cell_boxes, const Box<2>& value_range,
    const VectorCostConfig& config) {
  VectorSubfieldStreamBuilder builder(value_range, config);
  for (const Box<2>& box : cell_boxes) builder.Add(box);
  return builder.Finish();
}

const char* VectorIndexMethodName(VectorIndexMethod method) {
  switch (method) {
    case VectorIndexMethod::kLinearScan:
      return "V-LinearScan";
    case VectorIndexMethod::kIHilbert:
      return "V-I-Hilbert";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<VectorFieldDatabase>> VectorFieldDatabase::Build(
    const VectorGridField& field, const Options& options) {
  auto db = std::unique_ptr<VectorFieldDatabase>(new VectorFieldDatabase());
  db->method_ = options.method;
  db->planner_mode_.store(options.planner_mode, std::memory_order_relaxed);
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForBuild(
      {.page_size = options.page_size,
       .pool_pages = options.pool_pages,
       .page_file_factory = options.page_file_factory}));
  BufferPool* const pool = db->engine_.pool();

  // Hilbert-order the cells (also for LinearScan — the scan is
  // order-insensitive and sharing the layout isolates the index effect).
  // One sorter serves both the in-RAM and the bounded-memory builds;
  // its (key, insertion-seq) tie-break equals the (key, id) order, so
  // both paths emit cells identically.
  const std::unique_ptr<SpaceFillingCurve> curve =
      MakeCurve(options.curve, options.curve_order);
  const CellId n = field.NumCells();
  const Rect2 domain = field.Domain();
  ExternalKeyRecordSorter<CellId> sorter(options.build_memory_budget_bytes);
  for (CellId id = 0; id < n; ++id) {
    const Point2 c = field.ComponentCell(0, id).Centroid();
    FIELDDB_RETURN_IF_ERROR(sorter.Add(
        curve->EncodeUnit((c.x - domain.lo.x) / domain.Width(),
                          (c.y - domain.lo.y) / domain.Height()),
        id));
  }

  db->pos_of_.assign(n, 0);
  db->zones_.Reserve(n);
  RecordStoreAppender<VectorCellRecord> appender(pool);
  VectorSubfieldStreamBuilder costing(field.ValueRangeBox(), options.cost);
  FIELDDB_RETURN_IF_ERROR(
      sorter.Merge([&](uint64_t, const CellId& id) -> Status {
        const VectorCellRecord record =
            VectorCellRecord::FromField(field, id);
        db->pos_of_[id] = appender.size();
        FIELDDB_RETURN_IF_ERROR(appender.Append(record));
        const Box<2> box = record.ValueBox();
        db->zones_.Append(BoxUInterval(box), BoxVInterval(box));
        costing.Add(box);
        return Status::OK();
      }));
  StatusOr<RecordStore<VectorCellRecord>> store = appender.Finish();
  if (!store.ok()) return store.status();
  db->store_ = std::make_unique<RecordStore<VectorCellRecord>>(
      std::move(store).value());
  db->ext_spill_runs_ = sorter.spill_runs();
  db->ext_peak_buffered_bytes_ = sorter.peak_buffered_bytes();

  if (options.method == VectorIndexMethod::kIHilbert) {
    db->subfields_ = costing.Finish();
    std::vector<RTreeEntry<2>> entries(db->subfields_.size());
    for (size_t i = 0; i < db->subfields_.size(); ++i) {
      entries[i].box = db->subfields_[i].box;
      entries[i].a = db->subfields_[i].start;
      entries[i].b = db->subfields_[i].end;
    }
    StatusOr<RStarTree<2>> tree =
        RStarTree<2>::BulkLoad(pool, entries, options.rstar);
    if (!tree.ok()) return tree.status();
    db->tree_ = std::make_unique<RStarTree<2>>(std::move(tree).value());
  }

  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishBuild(
      options.wal_mode, options.wal_path, options.event_log_path,
      options.slow_query_threshold_ms));
  return db;
}

Status VectorFieldDatabase::SaveImpl(const std::string& prefix,
                                     SnapshotCrashPoint crash_point) {
  return engine_.SaveSnapshot(
      prefix, crash_point, kVectorCatalog, [&](Catalog* catalog) {
        catalog->method = static_cast<uint32_t>(method_);
        catalog->num_cells = store_->size();
        catalog->store_first_page = store_->first_page();
        if (tree_ != nullptr) catalog->tree = tree_->meta();
        catalog->vector_subfields = subfields_;
      });
}

StatusOr<std::unique_ptr<VectorFieldDatabase>> VectorFieldDatabase::Open(
    const std::string& prefix) {
  return Open(prefix, OpenOptions{});
}

StatusOr<std::unique_ptr<VectorFieldDatabase>> VectorFieldDatabase::Open(
    const std::string& prefix, const OpenOptions& options) {
  auto db = std::unique_ptr<VectorFieldDatabase>(new VectorFieldDatabase());
  StatusOr<Catalog> catalog =
      db->engine_.InitForOpen(prefix, kVectorCatalog, options.pool_pages);
  if (!catalog.ok()) return catalog.status();
  db->method_ = static_cast<VectorIndexMethod>(catalog->method);
  db->planner_mode_.store(options.planner_mode, std::memory_order_relaxed);
  BufferPool* const pool = db->engine_.pool();

  StatusOr<RecordStore<VectorCellRecord>> store =
      RecordStore<VectorCellRecord>::Attach(pool, catalog->store_first_page,
                                            catalog->num_cells);
  if (!store.ok()) return store.status();
  db->store_ = std::make_unique<RecordStore<VectorCellRecord>>(
      std::move(store).value());
  db->subfields_ = std::move(catalog->vector_subfields);
  if (db->method_ == VectorIndexMethod::kIHilbert) {
    db->tree_ = std::make_unique<RStarTree<2>>(
        RStarTree<2>::Attach(pool, *catalog->tree));
  }

  // One store pass rebuilds both in-RAM sidecars: the cell-id ->
  // position map and the 2-D zone map the planner probes.
  db->zones_.Reserve(catalog->num_cells);
  FIELDDB_RETURN_IF_ERROR(MapRecordIds(
      *db->store_, &db->pos_of_, [&](uint64_t, const VectorCellRecord& rec) {
        const Box<2> box = rec.ValueBox();
        db->zones_.Append(BoxUInterval(box), BoxVInterval(box));
      }));

  // Recovery: a frame carries u followed by v; logical redo through the
  // same apply path updates took maintains subfield boxes, tree entries
  // and the zone map.
  VectorFieldDatabase* const raw = db.get();
  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishOpen(
      prefix, options.wal_mode,
      [raw](const WalFrame& frame) -> Status {
        if (frame.values.empty() || frame.values.size() % 2 != 0) {
          return Status::Corruption(
              "vector WAL frame must carry an even sample count");
        }
        const size_t nv = frame.values.size() / 2;
        const std::vector<double> u(frame.values.begin(),
                                    frame.values.begin() + nv);
        const std::vector<double> v(frame.values.begin() + nv,
                                    frame.values.end());
        return raw->ApplyCellValues(frame.cell_id, u, v);
      },
      [raw, &prefix]() {
        return raw->SaveImpl(prefix, SnapshotCrashPoint::kNone);
      },
      options.event_log_path, options.slow_query_threshold_ms,
      options.recovery_report));
  return db;
}

Status VectorFieldDatabase::UpdateCellValues(CellId id,
                                             const std::vector<double>& u,
                                             const std::vector<double>& v) {
  if (id >= pos_of_.size()) return Status::OutOfRange("no such cell");
  VectorCellRecord cell;
  FIELDDB_RETURN_IF_ERROR(store_->Get(pos_of_[id], &cell));
  if (u.size() != cell.num_vertices || v.size() != cell.num_vertices) {
    return Status::InvalidArgument(
        "expected " + std::to_string(cell.num_vertices) +
        " values per component, got " + std::to_string(u.size()) + "/" +
        std::to_string(v.size()));
  }
  // Validated above, so only appliable updates reach the log. The frame
  // carries u followed by v.
  if (engine_.wal() != nullptr) {
    std::vector<double> uv;
    uv.reserve(u.size() + v.size());
    uv.insert(uv.end(), u.begin(), u.end());
    uv.insert(uv.end(), v.begin(), v.end());
    FIELDDB_RETURN_IF_ERROR(engine_.LogUpdate(id, uv));
  }
  return ApplyCellValues(id, u, v);
}

Status VectorFieldDatabase::ApplyCellValues(CellId id,
                                            const std::vector<double>& u,
                                            const std::vector<double>& v) {
  if (id >= pos_of_.size()) return Status::OutOfRange("no such cell");
  const uint64_t pos = pos_of_[id];
  VectorCellRecord cell;
  FIELDDB_RETURN_IF_ERROR(store_->Get(pos, &cell));
  if (u.size() != cell.num_vertices || v.size() != cell.num_vertices) {
    return Status::InvalidArgument(
        "expected " + std::to_string(cell.num_vertices) +
        " values per component, got " + std::to_string(u.size()) + "/" +
        std::to_string(v.size()));
  }
  for (uint32_t i = 0; i < cell.num_vertices; ++i) {
    cell.u[i] = u[i];
    cell.v[i] = v[i];
  }
  FIELDDB_RETURN_IF_ERROR(store_->Put(pos, cell));
  const Box<2> new_box = cell.ValueBox();
  zones_.Set(pos, BoxUInterval(new_box), BoxVInterval(new_box));
  if (tree_ == nullptr) return Status::OK();

  // Refresh the containing subfield's value-box hull (the no-false-
  // negative invariant: every member cell's box stays covered).
  VectorSubfield& sf = subfields_[SubfieldContaining(subfields_, pos)];
  Box<2> hull = Box<2>::Empty();
  double sum_sizes = 0.0;
  FIELDDB_RETURN_IF_ERROR(store_->Scan(
      sf.start, sf.end, [&](uint64_t, const VectorCellRecord& member) {
        const Box<2> b = member.ValueBox();
        hull.Extend(b);
        sum_sizes += (b.hi[0] - b.lo[0] + 1.0) * (b.hi[1] - b.lo[1] + 1.0);
        return true;
      }));
  const bool hull_changed = hull.lo[0] != sf.box.lo[0] ||
                            hull.hi[0] != sf.box.hi[0] ||
                            hull.lo[1] != sf.box.lo[1] ||
                            hull.hi[1] != sf.box.hi[1];
  if (hull_changed) {
    FIELDDB_RETURN_IF_ERROR(tree_->Delete(sf.box, sf.start, sf.end));
    FIELDDB_RETURN_IF_ERROR(tree_->Insert(hull, sf.start, sf.end));
    sf.box = hull;
  }
  sf.sum_box_sizes = sum_sizes;
  return Status::OK();
}

PhysicalPlan VectorFieldDatabase::PlanBandQuery(
    const VectorBandQuery& query) const {
  const PlanCostModel cost;
  const StoreShape shape = ShapeOf(*store_);
  return ChoosePlan(cost, shape, planner_mode(), tree_ != nullptr, [&] {
    std::vector<PosRange> runs;
    zones_.FilterRanges(query.u, query.v, &runs);
    return ExactProbe(cost, shape, runs,
                      PagePattern::Random(tree_->height()));
  });
}

Status VectorFieldDatabase::BandQuery(const VectorBandQuery& query,
                                      VectorQueryResult* out,
                                      QueryContext* ctx) const {
  if (query.u.IsEmpty() || query.v.IsEmpty()) {
    return Status::InvalidArgument("empty query band");
  }
  out->region.pieces.clear();
  out->stats = QueryStats{};
  out->plan = PlanBandQuery(query);
  Status inner = Status::OK();
  FIELDDB_RETURN_IF_ERROR(engine_.RunStoreQuery(
      *store_, out->plan, ctx,
      [&](std::vector<PosRange>* runs) {
        return tree_->Search(query.AsBox(), [&](const RTreeEntry<2>& e) {
          runs->push_back(PosRange{e.a, e.b});
          return true;
        });
      },
      [&](uint64_t, const VectorCellRecord& cell) {
        StatusOr<size_t> pieces =
            VectorCellIsoband(cell, query, &out->region);
        if (!pieces.ok()) {
          inner = pieces.status();
          return false;
        }
        if (*pieces > 0) {
          out->stats.AddAnswerCell(query.AsBox().Contains(cell.ValueBox()),
                                   *pieces);
        }
        return true;
      },
      &out->stats));
  FIELDDB_RETURN_IF_ERROR(inner);
  engine_.MaybeLogSlowQuery(out->stats, [&](EventLog::Event* event) {
    event->Add("field_type", "vector")
        .Add("query_u_min", query.u.min)
        .Add("query_u_max", query.u.max)
        .Add("query_v_min", query.v.min)
        .Add("query_v_max", query.v.max);
    return out->plan;
  });
  return Status::OK();
}

StatusOr<WorkloadStats> VectorFieldDatabase::RunWorkload(
    const std::vector<VectorBandQuery>& queries) const {
  return engine_.RunWorkload(
      queries.size(), /*cold_cache=*/true, [&](size_t i, QueryStats* stats) {
        VectorQueryResult result;
        FIELDDB_RETURN_IF_ERROR(BandQuery(queries[i], &result));
        *stats = result.stats;
        return Status::OK();
      });
}

}  // namespace fielddb
