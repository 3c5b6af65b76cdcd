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

// The update edit of a vector cell: its u and v samples become `u` and
// `v`.
auto SetUV(const std::vector<double>& u, const std::vector<double>& v) {
  return [&u, &v](VectorCellRecord* cell) -> Status {
    FIELDDB_RETURN_IF_ERROR(WriteSamples(u, cell->num_vertices, cell->u));
    return WriteSamples(v, cell->num_vertices, cell->v);
  };
}

}  // namespace

StatusOr<std::unique_ptr<VectorFieldDatabase>> VectorFieldDatabase::Build(
    const VectorGridField& field, const Options& options) {
  auto db = std::unique_ptr<VectorFieldDatabase>(new VectorFieldDatabase());
  db->method_ = options.method;
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForBuild(options));
  BufferPool* const pool = db->engine_.pool();

  // Hilbert-order the cells (also for LinearScan — the scan is
  // order-insensitive and sharing the layout isolates the index effect).
  // One sorter serves both the in-RAM and the bounded-memory builds;
  // its (key, insertion-seq) tie-break equals the (key, id) order, so
  // both paths emit cells identically.
  const std::unique_ptr<SpaceFillingCurve> curve =
      MakeCurve(options.curve, kCurveOrder);
  if (curve == nullptr) {
    return Status::InvalidArgument("unknown curve type");
  }
  const CellId n = field.NumCells();
  const Rect2 domain = field.Domain();
  ExternalKeyRecordSorter<CellId> sorter(options.build_memory_budget_bytes);
  sorter.Reserve(n);
  for (CellId id = 0; id < n; ++id) {
    FIELDDB_RETURN_IF_ERROR(sorter.Add(
        CellCurveKey(*curve, domain, field.ComponentCell(0, id).Centroid()),
        id));
  }

  BasicCellStore<VectorCellRecord>::Appender appender(pool, n);
  FIELDDB_RETURN_IF_ERROR(
      sorter.Merge([&](uint64_t, const CellId& id) -> Status {
        return appender.Append(VectorCellRecord::FromField(field, id));
      }));
  StatusOr<BasicCellStore<VectorCellRecord>> store = appender.Finish();
  if (!store.ok()) return store.status();
  db->store_.emplace(std::move(store).value());
  db->RecordBuildSort(sorter);

  if (options.method == VectorIndexMethod::kIHilbert) {
    db->subfields_ =
        PartitionStore(*db->store_, field.ValueRangeBox(), options.cost);
    StatusOr<RStarTree<2>> tree = RStarTree<2>::BulkLoad(
        pool, SubfieldEntries(db->subfields_, RunEntry{}));
    if (!tree.ok()) return tree.status();
    db->tree_ = std::make_unique<RStarTree<2>>(std::move(tree).value());
  }

  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishBuild(options));
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
    const std::string& prefix, const OpenOptions& options) {
  auto db = std::unique_ptr<VectorFieldDatabase>(new VectorFieldDatabase());
  StatusOr<Catalog> catalog =
      db->engine_.InitForOpen(prefix, kVectorCatalog, options);
  if (!catalog.ok()) return catalog.status();
  db->method_ = static_cast<VectorIndexMethod>(catalog->method);
  BufferPool* const pool = db->engine_.pool();

  StatusOr<BasicCellStore<VectorCellRecord>> store =
      BasicCellStore<VectorCellRecord>::Attach(
          pool, catalog->store_first_page, catalog->num_cells);
  if (!store.ok()) return store.status();
  db->store_.emplace(std::move(store).value());
  db->subfields_ = std::move(catalog->vector_subfields);
  if (db->method_ == VectorIndexMethod::kIHilbert) {
    StatusOr<RStarTree<2>> tree = RStarTree<2>::Attach(pool, *catalog->tree);
    if (!tree.ok()) return tree.status();
    db->tree_ = std::make_unique<RStarTree<2>>(std::move(tree).value());
  }

  // Recovery: a frame carries u followed by v; logical redo through the
  // same apply path updates took maintains subfield boxes, tree entries
  // and the zone map.
  VectorFieldDatabase* const raw = db.get();
  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishOpen(
      prefix, options,
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
      }));
  return db;
}

Status VectorFieldDatabase::UpdateCellValues(CellId id,
                                             const std::vector<double>& u,
                                             const std::vector<double>& v) {
  // Validated first, so only appliable updates reach the log. The frame
  // carries u followed by v.
  FIELDDB_RETURN_IF_ERROR(store_->CheckUpdate(id, SetUV(u, v)));
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
  BasicCellStore<VectorCellRecord>::Change change;
  FIELDDB_RETURN_IF_ERROR(store_->Update(id, SetUV(u, v), &change));
  if (tree_ == nullptr) return Status::OK();
  // Keep every member cell's box covered by its subfield's box (the
  // no-false-negative invariant).
  return RefreshSubfieldAfterUpdate(*store_, change, tree_.get(),
                                    &subfields_, RunEntry{});
}

PhysicalPlan VectorFieldDatabase::PlanBandQuery(
    const VectorBandQuery& query) const {
  return PlanStoreQuery(*store_, query.AsBox(), planner_mode(), tree_.get());
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
  const Box<2> box = query.AsBox();
  const auto describe = [&](EventLog::Event* event) {
    event->Add("field_type", "vector")
        .Add("query_u_min", query.u.min)
        .Add("query_u_max", query.u.max)
        .Add("query_v_min", query.v.min)
        .Add("query_v_max", query.v.max);
  };
  Status inner = Status::OK();
  const auto visit = [&](uint64_t, const VectorCellRecord& cell) {
    StatusOr<size_t> pieces = VectorCellIsoband(cell, query, &out->region);
    if (!pieces.ok()) {
      inner = pieces.status();
      return false;
    }
    if (*pieces > 0) {
      out->stats.AddAnswerCell(box.Contains(cell.ValueBox()), *pieces);
    }
    return true;
  };
  FIELDDB_RETURN_IF_ERROR(FieldEngine::MeasureQuery(
      ctx, &out->stats, [&](QueryContext* ctx) {
        return engine_.BandScan(
            *store_, box,
            {.plan = out->plan.kind,
             .ctx = ctx,
             .stats = &out->stats,
             .describe = describe},
            [&](std::vector<PosRange>* runs) {
              return SearchRunEntries(*tree_, subfields_, box, runs);
            },
            visit);
      }));
  FIELDDB_RETURN_IF_ERROR(inner);
  engine_.MaybeLogSlowQuery(out->stats, [&](EventLog::Event* event) {
    describe(event);
    return out->plan;
  });
  return Status::OK();
}

}  // namespace fielddb
