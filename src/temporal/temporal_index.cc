#include "temporal/temporal_index.h"

#include <algorithm>
#include <cmath>

#include "common/geometry.h"
#include "core/ext_sort.h"
#include "field/isoband.h"
#include "index/subfield_maintenance.h"

namespace fielddb {

namespace {

// Synthesizes the spatial cell record of a slab record at intra-slab
// time tau in [0, 1] (vertex-wise linear interpolation).
CellRecord AtTau(const VectorCellRecord& rec, double tau) {
  CellRecord cell;
  cell.num_vertices = rec.num_vertices;
  cell.id = rec.id;
  for (uint32_t i = 0; i < rec.num_vertices; ++i) {
    cell.x[i] = rec.x[i];
    cell.y[i] = rec.y[i];
    cell.w[i] = (1.0 - tau) * rec.u[i] + tau * rec.v[i];
  }
  return cell;
}

// A slab record's value interval over the whole slab.
ValueInterval SlabInterval(const VectorCellRecord& rec) {
  ValueInterval iv = ValueInterval::Empty();
  for (uint32_t i = 0; i < rec.num_vertices; ++i) {
    iv.Extend(rec.u[i]);
    iv.Extend(rec.v[i]);
  }
  return iv;
}

// One method (a slab-major R*-tree over the slabs' subfields), so no
// `method` key; Build needs two snapshots, so a real catalog has a slab.
constexpr CatalogSchema kTemporalCatalog = {
    .magic = "fielddb-temporal-meta-v1",
    .retired_magic = nullptr,
    .keys = CatalogBits({CatalogKey::kPageSize, CatalogKey::kEpoch,
                         CatalogKey::kNumSlabs, CatalogKey::kNumCells,
                         CatalogKey::kTree, CatalogKey::kSlab,
                         CatalogKey::kSubfields, CatalogKey::kTsf}),
    .num_methods = 1,
    .tree_methods = CatalogBits({0}),
    .tiled_methods = CatalogBits({0}),
    .record_size = sizeof(VectorCellRecord),
};

}  // namespace

StatusOr<std::unique_ptr<TemporalFieldDatabase>>
TemporalFieldDatabase::Build(const TemporalGridField& field,
                             const Options& options) {
  auto db =
      std::unique_ptr<TemporalFieldDatabase>(new TemporalFieldDatabase());
  db->num_slabs_ = field.NumSlabs();
  db->t_max_ = static_cast<double>(field.NumSnapshots() - 1);
  db->planner_mode_.store(options.planner_mode, std::memory_order_relaxed);
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForBuild(
      {.page_size = options.page_size,
       .pool_pages = options.pool_pages,
       .page_file_factory = options.page_file_factory}));
  BufferPool* const pool = db->engine_.pool();

  // One shared Hilbert order over the (time-invariant) cell geometry,
  // computed with the external sorter under the build memory budget.
  // The (key, insertion-seq) tie-break equals LinearizeCells's (key, id)
  // sort, so the order is byte-identical to the in-RAM path.
  StatusOr<GridField> first = field.Snapshot(0);
  if (!first.ok()) return first.status();
  const std::unique_ptr<SpaceFillingCurve> curve =
      MakeCurve(options.curve, options.curve_order);
  const CellId n = field.NumCells();
  const Rect2 domain = first->Domain();
  const double dw = std::max(domain.Width(), kGeomEpsilon);
  const double dh = std::max(domain.Height(), kGeomEpsilon);
  ExternalKeyRecordSorter<CellId> sorter(options.build_memory_budget_bytes);
  for (CellId id = 0; id < n; ++id) {
    const Point2 c = first->GetCell(id).Centroid();
    FIELDDB_RETURN_IF_ERROR(sorter.Add(
        curve->EncodeUnit((c.x - domain.lo.x) / dw,
                          (c.y - domain.lo.y) / dh),
        id));
  }
  std::vector<CellId> order;
  order.reserve(n);
  FIELDDB_RETURN_IF_ERROR(
      sorter.Merge([&](uint64_t, const CellId& id) -> Status {
        order.push_back(id);
        return Status::OK();
      }));
  db->ext_spill_runs_ = sorter.spill_runs();
  db->ext_peak_buffered_bytes_ = sorter.peak_buffered_bytes();
  db->pos_of_.assign(order.size(), 0);
  for (uint64_t pos = 0; pos < order.size(); ++pos) {
    db->pos_of_[order[pos]] = pos;
  }

  const ValueInterval range = field.ValueRange();
  std::vector<RTreeEntry<2>> entries;

  for (uint32_t k = 0; k < db->num_slabs_; ++k) {
    Slab slab;
    slab.zones.Reserve(n);
    RecordStoreAppender<VectorCellRecord> appender(pool);
    SubfieldStreamBuilder costing(range, options.cost);
    for (CellId pos = 0; pos < n; ++pos) {
      const CellId id = order[pos];
      const CellRecord geometry = first->GetCell(id);
      VectorCellRecord rec;
      rec.num_vertices = geometry.num_vertices;
      rec.id = id;
      // Vertex grid coordinates of the quad corners.
      const uint32_t ci = id % field.cols();
      const uint32_t cj = id / field.cols();
      const uint32_t vi[4] = {ci, ci + 1, ci + 1, ci};
      const uint32_t vj[4] = {cj, cj, cj + 1, cj + 1};
      for (int corner = 0; corner < 4; ++corner) {
        rec.x[corner] = geometry.x[corner];
        rec.y[corner] = geometry.y[corner];
        rec.u[corner] = field.SampleAt(k, vi[corner], vj[corner]);
        rec.v[corner] = field.SampleAt(k + 1, vi[corner], vj[corner]);
      }
      FIELDDB_RETURN_IF_ERROR(appender.Append(rec));
      const ValueInterval iv = SlabInterval(rec);
      slab.zones.Append(iv);
      costing.Add(iv);
    }
    StatusOr<RecordStore<VectorCellRecord>> store = appender.Finish();
    if (!store.ok()) return store.status();
    slab.store = std::make_unique<RecordStore<VectorCellRecord>>(
        std::move(store).value());
    slab.subfields = costing.Finish();

    for (size_t si = 0; si < slab.subfields.size(); ++si) {
      RTreeEntry<2> e;
      e.box.lo = {slab.subfields[si].interval.min,
                  static_cast<double>(k)};
      e.box.hi = {slab.subfields[si].interval.max,
                  static_cast<double>(k + 1)};
      e.a = k;
      e.b = si;
      entries.push_back(e);
    }
    db->total_subfields_ += slab.subfields.size();
    db->slabs_.push_back(std::move(slab));
  }

  // Entries arrive slab-major in Hilbert order — already well packed.
  StatusOr<RStarTree<2>> tree =
      RStarTree<2>::BulkLoad(pool, entries, options.rstar);
  if (!tree.ok()) return tree.status();
  db->tree_ = std::make_unique<RStarTree<2>>(std::move(tree).value());

  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishBuild(
      options.wal_mode, options.wal_path, options.event_log_path,
      options.slow_query_threshold_ms));
  return db;
}

Status TemporalFieldDatabase::SaveImpl(const std::string& prefix,
                                       SnapshotCrashPoint crash_point) {
  return engine_.SaveSnapshot(
      prefix, crash_point, kTemporalCatalog, [&](Catalog* catalog) {
        catalog->num_slabs = num_slabs_;
        catalog->num_cells = pos_of_.size();
        if (tree_ != nullptr) catalog->tree = tree_->meta();
        for (uint32_t k = 0; k < num_slabs_; ++k) {
          catalog->slabs.push_back({k, slabs_[k].store->first_page()});
          for (const Subfield& sf : slabs_[k].subfields) {
            catalog->slab_subfields.push_back({k, sf});
          }
        }
      });
}

StatusOr<std::unique_ptr<TemporalFieldDatabase>> TemporalFieldDatabase::Open(
    const std::string& prefix) {
  return Open(prefix, OpenOptions{});
}

StatusOr<std::unique_ptr<TemporalFieldDatabase>> TemporalFieldDatabase::Open(
    const std::string& prefix, const OpenOptions& options) {
  auto db =
      std::unique_ptr<TemporalFieldDatabase>(new TemporalFieldDatabase());
  StatusOr<Catalog> catalog =
      db->engine_.InitForOpen(prefix, kTemporalCatalog, options.pool_pages);
  if (!catalog.ok()) return catalog.status();
  db->num_slabs_ = catalog->num_slabs;
  db->t_max_ = static_cast<double>(catalog->num_slabs);
  db->planner_mode_.store(options.planner_mode, std::memory_order_relaxed);
  BufferPool* const pool = db->engine_.pool();

  // Attach the slab stores and rebuild the in-RAM sidecars (zone maps
  // per slab; the shared position map from slab 0's record ids).
  const uint64_t n = catalog->num_cells;
  db->slabs_.resize(catalog->num_slabs);
  for (const CatalogSlabSubfield& row : catalog->slab_subfields) {
    db->slabs_[row.slab].subfields.push_back(row.subfield);
  }
  db->total_subfields_ = catalog->slab_subfields.size();
  for (uint32_t k = 0; k < catalog->num_slabs; ++k) {
    Slab& slab = db->slabs_[k];
    StatusOr<RecordStore<VectorCellRecord>> store =
        RecordStore<VectorCellRecord>::Attach(
            pool, catalog->slabs[k].first_page, n);
    if (!store.ok()) return store.status();
    slab.store = std::make_unique<RecordStore<VectorCellRecord>>(
        std::move(store).value());
    slab.zones.Reserve(n);
    // Every slab holds the shared Hilbert order; slab 0's map is kept.
    std::vector<uint64_t> positions;
    FIELDDB_RETURN_IF_ERROR(MapRecordIds(
        *slab.store, &positions, [&](uint64_t, const VectorCellRecord& rec) {
          slab.zones.Append(SlabInterval(rec));
        }));
    if (k == 0) db->pos_of_ = std::move(positions);
  }
  db->tree_ = std::make_unique<RStarTree<2>>(
      RStarTree<2>::Attach(pool, *catalog->tree));

  // Recovery: a frame carries the snapshot index in values[0] followed
  // by the vertex samples; logical redo through the same apply path
  // updates took maintains subfield hulls, tree entries and zone maps.
  TemporalFieldDatabase* const raw = db.get();
  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishOpen(
      prefix, options.wal_mode,
      [raw](const WalFrame& frame) -> Status {
        if (frame.values.size() < 2) {
          return Status::Corruption("temporal WAL frame too short");
        }
        const double s = frame.values[0];
        if (!(s >= 0.0) || s != std::floor(s) ||
            s > static_cast<double>(raw->num_slabs_)) {
          return Status::Corruption(
              "temporal WAL frame has an invalid snapshot index");
        }
        const std::vector<double> samples(frame.values.begin() + 1,
                                          frame.values.end());
        return raw->ApplySnapshotCellValues(static_cast<uint32_t>(s),
                                            frame.cell_id, samples);
      },
      [raw, &prefix]() {
        return raw->SaveImpl(prefix, SnapshotCrashPoint::kNone);
      },
      options.event_log_path, options.slow_query_threshold_ms,
      options.recovery_report));
  return db;
}

Status TemporalFieldDatabase::UpdateSlabSide(
    uint32_t k, uint64_t pos, bool u_side,
    const std::vector<double>& values) {
  Slab& slab = slabs_[k];
  VectorCellRecord rec;
  FIELDDB_RETURN_IF_ERROR(slab.store->Get(pos, &rec));
  if (values.size() != rec.num_vertices) {
    return Status::InvalidArgument(
        "expected " + std::to_string(rec.num_vertices) + " values, got " +
        std::to_string(values.size()));
  }
  for (uint32_t i = 0; i < rec.num_vertices; ++i) {
    (u_side ? rec.u : rec.v)[i] = values[i];
  }
  FIELDDB_RETURN_IF_ERROR(slab.store->Put(pos, rec));
  slab.zones.Set(pos, SlabInterval(rec));

  // Refresh the containing subfield's value hull; the time extent
  // [k, k+1] of the tree entry never changes.
  const size_t si = SubfieldContaining(slab.subfields, pos);
  Subfield& sf = slab.subfields[si];
  ValueInterval hull = ValueInterval::Empty();
  double sum_sizes = 0.0;
  FIELDDB_RETURN_IF_ERROR(slab.store->Scan(
      sf.start, sf.end, [&](uint64_t, const VectorCellRecord& member) {
        const ValueInterval iv = SlabInterval(member);
        hull.Extend(iv);
        sum_sizes += iv.PaperSize();
        return true;
      }));
  if (hull != sf.interval) {
    Box<2> old_box, new_box;
    old_box.lo = {sf.interval.min, static_cast<double>(k)};
    old_box.hi = {sf.interval.max, static_cast<double>(k + 1)};
    new_box.lo = {hull.min, static_cast<double>(k)};
    new_box.hi = {hull.max, static_cast<double>(k + 1)};
    FIELDDB_RETURN_IF_ERROR(tree_->Delete(old_box, k, si));
    FIELDDB_RETURN_IF_ERROR(tree_->Insert(new_box, k, si));
    sf.interval = hull;
  }
  sf.sum_interval_sizes = sum_sizes;
  return Status::OK();
}

Status TemporalFieldDatabase::ApplySnapshotCellValues(
    uint32_t snapshot, CellId id, const std::vector<double>& values) {
  if (snapshot > num_slabs_) {
    return Status::OutOfRange("no such snapshot");
  }
  if (id >= pos_of_.size()) return Status::OutOfRange("no such cell");
  const uint64_t pos = pos_of_[id];
  // Snapshot k is the late endpoint (v) of slab k-1 and the early
  // endpoint (u) of slab k; both records must agree on the new samples.
  if (snapshot > 0) {
    FIELDDB_RETURN_IF_ERROR(
        UpdateSlabSide(snapshot - 1, pos, /*u_side=*/false, values));
  }
  if (snapshot < num_slabs_) {
    FIELDDB_RETURN_IF_ERROR(
        UpdateSlabSide(snapshot, pos, /*u_side=*/true, values));
  }
  return Status::OK();
}

Status TemporalFieldDatabase::UpdateSnapshotCellValues(
    uint32_t snapshot, CellId id, const std::vector<double>& values) {
  if (snapshot > num_slabs_) {
    return Status::OutOfRange("no such snapshot");
  }
  if (id >= pos_of_.size()) return Status::OutOfRange("no such cell");
  // Validate against the record before logging, so only appliable
  // updates ever reach the WAL and replay never meets invalid frames.
  const uint32_t ref_slab = snapshot > 0 ? snapshot - 1 : 0;
  VectorCellRecord rec;
  FIELDDB_RETURN_IF_ERROR(slabs_[ref_slab].store->Get(pos_of_[id], &rec));
  if (values.size() != rec.num_vertices) {
    return Status::InvalidArgument(
        "expected " + std::to_string(rec.num_vertices) + " values, got " +
        std::to_string(values.size()));
  }
  if (engine_.wal() != nullptr) {
    std::vector<double> payload;
    payload.reserve(values.size() + 1);
    payload.push_back(static_cast<double>(snapshot));
    payload.insert(payload.end(), values.begin(), values.end());
    FIELDDB_RETURN_IF_ERROR(engine_.LogUpdate(id, payload));
  }
  return ApplySnapshotCellValues(snapshot, id, values);
}

uint32_t TemporalFieldDatabase::SlabAt(double t) const {
  return static_cast<uint32_t>(
      std::min(std::floor(std::max(t, 0.0)), t_max_ - 1.0));
}

PhysicalPlan TemporalFieldDatabase::PlanSnapshotQuery(
    double t, const ValueInterval& band) const {
  const Slab& slab = slabs_[SlabAt(t)];
  const PlanCostModel cost;
  const StoreShape shape = ShapeOf(*slab.store);
  return ChoosePlan(cost, shape, planner_mode(), tree_ != nullptr, [&] {
    std::vector<PosRange> runs;
    slab.zones.FilterRanges(band, &runs);
    return ExactProbe(cost, shape, runs,
                      PagePattern::Random(tree_->height()));
  });
}

Status TemporalFieldDatabase::SnapshotValueQuery(double t,
                                                 const ValueInterval& band,
                                                 ValueQueryResult* out,
                                                 QueryContext* ctx) const {
  if (band.IsEmpty()) {
    return Status::InvalidArgument("empty query band");
  }
  if (t < 0.0 || t > t_max_) {
    return Status::OutOfRange("time outside [0, T-1]");
  }
  out->region.pieces.clear();
  out->stats = QueryStats{};
  const uint32_t k = SlabAt(t);
  const Slab& slab = slabs_[k];
  const double tau = t - k;
  out->plan = PlanSnapshotQuery(t, band);
  Status inner = Status::OK();
  FIELDDB_RETURN_IF_ERROR(engine_.RunStoreQuery(
      *slab.store, out->plan, ctx,
      [&](std::vector<PosRange>* runs) {
        Box<2> query;
        query.lo = {band.min, t};
        query.hi = {band.max, t};
        return tree_->Search(query, [&](const RTreeEntry<2>& e) {
          if (e.a == k) {  // integer t also brushes the previous slab
            const Subfield& sf = slab.subfields[e.b];
            runs->push_back(PosRange{sf.start, sf.end});
          }
          return true;
        });
      },
      [&](uint64_t, const VectorCellRecord& rec) {
        const CellRecord cell = AtTau(rec, tau);
        StatusOr<size_t> pieces = CellIsoband(cell, band, &out->region);
        if (!pieces.ok()) {
          inner = pieces.status();
          return false;
        }
        if (*pieces > 0) {
          ++out->stats.answer_cells;
          out->stats.region_pieces += *pieces;
        }
        return true;
      },
      &out->stats));
  FIELDDB_RETURN_IF_ERROR(inner);
  engine_.MaybeLogSlowQuery(out->stats, [&](EventLog::Event* event) {
    event->Add("field_type", "temporal")
        .Add("time_t", t)
        .Add("query_min", band.min)
        .Add("query_max", band.max);
    return out->plan;
  });
  return Status::OK();
}

Status TemporalFieldDatabase::TimeRangeCandidates(
    const ValueInterval& band, double t0, double t1,
    std::vector<CellId>* out) const {
  if (band.IsEmpty() || t0 > t1) {
    return Status::InvalidArgument("bad query");
  }
  Box<2> query;
  query.lo = {band.min, std::max(0.0, t0)};
  query.hi = {band.max, std::min(t_max_, t1)};

  std::vector<bool> seen;
  Status inner = Status::OK();
  FIELDDB_RETURN_IF_ERROR(
      tree_->Search(query, [&](const RTreeEntry<2>& e) {
        const Slab& slab = slabs_[e.a];
        const Subfield& sf = slab.subfields[e.b];
        const Status s = slab.store->Scan(
            sf.start, sf.end, [&](uint64_t, const VectorCellRecord& rec) {
              if (seen.empty()) {
                seen.resize(slab.store->size(), false);
              }
              if (!seen[rec.id]) {
                seen[rec.id] = true;
                out->push_back(rec.id);
              }
              return true;
            });
        if (!s.ok()) {
          inner = s;
          return false;
        }
        return true;
      }));
  FIELDDB_RETURN_IF_ERROR(inner);
  std::sort(out->begin(), out->end());
  return Status::OK();
}

StatusOr<WorkloadStats> TemporalFieldDatabase::RunWorkload(
    const std::vector<TemporalSnapshotQuery>& queries) const {
  return engine_.RunWorkload(
      queries.size(), /*cold_cache=*/true, [&](size_t i, QueryStats* stats) {
        ValueQueryResult result;
        FIELDDB_RETURN_IF_ERROR(
            SnapshotValueQuery(queries[i].first, queries[i].second, &result));
        *stats = result.stats;
        return Status::OK();
      });
}

}  // namespace fielddb
