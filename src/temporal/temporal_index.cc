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

// A slab subfield's entry in the value × time tree: its value interval
// × [k, k+1], addressed by (slab k, subfield index).
struct SlabEntry {
  uint32_t k;
  RTreeEntry<2> operator()(const Subfield& sf, size_t si) const {
    RTreeEntry<2> e;
    e.box.lo = {sf.interval.min, static_cast<double>(k)};
    e.box.hi = {sf.interval.max, static_cast<double>(k + 1)};
    e.a = k;
    e.b = si;
    return e;
  }
};

// The update edit of one slab end: the u (earlier snapshot) or v samples
// become `values`.
auto SetSide(const std::vector<double>& values, bool u_side) {
  return [&values, u_side](TemporalSlabRecord* rec) {
    return WriteSamples(values, rec->num_vertices, u_side ? rec->u : rec->v);
  };
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
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForBuild(options));
  BufferPool* const pool = db->engine_.pool();

  // One shared Hilbert order over the (time-invariant) cell geometry,
  // computed with the external sorter under the build memory budget.
  // The (key, insertion-seq) tie-break is the (key, id) sort, so the
  // order is byte-identical to the in-RAM path.
  StatusOr<GridField> first = field.Snapshot(0);
  if (!first.ok()) return first.status();
  const std::unique_ptr<SpaceFillingCurve> curve =
      MakeCurve(options.curve, kCurveOrder);
  if (curve == nullptr) {
    return Status::InvalidArgument("unknown curve type");
  }
  const CellId n = field.NumCells();
  const Rect2 domain = first->Domain();
  ExternalKeyRecordSorter<CellId> sorter(options.build_memory_budget_bytes);
  for (CellId id = 0; id < n; ++id) {
    FIELDDB_RETURN_IF_ERROR(sorter.Add(
        CellCurveKey(*curve, domain, first->GetCell(id).Centroid()), id));
  }
  std::vector<CellId> order;
  order.reserve(n);
  FIELDDB_RETURN_IF_ERROR(
      sorter.Merge([&](uint64_t, const CellId& id) -> Status {
        order.push_back(id);
        return Status::OK();
      }));
  db->RecordBuildSort(sorter);

  const ValueInterval range = field.ValueRange();
  std::vector<RTreeEntry<2>> entries;
  for (uint32_t k = 0; k < db->num_slabs_; ++k) {
    BasicCellStore<TemporalSlabRecord>::Appender appender(pool, n);
    for (const CellId id : order) {
      const CellRecord geometry = first->GetCell(id);
      TemporalSlabRecord rec;
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
    }
    StatusOr<BasicCellStore<TemporalSlabRecord>> store = appender.Finish();
    if (!store.ok()) return store.status();
    std::vector<Subfield> subfields =
        PartitionStore(*store, range, options.cost);
    const std::vector<RTreeEntry<2>> slab_entries =
        SubfieldEntries(subfields, SlabEntry{k});
    entries.insert(entries.end(), slab_entries.begin(), slab_entries.end());
    db->total_subfields_ += subfields.size();
    db->slabs_.push_back(
        Slab{std::move(store).value(), std::move(subfields)});
  }

  // Entries arrive slab-major in Hilbert order — already well packed.
  StatusOr<RStarTree<2>> tree = RStarTree<2>::BulkLoad(pool, entries);
  if (!tree.ok()) return tree.status();
  db->tree_ = std::make_unique<RStarTree<2>>(std::move(tree).value());

  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishBuild(options));
  return db;
}

Status TemporalFieldDatabase::SaveImpl(const std::string& prefix,
                                       SnapshotCrashPoint crash_point) {
  return engine_.SaveSnapshot(
      prefix, crash_point, kTemporalCatalog, [&](Catalog* catalog) {
        catalog->num_slabs = num_slabs_;
        catalog->num_cells = num_cells();
        if (tree_ != nullptr) catalog->tree = tree_->meta();
        for (uint32_t k = 0; k < num_slabs_; ++k) {
          catalog->slabs.push_back({k, slabs_[k].store.first_page()});
          for (const Subfield& sf : slabs_[k].subfields) {
            catalog->slab_subfields.push_back({k, sf});
          }
        }
      });
}

StatusOr<std::unique_ptr<TemporalFieldDatabase>> TemporalFieldDatabase::Open(
    const std::string& prefix, const OpenOptions& options) {
  auto db =
      std::unique_ptr<TemporalFieldDatabase>(new TemporalFieldDatabase());
  StatusOr<Catalog> catalog =
      db->engine_.InitForOpen(prefix, kTemporalCatalog, options);
  if (!catalog.ok()) return catalog.status();
  db->num_slabs_ = catalog->num_slabs;
  db->t_max_ = static_cast<double>(catalog->num_slabs);
  BufferPool* const pool = db->engine_.pool();

  // Attach the slab stores; each rebuilds its id -> slot map and zone
  // map.
  std::vector<std::vector<Subfield>> subfields(catalog->num_slabs);
  for (const CatalogSlabSubfield& row : catalog->slab_subfields) {
    subfields[row.slab].push_back(row.subfield);
  }
  db->total_subfields_ = catalog->slab_subfields.size();
  for (uint32_t k = 0; k < catalog->num_slabs; ++k) {
    StatusOr<BasicCellStore<TemporalSlabRecord>> store =
        BasicCellStore<TemporalSlabRecord>::Attach(
            pool, catalog->slabs[k].first_page, catalog->num_cells);
    if (!store.ok()) return store.status();
    db->slabs_.push_back(
        Slab{std::move(store).value(), std::move(subfields[k])});
  }
  StatusOr<RStarTree<2>> tree = RStarTree<2>::Attach(pool, *catalog->tree);
  if (!tree.ok()) return tree.status();
  db->tree_ = std::make_unique<RStarTree<2>>(std::move(tree).value());

  // Recovery: a frame carries the snapshot index in values[0] followed
  // by the vertex samples; logical redo through the same apply path
  // updates took maintains subfield hulls, tree entries and zone maps.
  TemporalFieldDatabase* const raw = db.get();
  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishOpen(
      prefix, options,
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
      }));
  return db;
}

Status TemporalFieldDatabase::UpdateSlabSide(
    uint32_t k, CellId id, bool u_side, const std::vector<double>& values) {
  Slab& slab = slabs_[k];
  BasicCellStore<TemporalSlabRecord>::Change change;
  FIELDDB_RETURN_IF_ERROR(
      slab.store.Update(id, SetSide(values, u_side), &change));
  // The entry's time extent [k, k+1] never changes; its value hull may.
  return RefreshSubfieldAfterUpdate(slab.store, change, tree_.get(),
                                    &slab.subfields, SlabEntry{k});
}

Status TemporalFieldDatabase::ApplySnapshotCellValues(
    uint32_t snapshot, CellId id, const std::vector<double>& values) {
  if (snapshot > num_slabs_) {
    return Status::OutOfRange("no such snapshot");
  }
  // Snapshot k is the late endpoint (v) of slab k-1 and the early
  // endpoint (u) of slab k; both records must agree on the new samples.
  if (snapshot > 0) {
    FIELDDB_RETURN_IF_ERROR(
        UpdateSlabSide(snapshot - 1, id, /*u_side=*/false, values));
  }
  if (snapshot < num_slabs_) {
    FIELDDB_RETURN_IF_ERROR(
        UpdateSlabSide(snapshot, id, /*u_side=*/true, values));
  }
  return Status::OK();
}

Status TemporalFieldDatabase::UpdateSnapshotCellValues(
    uint32_t snapshot, CellId id, const std::vector<double>& values) {
  if (snapshot > num_slabs_) {
    return Status::OutOfRange("no such snapshot");
  }
  // Validate against a bordering slab's record before logging, so only
  // appliable updates ever reach the WAL and replay never meets invalid
  // frames.
  const uint32_t ref_slab = snapshot > 0 ? snapshot - 1 : 0;
  FIELDDB_RETURN_IF_ERROR(slabs_[ref_slab].store.CheckUpdate(
      id, SetSide(values, /*u_side=*/snapshot == 0)));
  if (engine_.wal() != nullptr) {
    std::vector<double> payload;
    payload.reserve(values.size() + 1);
    payload.push_back(static_cast<double>(snapshot));
    payload.insert(payload.end(), values.begin(), values.end());
    FIELDDB_RETURN_IF_ERROR(engine_.LogUpdate(id, payload));
  }
  return ApplySnapshotCellValues(snapshot, id, values);
}

StatusOr<const Subfield*> TemporalFieldDatabase::EntrySubfield(
    const RTreeEntry<2>& e) const {
  if (e.a >= slabs_.size() || e.b >= slabs_[e.a].subfields.size()) {
    return Status::Corruption("temporal tree entry past the subfield table");
  }
  return &slabs_[e.a].subfields[e.b];
}

uint32_t TemporalFieldDatabase::SlabAt(double t) const {
  if (!(t > 0.0)) return 0;  // NaN too
  if (t >= t_max_ - 1.0) return num_slabs_ - 1;
  return static_cast<uint32_t>(std::floor(t));
}

PhysicalPlan TemporalFieldDatabase::PlanSnapshotQuery(
    double t, const ValueInterval& band) const {
  return PlanStoreQuery(slabs_[SlabAt(t)].store, band, planner_mode(),
                        tree_.get());
}

Status TemporalFieldDatabase::SnapshotValueQuery(double t,
                                                 const ValueInterval& band,
                                                 ValueQueryResult* out,
                                                 QueryContext* ctx) const {
  if (band.IsEmpty()) {
    return Status::InvalidArgument("empty query band");
  }
  if (!(t >= 0.0 && t <= t_max_)) {
    return Status::OutOfRange("time outside [0, T-1]");
  }
  out->region.pieces.clear();
  out->stats = QueryStats{};
  const uint32_t k = SlabAt(t);
  const Slab& slab = slabs_[k];
  const double tau = t - k;
  out->plan = PlanSnapshotQuery(t, band);
  const auto describe = [&](EventLog::Event* event) {
    event->Add("field_type", "temporal")
        .Add("time_t", t)
        .Add("query_min", band.min)
        .Add("query_max", band.max);
  };
  // The zone filter tests each record's slab-wide interval, a superset
  // of its interval at `t`.
  Status inner = Status::OK();
  const auto visit = [&](uint64_t, const TemporalSlabRecord& rec) {
    const CellRecord cell = AtTau(rec, tau);
    StatusOr<size_t> pieces = CellIsoband(cell, band, &out->region);
    if (!pieces.ok()) {
      inner = pieces.status();
      return false;
    }
    if (*pieces > 0) {
      out->stats.AddAnswerCell(band.Contains(cell.Interval()), *pieces);
    }
    return true;
  };
  FIELDDB_RETURN_IF_ERROR(FieldEngine::MeasureQuery(
      ctx, &out->stats, [&](QueryContext* ctx) {
        return engine_.BandScan(
            slab.store, band,
            {.plan = out->plan.kind,
             .ctx = ctx,
             .stats = &out->stats,
             .describe = describe},
            [&](std::vector<PosRange>* runs) {
              Box<2> query;
              query.lo = {band.min, t};
              query.hi = {band.max, t};
              std::vector<PosRange> hits;
              Status entry;
              FIELDDB_RETURN_IF_ERROR(
                  tree_->Search(query, [&](const RTreeEntry<2>& e) {
                    const StatusOr<const Subfield*> sf = EntrySubfield(e);
                    if (!sf.ok()) {
                      entry = sf.status();
                      return false;
                    }
                    // An integer t also brushes the previous slab.
                    if (e.a == k) {
                      hits.push_back(PosRange{(*sf)->start, (*sf)->end});
                    }
                    return true;
                  }));
              FIELDDB_RETURN_IF_ERROR(entry);
              MergeRuns(&hits, runs);
              return Status::OK();
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

Status TemporalFieldDatabase::TimeRangeCandidates(
    const ValueInterval& band, double t0, double t1,
    std::vector<CellId>* out) const {
  if (band.IsEmpty() || !std::isfinite(t0) || !std::isfinite(t1) ||
      t0 > t1) {
    return Status::InvalidArgument("bad query");
  }
  Box<2> query;
  query.lo = {band.min, std::max(0.0, t0)};
  query.hi = {band.max, std::min(t_max_, t1)};

  std::vector<bool> seen;
  Status inner = Status::OK();
  FIELDDB_RETURN_IF_ERROR(
      tree_->Search(query, [&](const RTreeEntry<2>& e) {
        const StatusOr<const Subfield*> sf = EntrySubfield(e);
        if (!sf.ok()) {
          inner = sf.status();
          return false;
        }
        const Slab& slab = slabs_[e.a];
        const Status s = slab.store.records().Scan(
            (*sf)->start, (*sf)->end,
            [&](uint64_t, const TemporalSlabRecord& rec) {
              if (seen.empty()) {
                seen.resize(slab.store.size(), false);
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
