#include "temporal/temporal_index.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

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

constexpr const char* kTemporalMagic = "fielddb-temporal-meta-v1";

struct TemporalMetaData {
  uint32_t page_size = 0;
  uint32_t epoch = 0;
  uint32_t num_slabs = 0;
  uint64_t num_cells = 0;
  bool has_tree = false;
  RStarMeta tree;
  std::vector<PageId> slab_first_pages;        // index = slab k
  std::vector<char> slab_seen;                 // parse bookkeeping
  std::vector<std::vector<Subfield>> slab_subfields;
  uint64_t declared_subfields = 0;
  uint64_t parsed_subfields = 0;
};

Status WriteTemporalMeta(const std::string& path,
                         const TemporalMetaData& meta) {
  return WriteCatalogFile(path, [&](std::FILE* f) {
    std::fprintf(f, "%s\n", kTemporalMagic);
    std::fprintf(f, "page_size %u\n", meta.page_size);
    std::fprintf(f, "epoch %u\n", meta.epoch);
    std::fprintf(f, "num_slabs %u\n", meta.num_slabs);
    std::fprintf(f, "num_cells %" PRIu64 "\n", meta.num_cells);
    if (meta.has_tree) {
      std::fprintf(f, "tree %" PRIu64 " %u %" PRIu64 " %" PRIu64 "\n",
                   meta.tree.root, meta.tree.height, meta.tree.size,
                   meta.tree.num_nodes);
    }
    for (uint32_t k = 0; k < meta.num_slabs; ++k) {
      std::fprintf(f, "slab %u %" PRIu64 "\n", k,
                   meta.slab_first_pages[k]);
    }
    uint64_t total = 0;
    for (const auto& sfs : meta.slab_subfields) total += sfs.size();
    std::fprintf(f, "subfields %" PRIu64 "\n", total);
    for (uint32_t k = 0; k < meta.num_slabs; ++k) {
      for (const Subfield& sf : meta.slab_subfields[k]) {
        std::fprintf(f, "tsf %u %" PRIu64 " %" PRIu64 " %.17g %.17g %.17g\n",
                     k, sf.start, sf.end, sf.interval.min, sf.interval.max,
                     sf.sum_interval_sizes);
      }
    }
    return true;
  });
}

Status ValidateTemporalMeta(const TemporalMetaData& meta,
                            const std::string& path) {
  const auto bad = [&](const char* key) {
    return Status::Corruption("catalog " + path + ": invalid value for '" +
                              key + "'");
  };
  if (meta.page_size == 0 || meta.page_size > (1u << 26)) {
    return bad("page_size");
  }
  // Build requires two snapshots, so a real catalog has a slab.
  if (meta.num_slabs == 0 || meta.num_slabs > (1u << 20)) {
    return bad("num_slabs");
  }
  for (uint32_t k = 0; k < meta.num_slabs; ++k) {
    if (!meta.slab_seen[k]) return bad("slab");
  }
  if (meta.declared_subfields != meta.parsed_subfields) {
    return bad("subfields");
  }
  for (const auto& sfs : meta.slab_subfields) {
    if (!TilesStore(sfs, meta.num_cells)) return bad("tsf");
    for (const Subfield& sf : sfs) {
      if (!std::isfinite(sf.interval.min) ||
          !std::isfinite(sf.interval.max) ||
          sf.interval.min > sf.interval.max) {
        return bad("tsf");
      }
      if (!std::isfinite(sf.sum_interval_sizes)) return bad("tsf");
    }
  }
  if (!meta.has_tree) {
    return Status::Corruption("catalog " + path + ": missing tree meta");
  }
  return Status::OK();
}

StatusOr<TemporalMetaData> ReadTemporalMeta(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::IOError("cannot read " + path);
  TemporalMetaData meta;
  char magic[64] = {};
  if (std::fscanf(f, "%63s", magic) != 1 ||
      std::string(magic) != kTemporalMagic) {
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
    } else if (k == "num_slabs") {
      ok = std::fscanf(f, "%u", &meta.num_slabs) == 1;
      if (ok && meta.num_slabs <= (1u << 20)) {
        meta.slab_first_pages.assign(meta.num_slabs, 0);
        meta.slab_seen.assign(meta.num_slabs, 0);
        meta.slab_subfields.resize(meta.num_slabs);
      }
    } else if (k == "num_cells") {
      ok = std::fscanf(f, "%" SCNu64, &meta.num_cells) == 1;
    } else if (k == "tree") {
      ok = std::fscanf(f, "%" SCNu64 " %u %" SCNu64 " %" SCNu64,
                       &meta.tree.root, &meta.tree.height, &meta.tree.size,
                       &meta.tree.num_nodes) == 4;
      meta.has_tree = true;
    } else if (k == "slab") {
      uint32_t sk = 0;
      PageId first = 0;
      ok = std::fscanf(f, "%u %" SCNu64, &sk, &first) == 2 &&
           sk < meta.slab_first_pages.size();
      if (ok) {
        meta.slab_first_pages[sk] = first;
        meta.slab_seen[sk] = 1;
      }
    } else if (k == "subfields") {
      ok = std::fscanf(f, "%" SCNu64, &meta.declared_subfields) == 1;
    } else if (k == "tsf") {
      uint32_t sk = 0;
      Subfield sf;
      ok = std::fscanf(f, "%u %" SCNu64 " %" SCNu64 " %lg %lg %lg", &sk,
                       &sf.start, &sf.end, &sf.interval.min,
                       &sf.interval.max, &sf.sum_interval_sizes) == 6 &&
           sk < meta.slab_subfields.size() &&
           meta.parsed_subfields < (uint64_t{1} << 24);
      if (ok) {
        meta.slab_subfields[sk].push_back(sf);
        ++meta.parsed_subfields;
      }
    } else {
      ok = false;
    }
  }
  std::fclose(f);
  if (!ok) return Status::Corruption("malformed catalog " + path);
  FIELDDB_RETURN_IF_ERROR(ValidateTemporalMeta(meta, path));
  return meta;
}

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
      prefix, crash_point,
      [&](const std::string& meta_tmp_path, uint32_t new_epoch) -> Status {
        TemporalMetaData meta;
        meta.page_size = engine_.file()->page_size();
        meta.epoch = new_epoch;
        meta.num_slabs = num_slabs_;
        meta.num_cells = pos_of_.size();
        meta.has_tree = tree_ != nullptr;
        if (tree_ != nullptr) meta.tree = tree_->meta();
        meta.slab_first_pages.resize(num_slabs_);
        meta.slab_subfields.resize(num_slabs_);
        for (uint32_t k = 0; k < num_slabs_; ++k) {
          meta.slab_first_pages[k] = slabs_[k].store->first_page();
          meta.slab_subfields[k] = slabs_[k].subfields;
        }
        return WriteTemporalMeta(meta_tmp_path, meta);
      });
}

StatusOr<std::unique_ptr<TemporalFieldDatabase>> TemporalFieldDatabase::Open(
    const std::string& prefix) {
  return Open(prefix, OpenOptions{});
}

StatusOr<std::unique_ptr<TemporalFieldDatabase>> TemporalFieldDatabase::Open(
    const std::string& prefix, const OpenOptions& options) {
  StatusOr<TemporalMetaData> meta = ReadCatalog(prefix, &ReadTemporalMeta);
  if (!meta.ok()) return meta.status();

  auto db =
      std::unique_ptr<TemporalFieldDatabase>(new TemporalFieldDatabase());
  db->num_slabs_ = meta->num_slabs;
  db->t_max_ = static_cast<double>(meta->num_slabs);
  db->planner_mode_.store(options.planner_mode, std::memory_order_relaxed);
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForOpen(
      prefix, meta->page_size, meta->epoch, options.pool_pages));
  BufferPool* const pool = db->engine_.pool();

  const FieldEngine& engine = db->engine_;
  FIELDDB_RETURN_IF_ERROR(
      engine.CheckCatalogPage(prefix, "tree", meta->tree.root));
  const uint64_t n = meta->num_cells;
  for (uint32_t k = 0; k < meta->num_slabs && n > 0; ++k) {
    FIELDDB_RETURN_IF_ERROR(
        engine.CheckCatalogPage(prefix, "slab", meta->slab_first_pages[k]));
  }

  // Attach the slab stores and rebuild the in-RAM sidecars (zone maps
  // per slab; the shared position map from slab 0's record ids).
  for (uint32_t k = 0; k < meta->num_slabs; ++k) {
    Slab slab;
    StatusOr<RecordStore<VectorCellRecord>> store =
        RecordStore<VectorCellRecord>::Attach(pool,
                                              meta->slab_first_pages[k], n);
    if (!store.ok()) return store.status();
    slab.store = std::make_unique<RecordStore<VectorCellRecord>>(
        std::move(store).value());
    slab.subfields = std::move(meta->slab_subfields[k]);
    db->total_subfields_ += slab.subfields.size();
    slab.zones.Reserve(n);
    // Every slab holds the shared Hilbert order; slab 0's map is kept.
    std::vector<uint64_t> positions;
    FIELDDB_RETURN_IF_ERROR(MapRecordIds(
        *slab.store, &positions, [&](uint64_t, const VectorCellRecord& rec) {
          slab.zones.Append(SlabInterval(rec));
        }));
    if (k == 0) db->pos_of_ = std::move(positions);
    db->slabs_.push_back(std::move(slab));
  }
  db->tree_ = std::make_unique<RStarTree<2>>(
      RStarTree<2>::Attach(pool, meta->tree));

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
