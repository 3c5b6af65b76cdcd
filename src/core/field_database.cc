#include "core/field_database.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "field/interpolation.h"
#include "field/isoband.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"
#include "plan/operators.h"
#include "storage/io_sink.h"

namespace fielddb {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Facade-level instruments. Looked up once; the registry keeps the
/// pointers stable for the process lifetime.
struct DbMetrics {
  Counter* value_queries;
  Counter* isoline_queries;
  Counter* point_queries;
  Counter* index_fallbacks;
  Counter* scrub_pages;
  Counter* scrub_corrupt_pages;
  Counter* zonemap_cells_skipped;
  Counter* plans_scan;
  Counter* plans_index;
  Histogram* query_wall_us;

  static const DbMetrics& Get() {
    static const DbMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Default();
      return DbMetrics{reg.GetCounter("db.value_queries"),
                       reg.GetCounter("db.isoline_queries"),
                       reg.GetCounter("db.point_queries"),
                       reg.GetCounter("db.index_fallbacks"),
                       reg.GetCounter("db.scrub_pages"),
                       reg.GetCounter("db.scrub_corrupt_pages"),
                       reg.GetCounter("db.zonemap_cells_skipped"),
                       reg.GetCounter("db.plans_scan"),
                       reg.GetCounter("db.plans_index"),
                       reg.GetHistogram("db.query_wall_us")};
    }();
    return m;
  }
};

}  // namespace

// Best-effort close of the WAL and pool lives in ~FieldEngine.
FieldDatabase::~FieldDatabase() = default;

StatusOr<std::unique_ptr<FieldDatabase>> FieldDatabase::Build(
    const Field& field, const FieldDatabaseOptions& options) {
  auto db = std::unique_ptr<FieldDatabase>(new FieldDatabase());
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForBuild(
      {.page_size = options.page_size,
       .pool_pages = options.pool_pages,
       .readahead_pages = options.readahead_pages,
       .page_file_factory = options.page_file_factory}));
  BufferPool* const pool = db->engine_.pool();
  db->value_range_ = field.ValueRange();
  db->domain_ = field.Domain();

  switch (options.method) {
    case IndexMethod::kLinearScan: {
      StatusOr<std::unique_ptr<LinearScanIndex>> idx =
          LinearScanIndex::Build(pool, field);
      if (!idx.ok()) return idx.status();
      db->index_ = std::move(idx).value();
      break;
    }
    case IndexMethod::kIAll: {
      StatusOr<std::unique_ptr<IAllIndex>> idx =
          IAllIndex::Build(pool, field, options.iall);
      if (!idx.ok()) return idx.status();
      db->index_ = std::move(idx).value();
      break;
    }
    case IndexMethod::kIHilbert: {
      IHilbertIndex::Options ihopts = options.ihilbert;
      if (options.build_memory_budget_bytes > 0) {
        ihopts.build_memory_budget_bytes = options.build_memory_budget_bytes;
      }
      StatusOr<std::unique_ptr<IHilbertIndex>> idx =
          IHilbertIndex::Build(pool, field, ihopts);
      if (!idx.ok()) return idx.status();
      db->index_ = std::move(idx).value();
      break;
    }
    case IndexMethod::kIntervalQuadtree: {
      StatusOr<std::unique_ptr<IntervalQuadtreeIndex>> idx =
          IntervalQuadtreeIndex::Build(pool, field, options.iqt);
      if (!idx.ok()) return idx.status();
      db->index_ = std::move(idx).value();
      break;
    }
    case IndexMethod::kRowIp: {
      StatusOr<std::unique_ptr<RowIpIndex>> idx =
          RowIpIndex::Build(pool, field);
      if (!idx.ok()) return idx.status();
      db->index_ = std::move(idx).value();
      break;
    }
  }

  if (options.build_spatial_index) {
    // 2-D R*-tree over cell MBRs, packed in store order (Hilbert order
    // for I-Hilbert: exactly the Kamel–Faloutsos packing).
    const CellStore& store = db->index_->cell_store();
    std::vector<RTreeEntry<2>> entries;
    entries.reserve(store.size());
    FIELDDB_RETURN_IF_ERROR(store.records().Scan(
        0, store.size(), [&](uint64_t pos, const CellRecord& cell) {
          RTreeEntry<2> e;
          e.box = BoxFromRect(cell.Bounds());
          e.a = pos;
          entries.push_back(e);
          return true;
        }));
    StatusOr<RStarTree<2>> spatial =
        RStarTree<2>::BulkLoad(pool, entries);
    if (!spatial.ok()) return spatial.status();
    db->spatial_.emplace(std::move(spatial).value());
  }
  db->InitPlanner(options.planner_mode);
  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishBuild(
      options.wal_mode, options.wal_path, options.event_log_path,
      options.slow_query_threshold_ms));
  return db;
}

Status FieldDatabase::AttachEventLog(const std::string& path,
                                     double slow_query_threshold_ms) {
  return engine_.AttachEventLog(path, slow_query_threshold_ms);
}

void FieldDatabase::MaybeLogSlowQuery(const ValueInterval& query,
                                      const QueryStats& stats) const {
  engine_.MaybeLogSlowQuery(stats, [&](EventLog::Event* event) {
    event->Add("query_min", query.min).Add("query_max", query.max);
    // The probe is zero-I/O and deterministic, so this is the plan the
    // query ran (modulo a concurrent set_planner_mode, which callers
    // exclude).
    return PlanValueQuery(query);
  });
}

void FieldDatabase::InitPlanner(PlannerMode mode) {
  planner_ = std::make_unique<QueryPlanner>(index_.get(), subfields());
  planner_mode_.store(mode, std::memory_order_relaxed);
}

template <typename Visitor>
Status FieldDatabase::ScanBand(PlanKind plan, const ValueInterval& band,
                               const OperatorEnv& env, QueryStats* leader,
                               size_t members, bool count_candidates,
                               const char* fetch_detail,
                               Visitor& visit) const {
  // Without a filter step the scan counts each zone-matching cell it
  // visits: the zone test is exact, so visited == matching.
  const auto scan_all = [&] {
    if (!count_candidates) return RunFuseOp(env, band, leader, visit);
    return RunFuseOp(env, band, leader,
                     [&](uint64_t pos, const CellRecord& cell) {
                       ++leader->candidate_cells;
                       return visit(pos, cell);
                     });
  };
  if (plan == PlanKind::kFusedScan) {
    DbMetrics::Get().plans_scan->Increment();
    return scan_all();
  }
  DbMetrics::Get().plans_index->Increment();
  std::vector<PosRange>& ranges = env.ctx->ranges;
  ranges.clear();
  uint64_t candidates = 0;
  const Status filter = RunFilterOp(env, band, &ranges, &candidates);
  if (filter.code() == StatusCode::kCorruption) {
    // The value index is damaged but the cell store holds every answer:
    // degrade to the fused scan so the query still returns exact
    // results. Counted and logged once (one scan fell back). Nothing
    // was visited yet, so there is nothing to undo.
    index_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    DbMetrics::Get().index_fallbacks->Increment();
    EventLog::Event event("corruption_fallback");
    event.Add("query_min", band.min).Add("query_max", band.max);
    if (members > 1) {
      event.Add("shared_members", static_cast<uint64_t>(members));
    }
    engine_.LogEvent(event.Add("error", filter.ToString()));
    leader->index_fallbacks = 1;
    return scan_all();
  }
  FIELDDB_RETURN_IF_ERROR(filter);
  if (count_candidates) leader->candidate_cells = candidates;
  return RunScanOp(env, band, ranges.data(), ranges.size(), fetch_detail,
                   leader, visit);
}

Status QueryRequest::Check(size_t num_results) const {
  if (num_results != bands.size()) {
    return Status::InvalidArgument("need one result per band");
  }
  for (const ValueInterval& band : bands) {
    if (band.IsEmpty()) return Status::InvalidArgument("empty query interval");
  }
  return Status::OK();
}

Status FieldDatabase::Query(const QueryRequest& request,
                            std::span<ValueQueryResult> out,
                            QueryContext* ctx) const {
  for (ValueQueryResult& result : out) result.Reset();
  FIELDDB_RETURN_IF_ERROR(request.Check(out.size()));
  const std::span<const ValueInterval> bands = request.bands;
  const size_t n = bands.size();
  if (n == 0) return Status::OK();
  QueryContext local;
  if (ctx == nullptr) ctx = &local;
  QueryStats& leader = out[0].stats;
  if (request.trace) leader.trace = std::make_shared<QueryTrace>();
  QueryTrace* const trace = leader.trace.get();
  DbMetrics::Get().value_queries->Increment(n);
  ctx->io.Reset();
  ScopedIoSink sink(&ctx->io);
  const auto t0 = Clock::now();

  // Cost-based access-path selection, reported as its own span (no page
  // I/O: the probe reads only the subfield table or the in-memory
  // zone-map sidecar). A batch plans its members' hull: every cell
  // matching any member matches the envelope, so one envelope pass
  // sees them all.
  ValueInterval envelope = ValueInterval::Empty();
  for (const ValueInterval& band : bands) envelope.Extend(band);
  PhysicalPlan plan;
  {
    ScopedSpan span(trace, "plan", &ctx->io);
    plan = planner_->Plan(envelope,
                          planner_mode_.load(std::memory_order_relaxed));
    span.set_items(plan.predicted_candidates);
    span.set_detail(plan.reason);
  }
  const OperatorEnv env{index_.get(), ctx, trace};
  if (n == 1) {
    // The filter's count is the candidate count.
    EstimateOp estimate(bands[0], request.regions ? &out[0].region : nullptr,
                        &leader, /*count_candidates=*/false);
    FIELDDB_RETURN_IF_ERROR(ScanBand(plan.kind, bands[0], env, &leader, 1,
                                     /*count_candidates=*/true,
                                     /*fetch_detail=*/nullptr, estimate));
    FIELDDB_RETURN_IF_ERROR(estimate.status());
  } else {
    TraceScope span("scan.shared", "exec");
    span.set_items(n);
    // Demultiplexing visitor: each zone-matching cell of the envelope is
    // handed to every member whose band it meets (cell.Interval() IS the
    // zone entry), so each member counts exactly the candidates, answers
    // and pieces — in the storage order — that it would alone.
    std::vector<EstimateOp> members;
    members.reserve(n);
    for (size_t q = 0; q < n; ++q) {
      members.emplace_back(bands[q],
                           request.regions ? &out[q].region : nullptr,
                           &out[q].stats, /*count_candidates=*/true);
    }
    auto visit = [&](uint64_t pos, const CellRecord& cell) {
      const ValueInterval iv = cell.Interval();
      for (size_t q = 0; q < n; ++q) {
        if (iv.Intersects(bands[q]) && !members[q](pos, cell)) return false;
      }
      return true;
    };
    FIELDDB_RETURN_IF_ERROR(ScanBand(plan.kind, envelope, env, &leader, n,
                                     /*count_candidates=*/false,
                                     "shared_fetch", visit));
    for (const EstimateOp& member : members) {
      FIELDDB_RETURN_IF_ERROR(member.status());
    }
  }

  const double wall = SecondsSince(t0);
  DbMetrics::Get().query_wall_us->Record(wall * 1e6);
  // Leader-charged attribution: the sweep's I/O lands on member 0, the
  // riders report zero — so the members sum to exactly one sweep.
  leader.io = ctx->io;
  for (size_t q = 0; q < n; ++q) {
    out[q].stats.wall_seconds = wall;
    out[q].stats.index_fallbacks = leader.index_fallbacks;
    MaybeLogSlowQuery(bands[q], out[q].stats);
  }
  return Status::OK();
}

namespace {

double IntervalDistance(const ValueInterval& iv, double w) {
  if (w < iv.min) return iv.min - w;
  if (w > iv.max) return w - iv.max;
  return 0.0;
}

}  // namespace

Status FieldDatabase::NearestValueQuery(double w, size_t k,
                                        std::vector<NearestCell>* out) const {
  out->clear();
  if (std::isnan(w)) return Status::InvalidArgument("NaN target value");
  if (k == 0) return Status::OK();
  const RecordStore<CellRecord>& store = index_->cell_store().records();

  // Max-heap of the current k best (worst on top).
  const auto worse = [](const NearestCell& x, const NearestCell& y) {
    return x.distance < y.distance;
  };
  std::vector<NearestCell> best;
  const auto offer = [&](const CellRecord& cell) {
    const double d = IntervalDistance(cell.Interval(), w);
    if (best.size() < k) {
      best.push_back(NearestCell{cell.id, d, cell.Interval()});
      std::push_heap(best.begin(), best.end(), worse);
    } else if (d < best.front().distance) {
      std::pop_heap(best.begin(), best.end(), worse);
      best.back() = NearestCell{cell.id, d, cell.Interval()};
      std::push_heap(best.begin(), best.end(), worse);
    }
  };

  if (index_->method() == IndexMethod::kIAll) {
    const auto& tree =
        static_cast<const IAllIndex*>(index_.get())->tree();
    std::vector<RStarTree<1>::Neighbor> neighbors;
    FIELDDB_RETURN_IF_ERROR(tree.NearestNeighbors({w}, k, &neighbors));
    CellRecord cell;
    for (const auto& n : neighbors) {
      FIELDDB_RETURN_IF_ERROR(store.Get(n.entry.a, &cell));
      out->push_back(NearestCell{cell.id, std::sqrt(n.distance2),
                                 cell.Interval()});
    }
    return Status::OK();
  }

  if (const std::vector<Subfield>* sfs = subfields(); sfs != nullptr) {
    // Visit subfields in ascending interval distance; stop once the
    // next subfield cannot beat the current kth best.
    std::vector<std::pair<double, const Subfield*>> ordered;
    ordered.reserve(sfs->size());
    for (const Subfield& sf : *sfs) {
      ordered.emplace_back(IntervalDistance(sf.interval, w), &sf);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [dist, sf] : ordered) {
      if (best.size() == k && dist > best.front().distance) break;
      FIELDDB_RETURN_IF_ERROR(store.Scan(
          sf->start, sf->end, [&](uint64_t, const CellRecord& cell) {
            offer(cell);
            return true;
          }));
    }
  } else {
    FIELDDB_RETURN_IF_ERROR(
        store.Scan(0, store.size(), [&](uint64_t, const CellRecord& cell) {
          offer(cell);
          return true;
        }));
  }

  std::sort_heap(best.begin(), best.end(), worse);
  *out = std::move(best);
  return Status::OK();
}

Status FieldDatabase::IsolineQuery(double level,
                                   IsolineQueryResult* out) const {
  out->isoline.polylines.clear();
  out->stats = QueryStats{};
  if (std::isnan(level)) return Status::InvalidArgument("NaN isoline level");
  DbMetrics::Get().isoline_queries->Increment();
  QueryContext ctx;
  ScopedIoSink sink(&ctx.io);
  const auto t0 = Clock::now();

  const ValueInterval query{level, level};
  std::vector<IsoSegment> segments;
  Status inner = Status::OK();
  const auto visit_cell = [&](uint64_t, const CellRecord& cell) {
    StatusOr<size_t> added = CellIsolineSegments(cell, level, &segments);
    if (!added.ok()) {
      inner = added.status();
      return false;
    }
    if (*added > 0) ++out->stats.answer_cells;
    return true;
  };

  // The same cost-based plan selection as a value query, made with the
  // degenerate interval [level, level] (the zone test then is exactly
  // Contains).
  const PhysicalPlan plan =
      planner_->Plan(query, planner_mode_.load(std::memory_order_relaxed));
  FIELDDB_RETURN_IF_ERROR(ScanBand(plan.kind, query,
                                   OperatorEnv{index_.get(), &ctx, nullptr},
                                   &out->stats, 1, /*count_candidates=*/true,
                                   /*fetch_detail=*/nullptr, visit_cell));
  FIELDDB_RETURN_IF_ERROR(inner);
  out->isoline = AssembleIsoline(segments);
  out->stats.region_pieces = out->isoline.polylines.size();
  out->stats.wall_seconds = SecondsSince(t0);
  out->stats.io = ctx.io;
  return Status::OK();
}

Status FieldDatabase::ValidateUpdate(CellId id,
                                     const std::vector<double>& values) const {
  return index_->cell_store().CheckUpdate(id, SetSamples(values));
}

Status FieldDatabase::UpdateCellValues(CellId id,
                                       const std::vector<double>& values) {
  if (engine_.wal() != nullptr) {
    // Write-ahead: validate (so only appliable updates are logged),
    // log, make durable per the mode, then apply. A crash after Commit
    // re-applies the frame at the next Open; a crash before loses an
    // update that was never acknowledged.
    FIELDDB_RETURN_IF_ERROR(ValidateUpdate(id, values));
    FIELDDB_RETURN_IF_ERROR(engine_.LogUpdate(id, values));
  }
  FIELDDB_RETURN_IF_ERROR(index_->UpdateCellValues(id, values));
  // Conservatively widen the cached value range (exact shrinking would
  // need a full rescan; queries only use the range for normalization).
  for (const double w : values) value_range_.Extend(w);
  return Status::OK();
}

Status FieldDatabase::UpdateCellValuesBatch(
    const std::vector<CellUpdate>& updates) {
  for (const CellUpdate& u : updates) {
    FIELDDB_RETURN_IF_ERROR(ValidateUpdate(u.id, u.values));
  }
  if (engine_.wal() != nullptr) {
    // Group commit: every frame is appended, then one Commit makes the
    // whole batch durable (a single fsync in kFsyncOnCommit).
    for (const CellUpdate& u : updates) {
      FIELDDB_RETURN_IF_ERROR(engine_.wal()->AppendUpdate(u.id, u.values));
    }
    FIELDDB_RETURN_IF_ERROR(engine_.wal()->Commit());
  }
  for (const CellUpdate& u : updates) {
    FIELDDB_RETURN_IF_ERROR(index_->UpdateCellValues(u.id, u.values));
    for (const double w : u.values) value_range_.Extend(w);
  }
  return Status::OK();
}

StatusOr<double> FieldDatabase::PointQuery(Point2 p) const {
  DbMetrics::Get().point_queries->Increment();
  const RecordStore<CellRecord>& store = index_->cell_store().records();
  if (spatial_.has_value()) {
    StatusOr<double> result = Status::NotFound("point outside field domain");
    FIELDDB_RETURN_IF_ERROR(
        spatial_->Search(BoxFromPoint(p), [&](const RTreeEntry<2>& e) {
          CellRecord cell;
          const Status s = store.Get(e.a, &cell);
          if (!s.ok()) {
            result = s;
            return false;
          }
          if (CellContains(cell, p)) {
            result = InterpolateCell(cell, p);
            return false;  // first containing cell answers the query
          }
          return true;
        }));
    return result;
  }
  // No spatial index: scan.
  StatusOr<double> result = Status::NotFound("point outside field domain");
  FIELDDB_RETURN_IF_ERROR(
      store.Scan(0, store.size(), [&](uint64_t, const CellRecord& cell) {
        if (CellContains(cell, p)) {
          result = InterpolateCell(cell, p);
          return false;
        }
        return true;
      }));
  return result;
}

StatusOr<WorkloadStats> FieldDatabase::RunWorkload(
    const std::vector<ValueInterval>& queries, bool cold_cache) const {
  QueryContext ctx;  // one context reused: this loop is single-threaded
  ValueQueryResult result;
  return engine_.RunWorkload(
      queries.size(), cold_cache, [&](size_t i, QueryStats* stats) {
        const Status s = Query({.bands = {&queries[i], 1}, .regions = false},
                               {&result, 1}, &ctx);
        *stats = result.stats;
        return s;
      });
}

Status FieldDatabase::Scrub(ScrubReport* out) {
  *out = ScrubReport{};
  return engine_.ScrubPages(&out->pages_checked, &out->corrupt_pages);
}

Status FieldDatabase::Close() { return engine_.Close(); }

Status FieldDatabase::SimulateCrashForTest() {
  return engine_.SimulateCrashForTest();
}

const std::vector<Subfield>* FieldDatabase::subfields() const {
  if (index_->method() == IndexMethod::kIHilbert) {
    return &static_cast<const IHilbertIndex*>(index_.get())->subfields();
  }
  if (index_->method() == IndexMethod::kIntervalQuadtree) {
    return &static_cast<const IntervalQuadtreeIndex*>(index_.get())
                ->subfields();
  }
  return nullptr;
}

}  // namespace fielddb
