#include "core/field_database.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "field/interpolation.h"
#include "field/isoband.h"
#include "obs/json.h"
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
                               const OperatorEnv& env,
                               std::span<QueryStats> members,
                               bool count_candidates,
                               const char* fetch_detail,
                               Visitor& visit) const {
  QueryStats* const leader = &members[0];
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
    // results. Counted and logged once (one scan fell back), reported
    // by every member. Nothing was visited yet, so there is nothing to
    // undo.
    index_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    DbMetrics::Get().index_fallbacks->Increment();
    EventLog::Event event("corruption_fallback");
    event.Add("query_min", band.min).Add("query_max", band.max);
    if (members.size() > 1) {
      event.Add("shared_members", static_cast<uint64_t>(members.size()));
    }
    engine_.LogEvent(event.Add("error", filter.ToString()));
    for (QueryStats& member : members) member.index_fallbacks = 1;
    return scan_all();
  }
  FIELDDB_RETURN_IF_ERROR(filter);
  if (count_candidates) leader->candidate_cells = candidates;
  return RunScanOp(env, band, ranges.data(), ranges.size(), fetch_detail,
                   leader, visit);
}

Status FieldDatabase::AnswerValueQuery(const ValueInterval& query,
                                       Region* region, QueryStats* stats,
                                       QueryContext* ctx,
                                       QueryTrace* trace) const {
  // Cost-based access-path selection, reported as its own span (no page
  // I/O: the probe reads only the subfield table or the in-memory
  // zone-map sidecar).
  PhysicalPlan plan;
  {
    ScopedSpan span(trace, "plan", &ctx->io);
    plan = planner_->Plan(query,
                          planner_mode_.load(std::memory_order_relaxed));
    span.set_items(plan.predicted_candidates);
    span.set_detail(plan.reason);
  }
  EstimateOp estimate(query, region, stats, /*count_candidates=*/false);
  FIELDDB_RETURN_IF_ERROR(ScanBand(plan.kind, query,
                                   OperatorEnv{index_.get(), ctx, trace},
                                   {stats, 1}, /*count_candidates=*/true,
                                   /*fetch_detail=*/nullptr, estimate));
  return estimate.status();
}

Status FieldDatabase::RunValueQuery(const ValueInterval& query,
                                    Region* region, QueryStats* stats,
                                    QueryContext* ctx, bool traced) const {
  if (query.IsEmpty()) {
    return Status::InvalidArgument("empty query interval");
  }
  QueryContext local;
  if (ctx == nullptr) ctx = &local;
  if (region != nullptr) region->pieces.clear();
  *stats = QueryStats{};
  if (traced) stats->trace = std::make_shared<QueryTrace>();
  DbMetrics::Get().value_queries->Increment();
  ctx->io.Reset();
  ScopedIoSink sink(&ctx->io);
  const auto t0 = Clock::now();

  FIELDDB_RETURN_IF_ERROR(
      AnswerValueQuery(query, region, stats, ctx, stats->trace.get()));

  stats->wall_seconds = SecondsSince(t0);
  stats->io = ctx->io;
  DbMetrics::Get().query_wall_us->Record(stats->wall_seconds * 1e6);
  MaybeLogSlowQuery(query, *stats);
  return Status::OK();
}

Status FieldDatabase::ValueQuery(const ValueInterval& query,
                                 ValueQueryResult* out,
                                 QueryContext* ctx) const {
  return RunValueQuery(query, &out->region, &out->stats, ctx,
                       /*traced=*/false);
}

Status FieldDatabase::ValueQueryStats(const ValueInterval& query,
                                      QueryStats* out,
                                      QueryContext* ctx) const {
  return RunValueQuery(query, nullptr, out, ctx, /*traced=*/false);
}

Status FieldDatabase::TracedValueQueryStats(const ValueInterval& query,
                                            QueryStats* out,
                                            QueryContext* ctx) const {
  return RunValueQuery(query, nullptr, out, ctx, /*traced=*/true);
}

Status FieldDatabase::AnswerShared(const std::vector<ValueInterval>& queries,
                                   std::vector<Region>* regions,
                                   std::vector<QueryStats>* stats,
                                   QueryContext* ctx) const {
  const size_t n = queries.size();
  // The members' hull is the sweep's predicate: every cell matching any
  // member matches the envelope, so one envelope pass sees them all.
  ValueInterval envelope;  // default = Hull identity
  for (const ValueInterval& q : queries) envelope.Extend(q);

  TraceScope span("scan.shared", "exec");
  span.set_items(n);

  const PhysicalPlan plan = planner_->Plan(
      envelope, planner_mode_.load(std::memory_order_relaxed));

  // Demultiplexing visitor: each zone-matching cell of the envelope is
  // tested against every member exactly (cell.Interval() IS the zone
  // entry), so per-member candidate/answer counts — and the member's
  // Region, built in the same storage order a lone query would visit —
  // are bit-identical to isolated execution.
  Status estimate_status;
  auto visit = [&](uint64_t pos, const CellRecord& cell) {
    (void)pos;
    const ValueInterval iv = cell.Interval();
    for (size_t q = 0; q < n; ++q) {
      if (!iv.Intersects(queries[q])) continue;
      ++(*stats)[q].candidate_cells;
      if (regions != nullptr) {
        StatusOr<size_t> pieces =
            CellIsoband(cell, queries[q], &(*regions)[q]);
        if (!pieces.ok()) {
          estimate_status = pieces.status();
          return false;
        }
        if (*pieces > 0) {
          (*stats)[q].AddAnswerCell(queries[q].Contains(iv), *pieces);
        }
      } else {
        (*stats)[q].AddAnswerCell(queries[q].Contains(iv));
      }
    }
    return true;
  };

  // The visitor counts each member's candidates itself.
  FIELDDB_RETURN_IF_ERROR(ScanBand(plan.kind, envelope,
                                   OperatorEnv{index_.get(), ctx, nullptr},
                                   *stats, /*count_candidates=*/false,
                                   "shared_fetch", visit));
  return estimate_status;
}

Status FieldDatabase::RunShared(const std::vector<ValueInterval>& queries,
                                std::vector<Region>* regions,
                                std::vector<QueryStats>* stats,
                                QueryContext* ctx) const {
  for (const ValueInterval& q : queries) {
    if (q.IsEmpty()) return Status::InvalidArgument("empty query interval");
  }
  const size_t n = queries.size();
  if (regions != nullptr) regions->assign(n, Region{});
  stats->assign(n, QueryStats{});
  if (n == 0) return Status::OK();
  if (n == 1) {
    return RunValueQuery(queries[0],
                         regions != nullptr ? &(*regions)[0] : nullptr,
                         &(*stats)[0], ctx, /*traced=*/false);
  }
  QueryContext local;
  if (ctx == nullptr) ctx = &local;
  DbMetrics::Get().value_queries->Increment(n);
  ctx->io.Reset();
  ScopedIoSink sink(&ctx->io);
  const auto t0 = Clock::now();

  FIELDDB_RETURN_IF_ERROR(AnswerShared(queries, regions, stats, ctx));

  const double wall = SecondsSince(t0);
  DbMetrics::Get().query_wall_us->Record(wall * 1e6);
  for (size_t q = 0; q < n; ++q) {
    (*stats)[q].wall_seconds = wall;
    // Leader-charged attribution: the sweep's I/O lands on member 0,
    // the riders report zero — so the members sum to exactly one sweep.
    if (q == 0) (*stats)[q].io = ctx->io;
    MaybeLogSlowQuery(queries[q], (*stats)[q]);
  }
  return Status::OK();
}

Status FieldDatabase::SharedValueQueryStats(
    const std::vector<ValueInterval>& queries, std::vector<QueryStats>* out,
    QueryContext* ctx) const {
  return RunShared(queries, nullptr, out, ctx);
}

Status FieldDatabase::SharedValueQuery(
    const std::vector<ValueInterval>& queries,
    std::vector<ValueQueryResult>* out, QueryContext* ctx) const {
  std::vector<Region> regions;
  std::vector<QueryStats> stats;
  FIELDDB_RETURN_IF_ERROR(RunShared(queries, &regions, &stats, ctx));
  out->assign(queries.size(), ValueQueryResult{});
  for (size_t q = 0; q < queries.size(); ++q) {
    (*out)[q].region = std::move(regions[q]);
    (*out)[q].stats = std::move(stats[q]);
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
                                   {&out->stats, 1}, /*count_candidates=*/true,
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
  return engine_.RunWorkload(
      queries.size(), cold_cache, [&](size_t i, QueryStats* stats) {
        return ValueQueryStats(queries[i], stats, &ctx);
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

Status FieldDatabase::ExplainValueQuery(const ValueInterval& query,
                                        ExplainResult* out) const {
  // Stamp the database's identity before validating anything: an early
  // return must not leave a default-constructed result whose method
  // (kLinearScan, the struct default) misreports the database.
  *out = ExplainResult{};
  out->method = index_->method();
  out->query = query;
  out->rtree_height = index_->build_info().tree_height;
  if (query.IsEmpty()) {
    return Status::InvalidArgument("empty query interval");
  }

  // The decision the traced run below will make, captured up front for
  // the report (planning is deterministic, so this is the same plan).
  const PhysicalPlan plan = PlanValueQuery(query);
  out->chosen_plan = plan.kind;
  out->predicted_cost_ms = plan.predicted_cost_ms;
  out->predicted_scan_cost_ms = plan.scan_cost_ms;
  out->predicted_index_cost_ms = plan.index_cost_ms;
  out->planner_reason = plan.reason;

  // EXPLAIN forces metrics on so the R*-tree descent profile is
  // recorded even when the process runs with recording disabled.
  const bool prev_enabled = MetricsRegistry::enabled();
  MetricsRegistry::set_enabled(true);
  Counter* const node_visits =
      MetricsRegistry::Default().GetCounter("rtree.node_visits");
  const uint64_t visits_before = node_visits->value();

  const Status run = [&]() -> Status {
    // Cold start, so the physical-read pattern (and its disk-model cost)
    // reflects the query itself rather than the pool's history.
    FIELDDB_RETURN_IF_ERROR(engine_.pool()->Clear());
    return TracedValueQueryStats(query, &out->stats);
  }();
  out->rtree_nodes_visited = node_visits->value() - visits_before;
  MetricsRegistry::set_enabled(prev_enabled);
  FIELDDB_RETURN_IF_ERROR(run);

  if (out->stats.candidate_cells > 0) {
    out->false_positive_ratio =
        static_cast<double>(out->stats.candidate_cells -
                            out->stats.answer_cells) /
        static_cast<double>(out->stats.candidate_cells);
  }
  out->est_disk_ms = DiskModel{}.EstimateMs(out->stats.io.sequential_reads,
                                            out->stats.io.random_reads());

  // Annotate the touched subfields. This is a post-pass (the query's
  // stats are already captured, so these store reads don't pollute it),
  // skipped when the executed plan never consulted the subfield table:
  // after a corruption fallback, and when the planner chose the fused
  // scan (the filter step didn't run).
  const std::vector<Subfield>* sfs = subfields();
  if (sfs != nullptr && out->stats.index_fallbacks == 0 &&
      out->chosen_plan == PlanKind::kIndexedFilter) {
    const CellStore& store = index_->cell_store();
    for (uint32_t id = 0; id < sfs->size(); ++id) {
      const Subfield& sf = (*sfs)[id];
      if (!sf.interval.Intersects(query)) continue;
      ExplainSubfield esf;
      esf.id = id;
      esf.start = sf.start;
      esf.end = sf.end;
      esf.interval = sf.interval;
      esf.cells = sf.end - sf.start;
      FIELDDB_RETURN_IF_ERROR(store.records().Scan(
          sf.start, sf.end, [&](uint64_t, const CellRecord& cell) {
            if (cell.Interval().Intersects(query)) ++esf.matching_cells;
            return true;
          }));
      out->subfields.push_back(esf);
    }
  }
  return Status::OK();
}

std::string FieldDatabase::ExplainResult::ToString() const {
  std::string s;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "EXPLAIN value query [%.6g, %.6g] method=%s\n", query.min,
                query.max, IndexMethodName(method));
  s += buf;
  std::snprintf(buf, sizeof(buf),
                "  wall_ms=%.3f candidates=%llu answers=%llu "
                "(inside=%llu cut=%llu) false_positive_ratio=%.4f\n",
                stats.wall_seconds * 1000.0,
                static_cast<unsigned long long>(stats.candidate_cells),
                static_cast<unsigned long long>(stats.answer_cells),
                static_cast<unsigned long long>(stats.inside_cells),
                static_cast<unsigned long long>(stats.answer_cells -
                                                stats.inside_cells),
                false_positive_ratio);
  s += buf;
  std::snprintf(buf, sizeof(buf),
                "  io: logical=%llu physical=%llu sequential=%llu "
                "random=%llu  est_disk_ms=%.2f\n",
                static_cast<unsigned long long>(stats.io.logical_reads),
                static_cast<unsigned long long>(stats.io.physical_reads),
                static_cast<unsigned long long>(stats.io.sequential_reads),
                static_cast<unsigned long long>(stats.io.random_reads()),
                est_disk_ms);
  s += buf;
  std::snprintf(buf, sizeof(buf), "  rtree: height=%u nodes_visited=%llu\n",
                rtree_height,
                static_cast<unsigned long long>(rtree_nodes_visited));
  s += buf;
  std::snprintf(buf, sizeof(buf),
                "  plan: %s predicted_ms=%.2f (scan=%.2f index=%.2f)\n",
                PlanKindName(chosen_plan), predicted_cost_ms,
                predicted_scan_cost_ms, predicted_index_cost_ms);
  s += buf;
  if (!planner_reason.empty()) {
    s += "    " + planner_reason + "\n";
  }
  if (stats.index_fallbacks > 0) {
    s += "  DEGRADED: corrupt index page; answered by full store scan\n";
  }
  if (!subfields.empty()) {
    std::snprintf(buf, sizeof(buf), "  subfields touched: %zu\n",
                  subfields.size());
    s += buf;
    for (const ExplainSubfield& sf : subfields) {
      std::snprintf(buf, sizeof(buf),
                    "    id=%u store=[%llu,%llu) cells=%llu matching=%llu "
                    "interval=[%.6g,%.6g]\n",
                    sf.id, static_cast<unsigned long long>(sf.start),
                    static_cast<unsigned long long>(sf.end),
                    static_cast<unsigned long long>(sf.cells),
                    static_cast<unsigned long long>(sf.matching_cells),
                    sf.interval.min, sf.interval.max);
      s += buf;
    }
  }
  if (stats.trace != nullptr) {
    s += "  phases:\n";
    // Indent the trace tree under this header.
    const std::string tree = stats.trace->ToString();
    size_t start = 0;
    while (start < tree.size()) {
      size_t nl = tree.find('\n', start);
      if (nl == std::string::npos) nl = tree.size();
      s += "    ";
      s.append(tree, start, nl - start);
      s += '\n';
      start = nl + 1;
    }
  }
  return s;
}

std::string FieldDatabase::ExplainResult::ToJson() const {
  std::string s = "{\"method\":";
  JsonAppendString(&s, IndexMethodName(method));
  s += ",\"query\":{\"min\":";
  JsonAppendDouble(&s, query.min);
  s += ",\"max\":";
  JsonAppendDouble(&s, query.max);
  s += "},\"wall_ms\":";
  JsonAppendDouble(&s, stats.wall_seconds * 1000.0);
  s += ",\"candidate_cells\":" + std::to_string(stats.candidate_cells);
  s += ",\"answer_cells\":" + std::to_string(stats.answer_cells);
  s += ",\"inside_cells\":" + std::to_string(stats.inside_cells);
  s += ",\"cut_cells\":" +
       std::to_string(stats.answer_cells - stats.inside_cells);
  s += ",\"index_fallbacks\":" + std::to_string(stats.index_fallbacks);
  s += ",\"false_positive_ratio\":";
  JsonAppendDouble(&s, false_positive_ratio);
  s += ",\"io\":{\"logical_reads\":" +
       std::to_string(stats.io.logical_reads) +
       ",\"physical_reads\":" + std::to_string(stats.io.physical_reads) +
       ",\"sequential_reads\":" + std::to_string(stats.io.sequential_reads) +
       ",\"random_reads\":" + std::to_string(stats.io.random_reads()) + "}";
  s += ",\"est_disk_ms\":";
  JsonAppendDouble(&s, est_disk_ms);
  s += ",\"plan\":{\"chosen\":";
  JsonAppendString(&s, PlanKindName(chosen_plan));
  s += ",\"predicted_cost_ms\":";
  JsonAppendDouble(&s, predicted_cost_ms);
  s += ",\"scan_cost_ms\":";
  JsonAppendDouble(&s, predicted_scan_cost_ms);
  s += ",\"index_cost_ms\":";
  JsonAppendDouble(&s, predicted_index_cost_ms);
  s += ",\"reason\":";
  JsonAppendString(&s, planner_reason);
  s += "}";
  s += ",\"rtree\":{\"height\":" + std::to_string(rtree_height) +
       ",\"nodes_visited\":" + std::to_string(rtree_nodes_visited) + "}";
  s += ",\"subfields\":[";
  for (size_t i = 0; i < subfields.size(); ++i) {
    const ExplainSubfield& sf = subfields[i];
    if (i > 0) s += ',';
    s += "{\"id\":" + std::to_string(sf.id) +
         ",\"start\":" + std::to_string(sf.start) +
         ",\"end\":" + std::to_string(sf.end) +
         ",\"cells\":" + std::to_string(sf.cells) +
         ",\"matching_cells\":" + std::to_string(sf.matching_cells) +
         ",\"interval\":{\"min\":";
    JsonAppendDouble(&s, sf.interval.min);
    s += ",\"max\":";
    JsonAppendDouble(&s, sf.interval.max);
    s += "}}";
  }
  s += "]";
  if (stats.trace != nullptr) {
    s += ",\"trace\":" + stats.trace->ToJson();
  }
  s += "}";
  return s;
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
