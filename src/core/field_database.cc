#include "core/field_database.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "field/interpolation.h"
#include "field/isoband.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/operators.h"

namespace fielddb {

namespace {

/// Facade-level instruments. Looked up once; the registry keeps the
/// pointers stable for the process lifetime. The engine's db.* counters
/// are registered in the middle, where FieldEngine::RegisterMetrics
/// says they must stay (the registration order moves terrain_warm's
/// peak RSS).
struct DbMetrics {
  Counter* value_queries;
  Counter* isoline_queries;
  Counter* point_queries;
  Histogram* query_wall_us;

  static const DbMetrics& Get() {
    static const DbMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Default();
      DbMetrics db{reg.GetCounter("db.value_queries"),
                   reg.GetCounter("db.isoline_queries"),
                   reg.GetCounter("db.point_queries"), nullptr};
      FieldEngine::RegisterMetrics();
      db.query_wall_us = reg.GetHistogram("db.query_wall_us");
      return db;
    }();
    return m;
  }
};

/// Fills a grid band scan's corruption_fallback event: the band (a
/// shared sweep's envelope) and, for a sweep, its member count.
auto DescribeBand(const ValueInterval& band, size_t members) {
  return [&band, members](EventLog::Event* event) {
    event->Add("query_min", band.min).Add("query_max", band.max);
    if (members > 1) {
      event->Add("shared_members", static_cast<uint64_t>(members));
    }
  };
}

}  // namespace

// Best-effort close of the WAL and pool lives in ~FieldEngine.
FieldDatabase::~FieldDatabase() = default;

StatusOr<std::unique_ptr<FieldDatabase>> FieldDatabase::Build(
    const Field& field, const FieldDatabaseOptions& options) {
  auto db = std::unique_ptr<FieldDatabase>(new FieldDatabase());
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForBuild(options));
  BufferPool* const pool = db->engine_.pool();
  db->value_range_ = field.ValueRange();
  db->domain_ = field.Domain();

  StatusOr<std::unique_ptr<ValueIndex>> index =
      ValueIndex::Build(options.method, pool, field, options.ihilbert,
                        options.iqt, options.build_memory_budget_bytes);
  if (!index.ok()) return index.status();
  db->index_ = std::move(index).value();

  if (options.build_spatial_index && db->lattice() == nullptr) {
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
  db->InitPlanner();
  FIELDDB_RETURN_IF_ERROR(db->engine_.FinishBuild(options));
  return db;
}

Status FieldDatabase::AttachEventLog(const std::string& path,
                                     double slow_query_threshold_ms) {
  return engine_.AttachEventLog(path, slow_query_threshold_ms);
}

void FieldDatabase::InitPlanner() {
  planner_ = std::make_unique<QueryPlanner>(index_.get());
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
  if (bands.empty()) return Status::OK();
  DbMetrics::Get().value_queries->Increment(bands.size());

  // One group's sweep; `group` lists its members in request order.
  const auto sweep = [&](std::span<const size_t> group,
                         const ValueInterval& envelope) -> Status {
    const size_t n = group.size();
    QueryStats& leader = out[group[0]].stats;
    if (request.trace) leader.trace = std::make_shared<QueryTrace>();
    QueryTrace* const trace = leader.trace.get();
    PhysicalPlan plan;
    FIELDDB_RETURN_IF_ERROR(FieldEngine::MeasureQuery(
        ctx, &leader, [&](QueryContext* ctx) -> Status {
          // Cost-based access-path selection, reported as its own span
          // (no page I/O: the probe reads only the subfield table or the
          // in-memory zone-map sidecar).
          {
            ScopedSpan span("plan", "plan", trace);
            plan = planner_->Plan(envelope, planner_mode());
            span.set_items(plan.predicted_candidates);
            span.set_detail(plan.reason);
          }
          BandScanSpec spec{.plan = plan.kind,
                            .ctx = ctx,
                            .trace = trace,
                            .stats = &leader,
                            .describe = DescribeBand(envelope, n)};
          const auto search = [&](std::vector<PosRange>* runs) {
            return index_->FilterCandidateRanges(envelope, runs);
          };
          const CellStore& store = index_->cell_store();
          if (n == 1) {
            // The filter's count is the candidate count.
            EstimateOp estimate(
                bands[group[0]],
                request.regions ? &out[group[0]].region : nullptr, &leader,
                /*count_candidates=*/false);
            FIELDDB_RETURN_IF_ERROR(
                engine_.BandScan(store, envelope, spec, search, estimate));
            return estimate.status();
          }
          ScopedSpan span("scan.shared", "exec");
          span.set_items(n);
          // Demultiplexing visitor: each zone-matching cell of the
          // envelope is handed to every member whose band it meets
          // (cell.Interval() IS the zone entry), so each member counts
          // exactly the candidates, answers and pieces — in the storage
          // order — that it would alone.
          std::vector<EstimateOp> members;
          members.reserve(n);
          for (const size_t q : group) {
            members.emplace_back(bands[q],
                                 request.regions ? &out[q].region : nullptr,
                                 &out[q].stats, /*count_candidates=*/true);
          }
          auto visit = [&](uint64_t pos, const CellRecord& cell) {
            const ValueInterval iv = cell.Interval();
            for (size_t j = 0; j < n; ++j) {
              if (iv.Intersects(bands[group[j]]) && !members[j](pos, cell)) {
                return false;
              }
            }
            return true;
          };
          spec.count_candidates = false;
          spec.fetch_detail = "shared_fetch";
          FIELDDB_RETURN_IF_ERROR(
              engine_.BandScan(store, envelope, spec, search, visit));
          for (const EstimateOp& member : members) {
            FIELDDB_RETURN_IF_ERROR(member.status());
          }
          return Status::OK();
        }));

    // Leader-charged attribution: the sweep's I/O lands on the leader,
    // the other members report zero — so the members sum to exactly one
    // sweep. Every member waited for the sweep and ran its plan.
    for (const size_t q : group) {
      ValueQueryResult& member = out[q];
      member.stats.wall_seconds = leader.wall_seconds;
      member.stats.index_fallbacks = leader.index_fallbacks;
      member.plan = plan;
      DbMetrics::Get().query_wall_us->Record(leader.wall_seconds * 1e6);
      engine_.MaybeLogSlowQuery(member.stats, [&](EventLog::Event* event) {
        event->Add("query_min", bands[q].min).Add("query_max", bands[q].max);
        return member.plan;
      });
    }
    return Status::OK();
  };

  // The sweep rule (DESIGN.md §17): in order of `min`, a band joins the
  // current group when it meets the group's envelope, so the groups are
  // the connected components of "these bands overlap".
  std::vector<size_t> order(bands.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return bands[a].min < bands[b].min;
  });
  for (size_t begin = 0, end = 1; begin < order.size(); begin = end++) {
    ValueInterval envelope = bands[order[begin]];
    while (end < order.size() && envelope.Intersects(bands[order[end]])) {
      envelope.Extend(bands[order[end++]]);
    }
    const std::span<size_t> group(order.data() + begin, end - begin);
    std::sort(group.begin(), group.end());  // request order
    FIELDDB_RETURN_IF_ERROR(sweep(group, envelope));
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
  const CellStore::Records& store = index_->cell_store().records();

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
    std::vector<RStarTree<1>::Neighbor> neighbors;
    FIELDDB_RETURN_IF_ERROR(
        index_->tree()->NearestNeighbors({w}, k, &neighbors));
    CellRecord cell;
    for (const auto& n : neighbors) {
      FIELDDB_RETURN_IF_ERROR(store.Get(n.entry.a, &cell));
      out->push_back(NearestCell{cell.id, std::sqrt(n.distance2),
                                 cell.Interval()});
    }
    return Status::OK();
  }

  if (const std::vector<Subfield>* sfs = index_->subfields()) {
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
  FIELDDB_RETURN_IF_ERROR(FieldEngine::MeasureQuery(
      nullptr, &out->stats, [&](QueryContext* ctx) -> Status {
        // The same cost-based plan selection as a value query, made with
        // the degenerate interval [level, level] (the zone test then is
        // exactly Contains).
        const BandScanSpec spec{.plan = PlanValueQuery(query).kind,
                                .ctx = ctx,
                                .stats = &out->stats,
                                .describe = DescribeBand(query, 1)};
        FIELDDB_RETURN_IF_ERROR(engine_.BandScan(
            index_->cell_store(), query, spec,
            [&](std::vector<PosRange>* runs) {
              return index_->FilterCandidateRanges(query, runs);
            },
            visit_cell));
        FIELDDB_RETURN_IF_ERROR(inner);
        out->isoline = AssembleIsoline(segments);
        out->stats.region_pieces = out->isoline.polylines.size();
        return Status::OK();
      }));
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
  const CellStore& cells = index_->cell_store();
  const CellStore::Records& store = cells.records();
  std::optional<Rect2> lattice_cell;  // p's cell, on a lattice
  if (const GridLattice* lattice = this->lattice()) {
    StatusOr<uint32_t> g = lattice->FindCell(p);
    if (!g.ok()) return g.status();
    lattice_cell = lattice->CellRect(*g);
    // A grid's cell ids are its lattice ids. A shard's are not (the
    // router reads shards through its own id map): when the slot of id
    // g holds another lattice cell, the scan below looks for p's.
    if (*g < cells.size()) {
      CellRecord cell;
      FIELDDB_RETURN_IF_ERROR(store.Get(cells.PositionOf(*g), &cell));
      if (cell.Bounds() == *lattice_cell) return InterpolateCell(cell, p);
    }
  } else if (spatial_.has_value()) {
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
  // No spatial index, or a shard's lattice cell: scan.
  StatusOr<double> result = Status::NotFound("point outside field domain");
  FIELDDB_RETURN_IF_ERROR(
      store.Scan(0, store.size(), [&](uint64_t, const CellRecord& cell) {
        if (lattice_cell ? cell.Bounds() == *lattice_cell
                         : CellContains(cell, p)) {
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

}  // namespace fielddb
