#ifndef FIELDDB_PLAN_OPERATORS_H_
#define FIELDDB_PLAN_OPERATORS_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/simd/interval_filter.h"
#include "common/status.h"
#include "core/query_context.h"
#include "core/stats.h"
#include "field/isoband.h"
#include "field/region.h"
#include "index/value_index.h"
#include "obs/trace.h"

namespace fielddb {

/// What every physical operator needs from the query that runs it: the
/// value index (and, through it, the clustered cell store), the
/// per-query scratch context whose IoStats is the live I/O sink, and an
/// optional trace — each operator reports itself as one span ("filter",
/// "fetch", "estimate") when `trace` is non-null.
struct OperatorEnv {
  const ValueIndex* index = nullptr;
  QueryContext* ctx = nullptr;
  QueryTrace* trace = nullptr;
};

/// FilterOp — the filtering step as an operator: runs
/// ValueIndex::FilterCandidateRanges under a "filter" span, reporting
/// the candidate count as the span's items and the run count as its
/// detail. Appends to `*ranges` (callers clear it for reuse). Returns
/// the index's status verbatim — kCorruption is the caller's cue to
/// degrade to FuseOp.
Status RunFilterOp(const OperatorEnv& env, const ValueInterval& query,
                   std::vector<PosRange>* ranges, uint64_t* candidates);

/// EstimateOp — the estimation step as a cell visitor: inverse
/// interpolation (CellIsoband) of each fetched cell into `region`, or
/// plain answer counting when `region` is null (stats-only queries).
/// With `count_candidates`, every visited cell is also counted as a
/// candidate — the fused scan has no filter step to provide that number
/// (the zone test inside the scan is exact, so visited == matching).
/// A failed interpolation parks its status here and stops the scan;
/// callers must check `status()` after the scan returns.
class EstimateOp {
 public:
  EstimateOp(const ValueInterval& query, Region* region, QueryStats* stats,
             bool count_candidates)
      : query_(query), region_(region), stats_(stats),
        count_candidates_(count_candidates) {}

  bool operator()(uint64_t pos, const CellRecord& cell) {
    (void)pos;
    if (count_candidates_) ++stats_->candidate_cells;
    if (region_ != nullptr) {
      StatusOr<size_t> pieces = CellIsoband(cell, query_, region_);
      if (!pieces.ok()) {
        status_ = pieces.status();
        return false;
      }
      if (*pieces > 0) {
        stats_->AddAnswerCell(query_.Contains(cell.Interval()), *pieces);
      }
    } else {
      stats_->AddAnswerCell(query_.Contains(cell.Interval()));
    }
    return true;
  }

  const Status& status() const { return status_; }

 private:
  ValueInterval query_;
  Region* region_;
  QueryStats* stats_;
  bool count_candidates_;
  Status status_;
};

namespace plan_internal {

/// Counts zone-filtered slots into the db.zonemap_cells_skipped metric
/// (out-of-line so the header does not pull in the metrics registry).
void AddZoneSkips(uint64_t skipped);

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace plan_internal

/// ScanOp — candidate retrieval as an operator: walks the given runs
/// through RecordStore::ScanRangesFiltered over the CellStore's pages
/// and zone map (readahead batches, zone-map slot filtering) feeding
/// each matching cell to `visit`, reported as a "fetch" span. On traced
/// runs the visitor's own work is timed per
/// cell, deducted from the fetch span, and reported as a separate
/// zero-I/O "estimate" span — the fetch span is then pure retrieval.
/// `stats->candidate_cells` must be final before the scan on indexed
/// plans (the span items are read from it after the walk, so fused
/// visitors that count candidates while scanning also report right).
///
/// Statically bound visitor (no std::function on the per-record path);
/// pass visitors whose state must survive — EstimateOp — as lvalues.
template <typename Visitor>
Status RunScanOp(const OperatorEnv& env, const ValueInterval& query,
                 const PosRange* ranges, size_t num_ranges,
                 const char* fetch_detail, QueryStats* stats,
                 Visitor&& visit) {
  double est_seconds = 0.0;
  uint64_t skipped = 0;
  Status scan;
  {
    ScopedSpan fetch(env.trace, "fetch", &env.ctx->io);
    const CellStore& store = env.index->cell_store();
    if (env.trace == nullptr) {
      scan = store.records().ScanRangesFiltered(
          ranges, num_ranges, store.zone_map(), query, &skipped, visit);
    } else {
      scan = store.records().ScanRangesFiltered(
          ranges, num_ranges, store.zone_map(), query, &skipped,
          [&](uint64_t pos, const CellRecord& cell) {
            const auto t0 = std::chrono::steady_clock::now();
            const bool keep_going = visit(pos, cell);
            est_seconds += plan_internal::SecondsSince(t0);
            return keep_going;
          });
    }
    fetch.set_items(stats->candidate_cells);
    if (fetch_detail != nullptr) fetch.set_detail(fetch_detail);
    fetch.DeductWallSeconds(est_seconds);
  }
  FIELDDB_RETURN_IF_ERROR(scan);
  plan_internal::AddZoneSkips(skipped);
  if (env.trace != nullptr) {
    TraceSpan span;
    span.name = "estimate";
    span.wall_seconds = est_seconds;
    span.items = stats->answer_cells;
    env.trace->AddSpan(std::move(span));
  }
  return Status::OK();
}

/// FuseOp — the single-pass scan-and-estimate plan (the paper's
/// LinearScan execution): ScanOp over the whole store as one run, with
/// estimation fused into the pass. Also the degraded path when the
/// filter hits a corrupt index page — the store holds the truth, the
/// index is only an accelerator.
template <typename Visitor>
Status RunFuseOp(const OperatorEnv& env, const ValueInterval& query,
                 QueryStats* stats, Visitor&& visit) {
  const PosRange whole{0, env.index->cell_store().size()};
  return RunScanOp(env, query, &whole, 1, "full_scan", stats,
                   std::forward<Visitor>(visit));
}

}  // namespace fielddb

#endif  // FIELDDB_PLAN_OPERATORS_H_
