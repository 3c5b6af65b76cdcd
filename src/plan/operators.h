#ifndef FIELDDB_PLAN_OPERATORS_H_
#define FIELDDB_PLAN_OPERATORS_H_

#include <cstdint>
#include <utility>

#include "common/simd/interval_filter.h"
#include "common/status.h"
#include "core/field_engine.h"
#include "core/query_context.h"
#include "core/stats.h"
#include "field/isoband.h"
#include "field/region.h"
#include "index/value_index.h"
#include "obs/trace.h"

namespace fielddb {

/// What the grid's physical operators need from the query that runs
/// them: the value index (and, through it, the clustered cell store),
/// the per-query scratch context and an optional trace. The spans read
/// the I/O of the calling thread's sink, so a traced replay installs
/// `ctx->io` with a ScopedIoSink first. Kept for the external benchmark
/// program, which replays the operators one by one (RunScanOp,
/// RunFuseOp).
struct OperatorEnv {
  const ValueIndex* index = nullptr;
  QueryContext* ctx = nullptr;
  QueryTrace* trace = nullptr;
};

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

/// ScanStoreRuns over the grid's cell store, fetching the pages that
/// hold a zone match as a database's default band scan does. Kept for
/// the external benchmark program only, which replays a query's scan on
/// its own; the library's queries scan through FieldEngine::BandScan.
template <typename Visitor>
Status RunScanOp(const OperatorEnv& env, const ValueInterval& query,
                 const PosRange* ranges, size_t num_ranges,
                 const char* fetch_detail, QueryStats* stats,
                 Visitor&& visit) {
  return ScanStoreRuns(env.index->cell_store(), query, ranges, num_ranges,
                       env.trace, fetch_detail, stats,
                       /*read_whole_runs=*/false,
                       std::forward<Visitor>(visit));
}

/// The fused scan (every cell as one run) of the grid's cell store.
/// Kept for the external benchmark program only, like RunScanOp.
template <typename Visitor>
Status RunFuseOp(const OperatorEnv& env, const ValueInterval& query,
                 QueryStats* stats, Visitor&& visit) {
  const PosRange whole{0, env.index->cell_store().size()};
  return RunScanOp(env, query, &whole, 1, "full_scan", stats,
                   std::forward<Visitor>(visit));
}

}  // namespace fielddb

#endif  // FIELDDB_PLAN_OPERATORS_H_
