#ifndef FIELDDB_CORE_STATS_H_
#define FIELDDB_CORE_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "plan/cost_model.h"  // DiskModel's home since the planner refactor
#include "storage/io_stats.h"

namespace fielddb {

class QueryTrace;

/// Per-query measurements — everything needed to reproduce the paper's
/// curves and to diagnose them (the figures plot wall time; page counts
/// explain the shapes).
struct QueryStats {
  double wall_seconds = 0.0;
  /// Candidates returned by the filtering step (includes subfield false
  /// positives).
  uint64_t candidate_cells = 0;
  /// Candidates that actually contributed answer regions.
  uint64_t answer_cells = 0;
  /// Answer cells whose value interval lies inside the closed band (for
  /// a vector cell, each component inside its band), so the whole cell
  /// is answer. The band cuts the other answer_cells - inside_cells.
  uint64_t inside_cells = 0;
  uint64_t region_pieces = 0;
  /// 1 when the filtering step hit a corrupt index page and the query
  /// was answered by a full store scan instead (degraded mode).
  uint64_t index_fallbacks = 0;
  IoStats io;  // page traffic attributable to this query
  /// Per-phase spans (obs/trace.h) when the query ran traced (EXPLAIN
  /// or a QueryRequest with `trace`); null on the plain query path.
  std::shared_ptr<QueryTrace> trace;

  /// Books one answer cell of the estimation step: an inside cell when
  /// `inside`, and the `pieces` it added to the answer region (none on
  /// the counting path, which builds no region). The region path books
  /// only cells that yielded pieces.
  void AddAnswerCell(bool inside, size_t pieces = 0) {
    ++answer_cells;
    inside_cells += inside;
    region_pieces += pieces;
  }

  void Accumulate(const QueryStats& q) {
    wall_seconds += q.wall_seconds;
    candidate_cells += q.candidate_cells;
    answer_cells += q.answer_cells;
    inside_cells += q.inside_cells;
    region_pieces += q.region_pieces;
    index_fallbacks += q.index_fallbacks;
    io += q.io;  // IoStats::operator+= keeps every counter in the rollup
  }
};

/// Nearest-rank percentile of an ascending-sorted sample vector;
/// `p` in [0, 100]. 0 for an empty vector.
double PercentileOfSorted(const std::vector<double>& sorted, double p);

/// Averages (plus wall-time distribution) over a query workload — one
/// point on a paper figure, or one `BENCH_*.json` point.
struct WorkloadStats {
  uint32_t num_queries = 0;
  double avg_wall_ms = 0.0;
  /// Wall-time distribution across the workload's queries (exact
  /// nearest-rank percentiles, not bucketized).
  double p50_wall_ms = 0.0;
  double p90_wall_ms = 0.0;
  double p99_wall_ms = 0.0;
  double max_wall_ms = 0.0;
  double avg_candidates = 0.0;
  double avg_answer_cells = 0.0;
  double avg_logical_reads = 0.0;
  double avg_physical_reads = 0.0;
  double avg_sequential_reads = 0.0;
  double avg_random_reads = 0.0;
  /// Robustness signals, averaged per query: degraded-mode full scans,
  /// transient read faults absorbed by retry, and reads that failed for
  /// good. All 0 on a healthy run — nonzero values mean the wall-time
  /// averages describe a degraded system and must not be compared
  /// against healthy baselines.
  double avg_index_fallbacks = 0.0;
  double avg_read_retries = 0.0;
  double avg_failed_reads = 0.0;

  /// Average per-query I/O time under `model` — wall time plus this is
  /// what the figures' disk-bound shapes reflect.
  double AvgDiskMs(const DiskModel& model = {}) const {
    return model.EstimateMs(
        static_cast<uint64_t>(avg_sequential_reads * num_queries),
        static_cast<uint64_t>(avg_random_reads * num_queries)) /
           std::max(1u, num_queries);
  }

  std::string ToString() const;
};

/// Fills every aggregate field of `out` — the averages and the
/// wall-time percentiles — from accumulated per-query totals and the
/// raw wall-time samples (milliseconds; sorted in place). Sets
/// num_queries from the sample count; a no-op on an empty workload.
/// The one place the workload-aggregation arithmetic lives: every
/// RunWorkload (grid, temporal, vector, volume) finishes through it.
void FinalizeWorkloadStats(const QueryStats& total,
                           std::vector<double>* wall_ms,
                           WorkloadStats* out);

}  // namespace fielddb

#endif  // FIELDDB_CORE_STATS_H_
