#ifndef FIELDDB_CORE_EXPLAIN_H_
#define FIELDDB_CORE_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "core/field_database.h"
#include "core/stats.h"
#include "index/value_index.h"
#include "plan/planner.h"

namespace fielddb {

/// One subfield the filtering step selected for an explained query.
/// `matching_cells` counts cells inside [start, end) whose own value
/// interval really intersects the query — the rest are the false
/// positives the paper's cost model trades for a smaller tree.
struct ExplainSubfield {
  uint32_t id = 0;
  uint64_t start = 0;  // [start, end) positions in the clustered store
  uint64_t end = 0;
  ValueInterval interval;
  uint64_t cells = 0;
  uint64_t matching_cells = 0;
};

/// The full query plan + execution profile produced by
/// ExplainValueQuery.
struct ExplainResult {
  /// The database's index method. Note the default is only a
  /// placeholder: ExplainValueQuery stamps the actual method before
  /// doing anything else (including argument validation), so even a
  /// failed explain never reports a method the database doesn't use.
  IndexMethod method = IndexMethod::kLinearScan;
  ValueInterval query;
  /// Executed-query measurements; `stats.trace` holds the phase spans.
  QueryStats stats;
  /// Subfields touched, in store order. Empty for methods without a
  /// subfield partition (LinearScan, I-All, RowIp).
  std::vector<ExplainSubfield> subfields;
  /// (candidates - answers) / candidates; 0 when there were no
  /// candidates.
  double false_positive_ratio = 0.0;
  /// R*-tree descent profile of the filtering step.
  uint64_t rtree_nodes_visited = 0;
  uint32_t rtree_height = 0;
  /// What the simulated 2002 disk would charge for this query's
  /// physical read pattern (DiskModel on sequential/random reads).
  double est_disk_ms = 0.0;
  /// The planner's decision for this query: which physical plan ran,
  /// what it was predicted to cost, what the alternative would have
  /// cost, and why. `predicted_cost_ms` is comparable to `est_disk_ms`
  /// (same disk model; predicted vs observed read pattern).
  PlanKind chosen_plan = PlanKind::kFusedScan;
  double predicted_cost_ms = 0.0;
  double predicted_scan_cost_ms = 0.0;
  double predicted_index_cost_ms = 0.0;
  std::string planner_reason;

  std::string ToString() const;
  std::string ToJson() const;
};

/// EXPLAIN for a value query, a client of the facade's public surface:
/// runs `query` through FieldDatabase::Query cold (buffer pool cleared)
/// and traced, then annotates the result with the planner's decision
/// (PlanValueQuery), the subfields the filter chose and their
/// false-positive ratios, the R*-tree descent count, and the disk-model
/// cost of the observed I/O. Metrics recording is forced on for the
/// duration (EXPLAIN is explicitly diagnostic); the previous enabled
/// state is restored.
Status ExplainValueQuery(const FieldDatabase& db, const ValueInterval& query,
                         ExplainResult* out);

}  // namespace fielddb

#endif  // FIELDDB_CORE_EXPLAIN_H_
