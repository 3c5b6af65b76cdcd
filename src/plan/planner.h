#ifndef FIELDDB_PLAN_PLANNER_H_
#define FIELDDB_PLAN_PLANNER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/interval.h"
#include "common/simd/interval_filter.h"
#include "index/cell_store.h"
#include "index/subfield.h"
#include "index/value_index.h"
#include "plan/cost_model.h"
#include "storage/record_store.h"

namespace fielddb {

/// The two physical shapes a field value query can execute as:
///  - kFusedScan: one pass over the whole store, testing and estimating
///    each cell in place (the paper's LinearScan execution, available to
///    every method);
///  - kIndexedFilter: the index search for candidate runs, then the
///    zone-filtered scan of just those runs (the paper's filter -> fetch ->
///    estimate pipeline).
enum class PlanKind {
  kFusedScan,
  kIndexedFilter,
};

const char* PlanKindName(PlanKind kind);

/// How the planner picks between the plan kinds. kAuto is the cost-based
/// default; the forced modes exist for differential tests, benches, and
/// the CLI (`fielddb_cli plan --mode ...`). Forcing the index on a
/// LinearScan database still yields a fused scan — there is no index to
/// force.
enum class PlannerMode {
  kAuto,
  kForceScan,
  kForceIndex,
};

const char* PlannerModeName(PlannerMode mode);

/// The planner's decision for one query: the chosen kind, the predicted
/// disk-model costs of both alternatives, and a human-readable reason.
/// Flows into trace spans, ExplainResult, and the `fielddb_cli plan`
/// subcommand.
struct PhysicalPlan {
  PlanKind kind = PlanKind::kFusedScan;
  /// Candidate cells the filter step is predicted to produce, exactly
  /// (a subfield-table walk or a zone-map sweep). 0 when no probe ran
  /// (LinearScan, forced scan).
  uint64_t predicted_candidates = 0;
  /// Predicted candidate runs (seek count of the fetch).
  uint64_t predicted_runs = 0;
  /// predicted_candidates / num_cells.
  double selectivity = 0.0;
  double scan_cost_ms = 0.0;
  double index_cost_ms = 0.0;
  /// Disk-model cost of the *chosen* kind.
  double predicted_cost_ms = 0.0;
  /// True when a selectivity probe ran for this plan. LinearScan
  /// databases and forced scans never probe, so their
  /// predicted_candidates == 0 means "unknown", not "empty".
  bool probed = false;
  std::string reason;
};

/// What a store's zero-I/O selectivity probe predicts for one query:
/// the inputs ChoosePlan prices the indexed alternative from.
struct PlanProbe {
  /// Candidate cells and runs the filter step is predicted to produce.
  uint64_t candidates = 0;
  uint64_t runs = 0;
  /// Filter descent plus candidate fetch.
  PagePattern index_pattern;
};

/// The one scan-vs-index decision of every store: the grid's
/// QueryPlanner::Plan and the temporal, vector and volume databases all
/// call it with their own store shape and probe. Prices the fused scan
/// over `shape`; without an index (`has_index` false: LinearScan) or
/// under kForceScan that is the plan. Otherwise runs `probe` — the
/// caller's selectivity probe and filter/fetch pricing — under a
/// "plan.probe" trace span, prices the indexed filter+fetch, and picks
/// per `mode`: forced, or under kAuto the cheaper one (ties go to the
/// scan). Fills in both costs and the reason. Deterministic and
/// independent of buffer-pool state.
PhysicalPlan ChoosePlan(const PlanCostModel& cost, const StoreShape& shape,
                        PlannerMode mode, bool has_index,
                        const std::function<PlanProbe()>& probe);

/// The probe of a store whose candidate runs are known exactly (a
/// zone-map sweep or a subfield-table walk): `filter` is the index
/// descent's page pattern, the fetch pattern follows from `runs`.
PlanProbe ExactProbe(const PlanCostModel& cost, const StoreShape& shape,
                     const std::vector<PosRange>& runs,
                     const PagePattern& filter);

/// The geometry of a record store, for costing.
template <typename T, typename Slots>
StoreShape ShapeOf(const RecordStore<T, Slots>& store) {
  StoreShape sh;
  sh.num_cells = store.size();
  sh.cells_per_page = store.records_per_page();
  sh.store_pages = store.num_pages();
  return sh;
}

/// The plan of a query over one store whose index is `tree` (null: no
/// index) — every temporal, vector and volume query plans here:
/// ChoosePlan over the store's shape, with the exact zone-map probe (one
/// zero-I/O FilterRanges sweep for `query`, a value interval or a (u, v)
/// box) and the index descent priced as one random read per tree level.
template <typename Record, typename Tree>
PhysicalPlan PlanStoreQuery(
    const BasicCellStore<Record>& store,
    const typename BasicCellStore<Record>::Key& query, PlannerMode mode,
    const Tree* tree) {
  const PlanCostModel cost;
  const StoreShape shape = ShapeOf(store.records());
  return ChoosePlan(cost, shape, mode, tree != nullptr, [&] {
    std::vector<PosRange> runs;
    store.zone_map().FilterRanges(query, &runs);
    return ExactProbe(cost, shape, runs,
                      PagePattern::Random(tree->height()));
  });
}

/// The cost-based access-path selector. Pure function of the immutable
/// post-build index state: selectivity comes from one exact probe at
/// every store size — a walk of the subfield table (I-Hilbert,
/// I-Quadtree) or a sweep of the in-memory zone-map sidecar (the other
/// methods, as PlanStoreQuery does), no page I/O — and both
/// alternatives are priced with the paper's disk model. Deterministic and independent of buffer-pool
/// state, so warm and cold runs of the same query read the same logical
/// pages, concurrent threads decide identically, and a reopened snapshot
/// plans exactly like the original.
class QueryPlanner {
 public:
  /// `index` must outlive the planner.
  explicit QueryPlanner(const ValueIndex* index,
                        PlanCostModel cost = PlanCostModel{});

  PhysicalPlan Plan(const ValueInterval& query,
                    PlannerMode mode = PlannerMode::kAuto) const;

  /// Share-vs-isolate admission for the executor's and the router's
  /// shared-scan grouping: should `candidate` join a group whose
  /// members' hull is `envelope`? Given the envelope's and the
  /// candidate's predicted costs (Plan(...).predicted_cost_ms under
  /// `mode`), only the widened envelope is planned; the candidate
  /// shares when that plan (the group executes as one pass whose I/O is
  /// that plan's) is predicted no more expensive than the two together.
  /// Shares on ties: the fused sweep also saves the per-query fixed
  /// costs the model does not price. Returns the widened plan's cost
  /// when the candidate shares, nullopt when it does not; a caller
  /// growing a group keeps it as the new envelope's.
  std::optional<double> SharedScanCost(const ValueInterval& envelope,
                                       double envelope_ms,
                                       const ValueInterval& candidate,
                                       double candidate_ms,
                                       PlannerMode mode) const;

  StoreShape shape() const;
  const PlanCostModel& cost_model() const { return cost_; }

 private:
  /// What the exact probe returns: the filter's candidate runs and the
  /// fraction of the index's entries (subfields or cells) it touches,
  /// which drives the tree-descent cost estimate.
  struct Selectivity {
    std::vector<PosRange> runs;
    double entry_fraction = 0.0;
  };

  Selectivity Probe(const ValueInterval& query) const;
  PagePattern FilterPattern(const Selectivity& sel) const;

  const ValueIndex* index_;
  PlanCostModel cost_;
};

}  // namespace fielddb

#endif  // FIELDDB_PLAN_PLANNER_H_
