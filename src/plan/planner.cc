#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/trace.h"

namespace fielddb {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kFusedScan:
      return "fused_scan";
    case PlanKind::kIndexedFilter:
      return "indexed_filter";
  }
  return "unknown";
}

const char* PlannerModeName(PlannerMode mode) {
  switch (mode) {
    case PlannerMode::kAuto:
      return "auto";
    case PlannerMode::kForceScan:
      return "force_scan";
    case PlannerMode::kForceIndex:
      return "force_index";
  }
  return "unknown";
}

QueryPlanner::QueryPlanner(const ValueIndex* index, PlanCostModel cost)
    : index_(index), cost_(cost) {}

StoreShape QueryPlanner::shape() const {
  return ShapeOf(index_->cell_store().records());
}

PlanProbe ExactProbe(const PlanCostModel& cost, const StoreShape& shape,
                     const std::vector<PosRange>& runs,
                     const PagePattern& filter) {
  PlanProbe probe;
  probe.candidates = TotalRangeLength(runs);
  probe.runs = runs.size();
  probe.index_pattern = filter;
  probe.index_pattern += cost.FetchPattern(shape, runs);
  return probe;
}

PhysicalPlan ChoosePlan(const PlanCostModel& cost, const StoreShape& shape,
                        PlannerMode mode, bool has_index,
                        const std::function<PlanProbe()>& probe) {
  PhysicalPlan plan;
  plan.scan_cost_ms = cost.CostMs(cost.ScanPattern(shape));

  if (!has_index) {
    plan.kind = PlanKind::kFusedScan;
    plan.predicted_cost_ms = plan.scan_cost_ms;
    plan.reason = "LinearScan: no value index, fused scan is the only plan";
    return plan;
  }
  if (mode == PlannerMode::kForceScan) {
    plan.kind = PlanKind::kFusedScan;
    plan.predicted_cost_ms = plan.scan_cost_ms;
    plan.reason = "forced: fused scan";
    return plan;
  }

  PlanProbe p;
  {
    // The probe is the only part of planning whose cost scales with the
    // index (zone-map walk / subfield-table scan); give it its own span
    // so planner time is attributable when the trace buffer is on.
    ScopedSpan probe_span("plan.probe", "plan");
    p = probe();
    probe_span.set_items(p.candidates);
  }
  plan.probed = true;
  plan.predicted_candidates = p.candidates;
  plan.predicted_runs = p.runs;
  plan.selectivity =
      shape.num_cells > 0
          ? static_cast<double>(p.candidates) / shape.num_cells
          : 0.0;
  plan.index_cost_ms = cost.CostMs(p.index_pattern);

  if (mode == PlannerMode::kForceIndex) {
    plan.kind = PlanKind::kIndexedFilter;
    plan.predicted_cost_ms = plan.index_cost_ms;
    plan.reason = "forced: indexed filter+fetch";
    return plan;
  }

  const bool index_wins = plan.index_cost_ms < plan.scan_cost_ms;
  plan.kind = index_wins ? PlanKind::kIndexedFilter : PlanKind::kFusedScan;
  plan.predicted_cost_ms =
      index_wins ? plan.index_cost_ms : plan.scan_cost_ms;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "auto: %s (index %.2f ms %s scan %.2f ms; est. %llu "
                "candidates, %.2f%% selectivity)",
                index_wins ? "indexed filter+fetch" : "fused scan",
                plan.index_cost_ms, index_wins ? "<" : ">=",
                plan.scan_cost_ms,
                static_cast<unsigned long long>(p.candidates),
                plan.selectivity * 100.0);
  plan.reason = buf;
  return plan;
}

QueryPlanner::Selectivity QueryPlanner::Probe(
    const ValueInterval& query) const {
  Selectivity sel;
  const CellStore& store = index_->cell_store();
  if (const std::vector<Subfield>* subfields = index_->subfields()) {
    // Subfield methods: the filter returns exactly the subfields whose
    // interval intersects the query, so walking the in-memory table
    // predicts the candidate runs perfectly — O(#subfields), no I/O.
    uint64_t matched = 0;
    for (const Subfield& sf : *subfields) {
      if (sf.end <= sf.start || !sf.interval.Intersects(query)) continue;
      ++matched;
      if (!sel.runs.empty() && sf.start <= sel.runs.back().end) {
        sel.runs.back().end = std::max(sel.runs.back().end, sf.end);
      } else {
        sel.runs.push_back(PosRange{sf.start, sf.end});
      }
    }
    sel.entry_fraction =
        subfields->empty()
            ? 0.0
            : static_cast<double>(matched) / subfields->size();
    return sel;
  }
  // Per-cell methods (I-All, Row-IP): the index's entries are the
  // records' own intervals, so one sweep of the zone-map sidecar
  // predicts the filter output exactly.
  store.zone_map().FilterRanges(query, &sel.runs);
  sel.entry_fraction =
      store.size() > 0
          ? static_cast<double>(TotalRangeLength(sel.runs)) / store.size()
          : 0.0;
  return sel;
}

PagePattern QueryPlanner::FilterPattern(const Selectivity& sel) const {
  PagePattern p;
  const IndexBuildInfo& info = index_->build_info();
  if (index_->method() == IndexMethod::kRowIp) {
    // Row-IP's filter scans a min-ordered prefix of every row's
    // directory; bound it by the whole directory (a contiguous record
    // store laid out after the cell store).
    const uint64_t cell_pages = index_->cell_store().num_pages();
    const uint64_t dir_pages =
        info.store_pages > cell_pages ? info.store_pages - cell_pages : 0;
    p.pages = dir_pages;
    if (dir_pages > 0) {
      p.random_reads = 1;
      p.sequential_reads = dir_pages - 1;
    }
    return p;
  }
  if (info.tree_nodes == 0) return p;
  // R*-tree search: the root-to-leaf descent plus the subtrees the query
  // interval spreads into — roughly the matched fraction of the tree.
  // For I-Hilbert the tree is small and this stays a handful of pages;
  // for I-All on a wide interval it approaches the whole (large) tree,
  // which is exactly the paper's Fig. 11 collapse.
  const uint64_t spread = static_cast<uint64_t>(
      std::ceil(static_cast<double>(info.tree_nodes) * sel.entry_fraction));
  return PagePattern::Random(
      std::min<uint64_t>(info.tree_nodes, info.tree_height + spread));
}

std::optional<double> QueryPlanner::SharedScanCost(
    const ValueInterval& envelope, double envelope_ms,
    const ValueInterval& candidate, double candidate_ms,
    PlannerMode mode) const {
  const double shared_ms =
      Plan(ValueInterval::Hull(envelope, candidate), mode).predicted_cost_ms;
  if (shared_ms <= envelope_ms + candidate_ms) return shared_ms;
  return std::nullopt;
}

PhysicalPlan QueryPlanner::Plan(const ValueInterval& query,
                                PlannerMode mode) const {
  return ChoosePlan(
      cost_, shape(), mode, index_->method() != IndexMethod::kLinearScan,
      [this, &query] {
        const Selectivity sel = Probe(query);
        return ExactProbe(cost_, shape(), sel.runs, FilterPattern(sel));
      });
}

}  // namespace fielddb
