#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/trace_buffer.h"

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
  plan.scan_pattern = cost.ScanPattern(shape);
  plan.scan_cost_ms = cost.CostMs(plan.scan_pattern);

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
    TraceScope probe_span("plan.probe", "plan");
    p = probe();
    probe_span.set_items(p.candidates);
  }
  plan.probed = true;
  plan.probe_sampled = p.sampled;
  plan.predicted_candidates = p.candidates;
  plan.predicted_runs = p.runs;
  plan.selectivity =
      shape.num_cells > 0
          ? static_cast<double>(p.candidates) / shape.num_cells
          : 0.0;
  plan.index_pattern = p.index_pattern;
  plan.index_cost_ms = cost.CostMs(plan.index_pattern);

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
    const ValueInterval& query, std::vector<PosRange>* runs) const {
  Selectivity sel;
  runs->clear();
  const CellStore& store = index_->cell_store();
  if (const std::vector<Subfield>* subfields = index_->subfields()) {
    // Subfield methods: the filter returns exactly the subfields whose
    // interval intersects the query, so walking the in-memory table
    // predicts the candidate runs perfectly — O(#subfields), no I/O.
    uint64_t matched = 0;
    for (const Subfield& sf : *subfields) {
      if (sf.end <= sf.start || !sf.interval.Intersects(query)) continue;
      ++matched;
      if (!runs->empty() && sf.start <= runs->back().end) {
        runs->back().end = std::max(runs->back().end, sf.end);
      } else {
        runs->push_back(PosRange{sf.start, sf.end});
      }
    }
    sel.candidates = TotalRangeLength(*runs);
    sel.runs = runs->size();
    sel.entry_fraction =
        subfields->empty()
            ? 0.0
            : static_cast<double>(matched) / subfields->size();
    return sel;
  }
  // Per-cell methods (I-All, Row-IP): the index's entries are the
  // records' own intervals, so the zone-map sidecar predicts the filter
  // output exactly. Above kExactProbeCells, fall back to the strided
  // sample to keep planning sublinear in the store size.
  if (store.size() <= kExactProbeCells) {
    store.zone_map().FilterRanges(query, runs);
    sel.candidates = TotalRangeLength(*runs);
    sel.runs = runs->size();
  } else {
    const uint64_t stride =
        (store.size() + kExactProbeCells - 1) / kExactProbeCells;
    const ZoneProbe probe = store.zone_map().Probe(query, stride);
    sel.sampled = true;
    sel.candidates =
        std::min<uint64_t>(store.size(), probe.matched * stride);
    sel.runs = std::max<uint64_t>(probe.run_starts,
                                  probe.matched > 0 ? 1 : 0);
  }
  sel.entry_fraction =
      store.size() > 0
          ? static_cast<double>(sel.candidates) / store.size()
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

SharedScanDecision QueryPlanner::CostSharedScan(
    const ValueInterval& group_envelope, const ValueInterval& candidate,
    PlannerMode mode) const {
  SharedScanDecision d;
  const ValueInterval widened = ValueInterval::Hull(group_envelope, candidate);
  d.shared_cost_ms = Plan(widened, mode).predicted_cost_ms;
  d.isolated_cost_ms = Plan(group_envelope, mode).predicted_cost_ms +
                       Plan(candidate, mode).predicted_cost_ms;
  d.share = d.shared_cost_ms <= d.isolated_cost_ms;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%s: widened sweep %.2f ms %s separate %.2f ms",
                d.share ? "share" : "isolate", d.shared_cost_ms,
                d.share ? "<=" : ">", d.isolated_cost_ms);
  d.reason = buf;
  return d;
}

PhysicalPlan QueryPlanner::Plan(const ValueInterval& query,
                                PlannerMode mode) const {
  return ChoosePlan(
      cost_, shape(), mode, index_->method() != IndexMethod::kLinearScan,
      [this, &query] {
        std::vector<PosRange> runs;
        const Selectivity sel = Probe(query, &runs);
        if (!sel.sampled) {
          return ExactProbe(cost_, shape(), runs, FilterPattern(sel));
        }
        PlanProbe probe;
        probe.candidates = sel.candidates;
        probe.runs = sel.runs;
        probe.sampled = true;
        probe.index_pattern = FilterPattern(sel);
        probe.index_pattern +=
            cost_.ApproxFetchPattern(shape(), sel.candidates, sel.runs);
        return probe;
      });
}

}  // namespace fielddb
