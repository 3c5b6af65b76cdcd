// EXPLAIN: a client of FieldDatabase's public surface. It runs the
// query through Query with tracing on and annotates the result with the
// planner's decision, the subfields the filter chose, the R*-tree
// descent and the disk-model cost of the observed reads.

#include "core/explain.h"

#include <cstdio>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fielddb {

Status ExplainValueQuery(const FieldDatabase& db, const ValueInterval& query,
                         ExplainResult* out) {
  // Stamp the database's identity before validating anything: an early
  // return must not leave a default-constructed result whose method
  // (kLinearScan, the struct default) misreports the database.
  *out = ExplainResult{};
  out->method = db.method();
  out->query = query;
  out->rtree_height = db.build_info().tree_height;
  if (query.IsEmpty()) {
    return Status::InvalidArgument("empty query interval");
  }

  // The decision the traced run below will make, captured up front for
  // the report (planning is deterministic, so this is the same plan).
  const PhysicalPlan plan = db.PlanValueQuery(query);
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
    FIELDDB_RETURN_IF_ERROR(db.pool().Clear());
    ValueQueryResult result;
    FIELDDB_RETURN_IF_ERROR(
        db.Query({.bands = {&query, 1}, .regions = false, .trace = true},
                 {&result, 1}));
    out->stats = std::move(result.stats);
    return Status::OK();
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
  const std::vector<Subfield>* sfs = db.subfields();
  if (sfs != nullptr && out->stats.index_fallbacks == 0 &&
      out->chosen_plan == PlanKind::kIndexedFilter) {
    const CellStore& store = db.index().cell_store();
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

std::string ExplainResult::ToString() const {
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

std::string ExplainResult::ToJson() const {
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

}  // namespace fielddb
