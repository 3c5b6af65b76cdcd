// Planner sweep: on the Fig. 8a terrain (512x512 = 262,144 cells,
// I-Hilbert), runs the same seeded value queries through the adaptive
// planner and through both forced plans at query widths from 0.1% to
// 90% of the value range, comparing average disk-model I/O time per
// query (deterministic — cold cache, same logical reads every run).
//
// Acceptance (invariant gates of the report, not just plotted): at every
// sweep point the adaptive planner must land within 10% of the better
// fixed plan, and at the sweep extremes — where the fixed plans diverge
// most — it must be strictly faster than the worse one. Emits
// BENCH_planner.json (obs/report.h; checked by
// tools/check_bench_json.py).
//
// --quick shrinks the terrain to 128x128 and the workload for the CTest
// smoke run; the crossover still exists at that size, so the acceptance
// checks stay meaningful.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/field_database.h"
#include "gen/fractal.h"
#include "obs/report.h"

namespace {

using namespace fielddb;

bool RunMode(FieldDatabase* db, PlannerMode mode,
             const std::vector<ValueInterval>& queries, WorkloadStats* out) {
  db->set_planner_mode(mode);
  StatusOr<WorkloadStats> ws = db->RunWorkload(queries);
  if (!ws.ok()) {
    std::fprintf(stderr, "%s\n", ws.status().ToString().c_str());
    return false;
  }
  *out = *ws;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const uint64_t seed = 1988;

  StatusOr<GridField> terrain = [&]() -> StatusOr<GridField> {
    if (!quick) return MakeRoseburgLikeTerrain();
    FractalOptions options;
    options.size_exp = 7;  // 128x128: smallest quick size with a crossover
    options.roughness_h = 0.7;
    options.seed = 1972;
    return MakeFractalField(options);
  }();
  if (!terrain.ok()) {
    std::fprintf(stderr, "%s\n", terrain.status().ToString().c_str());
    return 1;
  }

  FieldDatabaseOptions options;
  options.method = IndexMethod::kIHilbert;
  options.build_spatial_index = false;
  StatusOr<std::unique_ptr<FieldDatabase>> db =
      FieldDatabase::Build(*terrain, options);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }

  const std::vector<double> widths =
      quick ? std::vector<double>{0.001, 0.05, 0.5}
            : std::vector<double>{0.001, 0.005, 0.01, 0.05, 0.1,
                                  0.3,   0.5,   0.7,  0.9};
  const uint32_t num_queries = quick ? 5 : 20;
  const ValueInterval range = (*db)->value_range();
  const DiskModel disk = (*db)->planner().cost_model().disk();

  std::printf("cells=%llu store_pages=%llu\n",
              static_cast<unsigned long long>((*db)->build_info().num_cells),
              static_cast<unsigned long long>((*db)->build_info().store_pages));

  BenchReport report("planner",
                     "Cost-based planner vs fixed plans, I-Hilbert terrain "
                     "selectivity sweep");
  report.Config("method", IndexMethodName(IndexMethod::kIHilbert));
  report.Config("field_cells", (*db)->build_info().num_cells);
  report.Config("workload_seed", seed);
  report.Config("disk_seek_ms", disk.seek_ms);
  report.Config("disk_transfer_ms_per_page", disk.transfer_ms_per_page);

  Rng rng(seed);
  double max_ratio_to_best = 0.0;
  double extreme_ratio_to_worst = 0.0;
  for (size_t wi = 0; wi < widths.size(); ++wi) {
    const double width_frac = widths[wi];
    const double w = width_frac * range.Length();
    std::vector<ValueInterval> queries(num_queries);
    for (ValueInterval& q : queries) {
      const double lo = rng.NextDouble(range.min, range.max - w);
      q = ValueInterval{lo, lo + w};
    }

    WorkloadStats adaptive, scan, index;
    if (!RunMode(db->get(), PlannerMode::kAuto, queries, &adaptive) ||
        !RunMode(db->get(), PlannerMode::kForceScan, queries, &scan) ||
        !RunMode(db->get(), PlannerMode::kForceIndex, queries, &index)) {
      return 1;
    }
    (*db)->set_planner_mode(PlannerMode::kAuto);
    uint32_t index_plans = 0;
    for (const ValueInterval& q : queries) {
      if ((*db)->PlanValueQuery(q).kind == PlanKind::kIndexedFilter) {
        ++index_plans;
      }
    }

    const double selectivity =
        index.avg_candidates /
        static_cast<double>((*db)->build_info().num_cells);
    const double auto_ms = adaptive.AvgDiskMs(disk);
    const double scan_ms = scan.AvgDiskMs(disk);
    const double index_ms = index.AvgDiskMs(disk);
    const double index_plan_frac =
        static_cast<double>(index_plans) / num_queries;
    const double ratio_to_best = auto_ms / std::min(scan_ms, index_ms);
    max_ratio_to_best = std::max(max_ratio_to_best, ratio_to_best);
    if (wi == 0 || wi == widths.size() - 1) {
      extreme_ratio_to_worst = std::max(
          extreme_ratio_to_worst, auto_ms / std::max(scan_ms, index_ms));
    }
    report.AddPoint()
        .Label("width_frac", width_frac)
        .Metric("num_queries", num_queries)
        .Metric("selectivity_avg", selectivity)
        .Metric("auto_disk_ms", auto_ms)
        .Metric("scan_disk_ms", scan_ms)
        .Metric("index_disk_ms", index_ms)
        .Metric("ratio_to_best", ratio_to_best)
        .Metric("index_plan_frac", index_plan_frac);

    std::printf(
        "width=%.3f sel=%.4f auto=%9.1fms scan=%9.1fms index=%9.1fms "
        "ratio=%.3f index_plans=%.0f%%\n",
        width_frac, selectivity, auto_ms, scan_ms, index_ms, ratio_to_best,
        index_plan_frac * 100);
  }
  // Within 10% of the better fixed plan everywhere, and strictly under
  // the worse one at both extremes.
  report.Invariant("max_ratio_to_best", max_ratio_to_best, GateOp::kLe, 1.10);
  report.Invariant("extreme_ratio_to_worst", extreme_ratio_to_worst,
                   GateOp::kLt, 1.0);
  return report.Finish();
}
