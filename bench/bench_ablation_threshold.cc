// Ablation for DESIGN.md choice #2 — adaptive cost grouping vs. the
// fixed threshold of the Interval Quadtree [15]. The paper's critique
// (Section 3.1.1): "there is no justifiable way to decide the optimal
// threshold". This bench sweeps the threshold on the Fig. 8a terrain and
// compares every point against the threshold-free I-Hilbert.

#include <cstdio>
#include <cstring>

#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/workload.h"

namespace {

using namespace fielddb;

struct Row {
  const char* label;
  uint64_t subfields;
  double avg_ms;
  double avg_pages;
};

StatusOr<Row> Measure(const GridField& field,
                      const FieldDatabaseOptions& options,
                      const char* label, uint32_t num_queries) {
  // Explicit cell records, the figure benches' storage model.
  StatusOr<std::unique_ptr<FieldDatabase>> db =
      FieldDatabase::Build(ExplicitCellsField(field), options);
  if (!db.ok()) return db.status();
  WorkloadOptions wo;
  wo.num_queries = num_queries;
  wo.seed = 2002;
  wo.qinterval_fraction = 0.02;
  StatusOr<WorkloadStats> ws = (*db)->RunWorkload(
      GenerateValueQueries(field.ValueRange(), wo));
  if (!ws.ok()) return ws.status();
  return Row{label, (*db)->build_info().num_subfields, ws->avg_wall_ms,
             ws->avg_logical_reads};
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t num_queries = 200;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) num_queries = 30;
  }

  StatusOr<GridField> terrain = MakeRoseburgLikeTerrain();
  if (!terrain.ok()) {
    std::fprintf(stderr, "%s\n", terrain.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "=== Ablation: fixed threshold (Interval Quadtree) vs adaptive "
      "cost (I-Hilbert), Qinterval=0.02 ===\n");
  std::printf("%-22s %11s %10s %11s\n", "config", "subfields", "avg_ms",
              "avg_pages");

  static const double kThresholds[] = {0.01, 0.02, 0.05, 0.1, 0.2, 0.4};
  char label[64];
  for (const double t : kThresholds) {
    FieldDatabaseOptions options;
    options.method = IndexMethod::kIntervalQuadtree;
    options.build_spatial_index = false;
    options.iqt.threshold_fraction = t;
    std::snprintf(label, sizeof(label), "I-Quadtree t=%.2f", t);
    StatusOr<Row> row = Measure(*terrain, options, label, num_queries);
    if (!row.ok()) {
      std::fprintf(stderr, "%s\n", row.status().ToString().c_str());
      return 1;
    }
    std::printf("%-22s %11llu %10.4f %11.1f\n", row->label,
                static_cast<unsigned long long>(row->subfields),
                row->avg_ms, row->avg_pages);
  }

  FieldDatabaseOptions options;
  options.method = IndexMethod::kIHilbert;
  options.build_spatial_index = false;
  StatusOr<Row> hilbert =
      Measure(*terrain, options, "I-Hilbert (no thresh)", num_queries);
  if (!hilbert.ok()) {
    std::fprintf(stderr, "%s\n", hilbert.status().ToString().c_str());
    return 1;
  }
  std::printf("%-22s %11llu %10.4f %11.1f\n", hilbert->label,
              static_cast<unsigned long long>(hilbert->subfields),
              hilbert->avg_ms, hilbert->avg_pages);
  std::printf(
      "\nexpected: quadtree performance swings with the threshold (the "
      "paper's point); cost-based grouping needs no tuning and sits near "
      "the best swept point.\n");
  return 0;
}
