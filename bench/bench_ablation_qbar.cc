// Ablation for DESIGN.md choice #4 — the assumed average query length q̄
// in the access probability P = L + q̄ (Section 3.1, after [14]). The
// paper fixes q̄ = 0.5; this sweep shows how the subfield granularity
// and query cost move with it, at two actual query widths.

#include <cstdio>
#include <cstring>

#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/workload.h"

int main(int argc, char** argv) {
  using namespace fielddb;
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
      "=== Ablation: cost-model q-bar sweep (I-Hilbert on the Fig 8a "
      "terrain) ===\n");
  std::printf("%-8s %11s %12s %12s %14s %14s\n", "q_bar", "subfields",
              "avg_ms@0.01", "avg_ms@0.05", "io_ms@0.01", "io_ms@0.05");

  const DiskModel disk;
  for (const double qbar : {0.05, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    FieldDatabaseOptions options;
    options.method = IndexMethod::kIHilbert;
    options.build_spatial_index = false;
    options.ihilbert.cost.avg_query_fraction = qbar;
    // The figure benches' storage and page model: explicit cell
    // records, every page of every run read.
    options.read_whole_runs = true;
    StatusOr<std::unique_ptr<FieldDatabase>> db =
        FieldDatabase::Build(ExplicitCellsField(*terrain), options);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    WorkloadOptions wo;
    wo.num_queries = num_queries;
    wo.seed = 2002;
    wo.qinterval_fraction = 0.01;
    auto narrow = (*db)->RunWorkload(
        GenerateValueQueries(terrain->ValueRange(), wo));
    wo.qinterval_fraction = 0.05;
    auto wide = (*db)->RunWorkload(
        GenerateValueQueries(terrain->ValueRange(), wo));
    if (!narrow.ok() || !wide.ok()) {
      std::fprintf(stderr, "workload failed\n");
      return 1;
    }
    std::printf("%-8.2f %11llu %12.4f %12.4f %14.1f %14.1f\n", qbar,
                static_cast<unsigned long long>(
                    (*db)->build_info().num_subfields),
                narrow->avg_wall_ms, wide->avg_wall_ms,
                narrow->AvgDiskMs(disk), wide->AvgDiskMs(disk));
  }
  std::printf(
      "\nexpected: larger q-bar -> fewer, coarser subfields; the paper's "
      "0.5 sits in a broad flat optimum (the model is robust to it).\n");
  return 0;
}
