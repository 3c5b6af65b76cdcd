// Ablation for DESIGN.md choice #1 — the linearization curve. The paper
// picks Hilbert over Z-order / Gray-code citing [7, 13] and dismisses
// row-major implicitly (the IP-index row-by-row approach of [19] "could
// not handle the continuity of terrain"). This bench quantifies that on
// the Fig. 8a workload: subfield count and average query cost per curve.

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
      "=== Ablation: linearization curve (I-Hilbert grouping on the "
      "Fig 8a terrain) ===\n");
  std::printf("%-10s %11s %9s %12s %12s %12s\n", "curve", "subfields",
              "tree_h", "avg_ms@0.01", "avg_ms@0.05", "avg_pages@0.01");

  for (const CurveType curve :
       {CurveType::kHilbert, CurveType::kZOrder, CurveType::kGrayCode,
        CurveType::kRowMajor}) {
    FieldDatabaseOptions options;
    options.method = IndexMethod::kIHilbert;
    options.build_spatial_index = false;
    options.ihilbert.curve = curve;
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
    std::printf("%-10s %11llu %9u %12.4f %12.4f %12.1f\n",
                CurveTypeName(curve),
                static_cast<unsigned long long>(
                    (*db)->build_info().num_subfields),
                (*db)->build_info().tree_height, narrow->avg_wall_ms,
                wide->avg_wall_ms, narrow->avg_logical_reads);
  }
  std::printf(
      "\nexpected: hilbert needs the fewest subfields and pages; "
      "row-major the most.\n");
  return 0;
}
