// Ablation for DESIGN.md choice #3 — the page size. The paper fixes
// 4 KB (Section 4); this sweep shows how the LinearScan / I-Hilbert gap
// moves with page size (larger pages help the scan more than the index,
// whose candidate set is already page-clustered).

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
      "=== Ablation: page size sweep (Fig 8a terrain, Qinterval=0.02) "
      "===\n");
  std::printf("%-10s %14s %14s %14s %14s\n", "page_size",
              "LinearScan(ms)", "I-Hilbert(ms)", "LinearScan(pg)",
              "I-Hilbert(pg)");

  for (const uint32_t page_size : {1024u, 2048u, 4096u, 8192u, 16384u}) {
    double ms[2] = {0, 0};
    double pages[2] = {0, 0};
    int mi = 0;
    for (const IndexMethod method :
         {IndexMethod::kLinearScan, IndexMethod::kIHilbert}) {
      FieldDatabaseOptions options;
      options.method = method;
      options.page_size = page_size;
      // Hold the pool's byte budget constant across page sizes.
      options.pool_pages = (4u << 20) / page_size;
      options.build_spatial_index = false;
      // Explicit cell records, the figure benches' storage model.
      StatusOr<std::unique_ptr<FieldDatabase>> db =
          FieldDatabase::Build(ExplicitCellsField(*terrain), options);
      if (!db.ok()) {
        std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
        return 1;
      }
      WorkloadOptions wo;
      wo.num_queries = num_queries;
      wo.seed = 2002;
      wo.qinterval_fraction = 0.02;
      StatusOr<WorkloadStats> ws = (*db)->RunWorkload(
          GenerateValueQueries(terrain->ValueRange(), wo));
      if (!ws.ok()) {
        std::fprintf(stderr, "%s\n", ws.status().ToString().c_str());
        return 1;
      }
      ms[mi] = ws->avg_wall_ms;
      pages[mi] = ws->avg_logical_reads;
      ++mi;
    }
    std::printf("%-10u %14.4f %14.4f %14.1f %14.1f\n", page_size, ms[0],
                ms[1], pages[0], pages[1]);
  }
  return 0;
}
