// Related-work comparison (paper Section 2.3): every query-processing
// approach the paper discusses, on the Fig. 8a terrain workload —
//  - LinearScan, I-All, I-Hilbert, I-Quadtree (the paper's methods);
//  - Row-IP: the per-row IP-index of [18, 19] ("could not handle the
//    continuity of terrain");
//  - IntervalTree: the main-memory interval tree of [5] used by the
//    isosurface literature [4, 24] — fast, but its whole structure must
//    be RAM-resident (the paper's objection), so it reports bytes of
//    required memory instead of pages.

#include <chrono>
#include <cstdio>
#include <cstring>

#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "index/interval_tree.h"

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
  WorkloadOptions wo;
  wo.qinterval_fraction = 0.02;
  wo.num_queries = num_queries;
  wo.seed = 2002;
  const auto queries = GenerateValueQueries(terrain->ValueRange(), wo);
  const DiskModel disk;

  std::printf(
      "=== Related work: every Section-2.3 approach on the Fig 8a "
      "terrain, Qinterval=0.02 ===\n");
  std::printf("%-12s %10s %12s %12s %14s\n", "method", "avg_ms",
              "avg_pages", "io_ms", "resident_MB");

  for (const IndexMethod method :
       {IndexMethod::kLinearScan, IndexMethod::kIAll,
        IndexMethod::kIHilbert, IndexMethod::kIntervalQuadtree,
        IndexMethod::kRowIp}) {
    FieldDatabaseOptions options;
    options.method = method;
    options.build_spatial_index = false;
    // The figure benches' storage and page model: explicit cell
    // records, every page of every run read.
    options.read_whole_runs = true;
    StatusOr<std::unique_ptr<FieldDatabase>> db =
        FieldDatabase::Build(ExplicitCellsField(*terrain), options);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    StatusOr<WorkloadStats> ws = (*db)->RunWorkload(queries);
    if (!ws.ok()) {
      std::fprintf(stderr, "%s\n", ws.status().ToString().c_str());
      return 1;
    }
    // Paged methods keep only the buffer pool resident.
    const double resident_mb =
        static_cast<double>((*db)->pool().capacity()) * 4096 / 1e6;
    std::printf("%-12s %10.4f %12.1f %12.1f %14.1f\n",
                IndexMethodName(method), ws->avg_wall_ms,
                ws->avg_logical_reads, ws->AvgDiskMs(disk), resident_mb);
  }

  // The main-memory interval tree: filtering happens entirely in RAM
  // (no page accounting is possible — that is the point), and the
  // estimation step must still fetch the matching cells.
  {
    std::vector<IntervalTree::Item> items(terrain->NumCells());
    for (CellId id = 0; id < terrain->NumCells(); ++id) {
      items[id] = IntervalTree::Item{terrain->GetCell(id).Interval(), id};
    }
    const IntervalTree tree = IntervalTree::Build(std::move(items));
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t total_hits = 0;
    std::vector<uint64_t> hits;
    for (const ValueInterval& q : queries) {
      hits.clear();
      tree.Query(q, &hits);
      total_hits += hits.size();
    }
    const double avg_ms =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count() *
        1000.0 / queries.size();
    std::printf("%-12s %10.4f %12s %12s %14.1f\n", "IntervalTree",
                avg_ms, "(RAM)", "(RAM)",
                static_cast<double>(tree.MemoryBytes()) / 1e6);
    std::printf(
        "\nIntervalTree filters %.0f cells/query entirely from %0.1f MB "
        "of required RAM — fast, but the paper's objection is exactly "
        "that this does not scale to databases larger than memory, and "
        "candidate cells must still be fetched from scattered pages.\n",
        static_cast<double>(total_hits) / queries.size(),
        static_cast<double>(tree.MemoryBytes()) / 1e6);
  }
  return 0;
}
