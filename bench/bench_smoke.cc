// End-to-end smoke run of the figure harness, small enough for CTest: a
// 64x64 fractal DEM swept through every method twice — under the
// paper's storage and page model (BENCH_smoke.json, the figure benches'
// counts) and under the engine's own, lattice slots and only the pages
// holding a zone match read (BENCH_smoke_engine.json). The reports'
// invariant gates (one point per method and Qinterval, every point ran
// the configured workload and read pages, ordered wall-time
// percentiles, build info counting the field's cells) decide the exit
// status; the companion check_bench_json CTests then validate the files
// with tools/check_bench_json.py and compare their work counts with
// bench/baselines/smoke.json and smoke_engine.json.

#include <cstdio>

#include "bench/harness.h"
#include "gen/fractal.h"

int main(int argc, char** argv) {
  using namespace fielddb;
  FractalOptions options;
  options.size_exp = 6;  // 64x64 = 4096 cells
  options.roughness_h = 0.7;
  options.seed = 7;
  StatusOr<GridField> field = MakeFractalField(options);
  if (!field.ok()) {
    std::fprintf(stderr, "%s\n", field.status().ToString().c_str());
    return 1;
  }

  bench::FigureConfig config;
  config.title = "smoke: 64x64 fractal DEM through the figure harness";
  config.bench_id = "smoke";
  config.qintervals = {0.02, 0.10};
  config.num_queries = 20;
  bench::ApplyFlags(argc, argv, &config);
  if (!bench::RunFigure(*field, config)) return 1;

  config.title = "smoke_engine: the same sweep, lattice slots and pages "
                 "holding a match";
  config.bench_id = "smoke_engine";
  config.paper_model = false;
  return bench::RunFigure(*field, config) ? 0 : 1;
}
