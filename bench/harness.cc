#include "bench/harness.h"

#include <cstdio>
#include <cstring>
#include <vector>

#include "gen/workload.h"

namespace fielddb::bench {

void ApplyFlags(int argc, char** argv, FigureConfig* config) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config->num_queries = 30;
    }
  }
}

bool RunFigure(const Field& field, const FigureConfig& config) {
  std::printf("=== %s ===\n", config.title.c_str());
  std::printf("cells=%u value_range=%s queries_per_point=%u\n",
              field.NumCells(), field.ValueRange().ToString().c_str(),
              config.num_queries);

  FigureRun run;
  run.field_cells = field.NumCells();
  run.value_range = field.ValueRange();
  run.num_queries = config.num_queries;
  run.workload_seed = config.workload_seed;

  for (const IndexMethod method : config.methods) {
    FieldDatabaseOptions options = config.base_options;
    options.method = method;
    options.build_spatial_index = false;  // Q2-only workload
    // The paper's storage model: explicit 104-byte cell records, so the
    // page columns stay those of EXPERIMENTS.md.
    StatusOr<std::unique_ptr<FieldDatabase>> db =
        FieldDatabase::Build(ExplicitCellsField(field), options);
    if (!db.ok()) {
      std::fprintf(stderr, "build %s: %s\n", IndexMethodName(method),
                   db.status().ToString().c_str());
      return false;
    }
    FigureSeries series;
    series.method = IndexMethodName(method);
    series.build = (*db)->build_info();

    for (const double qi : config.qintervals) {
      WorkloadOptions wo;
      wo.qinterval_fraction = qi;
      wo.num_queries = config.num_queries;
      wo.seed = config.workload_seed;  // same queries for every method
      const auto queries = GenerateValueQueries(field.ValueRange(), wo);
      StatusOr<WorkloadStats> ws = (*db)->RunWorkload(queries);
      if (!ws.ok()) {
        std::fprintf(stderr, "workload %s qi=%g: %s\n",
                     IndexMethodName(method), qi,
                     ws.status().ToString().c_str());
        return false;
      }
      series.points.emplace_back(qi, *ws);
    }
    run.series.push_back(std::move(series));
  }

  PrintFigureTables(run);
  const int status =
      FigureReport(config.bench_id, config.title, run,
                   config.methods.size() * config.qintervals.size())
          .Finish();
  std::printf("\n");
  return status == 0;
}

}  // namespace fielddb::bench
