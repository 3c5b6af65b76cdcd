// Thread-scaling bench for the concurrent query engine: one database
// per method, a fixed warm-cache workload, QPS and wall-time tails as
// the QueryExecutor pool grows through {1, 2, 4, 8} threads.
//
// Unlike the figure benches (cold cache per query, disk-bound shapes),
// this bench is deliberately CPU-bound: the pool is sized to hold the
// whole database, a warmup pass populates it, and every measured query
// is served from memory — so the curve isolates the engine's
// shared-reader scalability (shard locks, atomic counters) rather than
// simulated-disk behavior. speedup_vs_1 only approaches the thread
// count when the host actually has that many cores; the emitted
// hardware_threads field records what the machine could do.
//
// Emits BENCH_scaling.json (obs/report.h; checked by
// tools/check_bench_json.py).

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/field_database.h"
#include "core/query_executor.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "obs/report.h"

namespace {

using namespace fielddb;

bool Fail(const Status& s) {
  std::fprintf(stderr, "%s\n", s.ToString().c_str());
  return false;
}

bool RunScaling(const Field& field, uint32_t num_queries, uint64_t seed,
                double qinterval, BenchReport* report) {
  const std::vector<IndexMethod> methods = {
      IndexMethod::kIHilbert, IndexMethod::kIAll, IndexMethod::kLinearScan};
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};

  size_t percentile_inversions = 0;
  for (const IndexMethod method : methods) {
    FieldDatabaseOptions options;
    options.method = method;
    // Big enough for full residency: warm-cache queries never evict, so
    // every thread count sees the identical all-hit I/O pattern.
    options.pool_pages = 16384;
    StatusOr<std::unique_ptr<FieldDatabase>> db =
        FieldDatabase::Build(field, options);
    if (!db.ok()) return Fail(db.status());

    WorkloadOptions wo;
    wo.qinterval_fraction = qinterval;
    wo.num_queries = num_queries;
    wo.seed = seed;
    const std::vector<ValueInterval> queries =
        GenerateValueQueries((*db)->value_range(), wo);

    double qps_at_1 = 0.0;
    for (const size_t threads : thread_counts) {
      QueryExecutor::Options eo;
      eo.threads = threads;
      QueryExecutor executor(db->get(), eo);
      QueryExecutor::BatchResult warmup;
      const Status sw = executor.RunBatch(queries, &warmup);
      if (!sw.ok()) return Fail(sw);
      QueryExecutor::BatchResult batch;
      const Status sb = executor.RunBatch(queries, &batch);
      if (!sb.ok()) return Fail(sb);

      if (threads == 1) qps_at_1 = batch.qps;
      const double speedup = qps_at_1 > 0.0 ? batch.qps / qps_at_1 : 0.0;
      percentile_inversions += !(batch.p50_wall_ms <= batch.p99_wall_ms);
      report->AddPoint()
          .Label("method", IndexMethodName(method))
          .Label("threads", threads)
          .Metric("qps", batch.qps)
          .Metric("avg_wall_ms", batch.total.wall_seconds * 1000.0 /
                                     static_cast<double>(num_queries))
          .Metric("p50_wall_ms", batch.p50_wall_ms)
          .Metric("p99_wall_ms", batch.p99_wall_ms)
          .Metric("speedup_vs_1", speedup)
          .Metric("failed", static_cast<double>(batch.failed));

      std::printf("%-12s threads=%zu qps=%9.1f p50=%8.3fms p99=%8.3fms "
                  "speedup=%.2fx failed=%llu\n",
                  IndexMethodName(method), threads, batch.qps,
                  batch.p50_wall_ms, batch.p99_wall_ms, speedup,
                  static_cast<unsigned long long>(batch.failed));
    }
  }
  report->Invariant("wall_percentile_inversions",
                    static_cast<double>(percentile_inversions), GateOp::kEq,
                    0);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t num_queries = 240;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) num_queries = 40;
  }
  const uint64_t seed = 2002;
  const double qinterval = 0.05;

  StatusOr<GridField> terrain = MakeRoseburgLikeTerrain();
  if (!terrain.ok()) {
    std::fprintf(stderr, "%s\n", terrain.status().ToString().c_str());
    return 1;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u\n", hw);
  BenchReport report("scaling",
                     "Thread scaling: warm-cache value queries, 512x512 "
                     "fractal terrain");
  report.Config("field_cells", terrain->NumCells());
  report.Config("num_queries", num_queries);
  report.Config("workload_seed", seed);
  report.Config("qinterval", qinterval);
  report.Config("hardware_threads", hw);
  if (!RunScaling(*terrain, num_queries, seed, qinterval, &report)) return 1;
  // One hardware thread measures queueing, not parallel speedup.
  report.Timing("hardware_threads", hw, GateOp::kGe, 2);
  return report.Finish();
}
