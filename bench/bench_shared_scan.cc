// Shared-scan bench: 64 concurrent clients issuing overlapping value
// intervals against the Fig-8a terrain, once with every query executed
// in isolation and once with the executor's shared-scan scheduler
// fusing overlapping queries into single sweeps (DESIGN.md §17).
//
// Unlike bench_scaling this run is deliberately I/O-bound: the database
// is saved and reopened from disk with a pool far smaller than the
// store, so every sweep really reads pages through DiskPageFile's batch
// path (one preadv per run of consecutive pages). Its invariant gates
// fail the run:
//   - no query fails, and the shared run forms at least one group,
//   - per-query answer_cells bit-identical between the two modes,
//   - the summed per-query IoStats of the shared run never exceed the
//     isolated run's (leader-charged attribution: each group's sweep is
//     billed once).
// The shared-scan QPS target (>= 1.5x isolated) is a wall-clock ratio
// that depends on host load: a timing gate, recorded and warned about,
// never a failed run.
//
// Emits BENCH_shared_scan.json (obs/report.h; checked by
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
#include "obs/metrics.h"
#include "obs/report.h"

namespace {

using namespace fielddb;

constexpr size_t kClients = 64;     // concurrent in-flight queries
constexpr size_t kThreads = 8;      // executor workers, both modes
constexpr uint64_t kSeed = 3003;
constexpr double kQInterval = 0.35;  // wide => heavy overlap across clients

bool Fail(const Status& s) {
  std::fprintf(stderr, "%s\n", s.ToString().c_str());
  return false;
}

bool RunMode(const FieldDatabase& db, const std::vector<ValueInterval>& queries,
             bool shared, QueryExecutor::BatchResult* out) {
  QueryExecutor::Options eo;
  eo.threads = kThreads;
  eo.queue_capacity = kClients;
  eo.shared_scan = shared;
  QueryExecutor executor(&db, eo);

  // Small warmup so lazy one-time work never lands inside the measured
  // window. The pool is far smaller than the store, so the measured
  // sweeps miss either way.
  const std::vector<ValueInterval> warm(queries.begin(),
                                        queries.begin() + kThreads);
  QueryExecutor::BatchResult warmup;
  const Status sw = executor.RunBatch(warm, &warmup);
  if (!sw.ok()) return Fail(sw);

  const Status sb = executor.RunBatch(queries, out);
  if (!sb.ok()) return Fail(sb);
  return true;
}

int Run(uint32_t num_queries) {
  StatusOr<GridField> terrain = MakeRoseburgLikeTerrain();
  if (!terrain.ok()) return Fail(terrain.status()) ? 0 : 1;

  // Build in memory, persist, reopen from disk: the reopened database
  // reads through DiskPageFile's batch path, which is the machinery
  // under test.
  const std::string prefix = "bench_shared_scan_db";
  {
    FieldDatabaseOptions options;
    options.method = IndexMethod::kIHilbert;
    StatusOr<std::unique_ptr<FieldDatabase>> built =
        FieldDatabase::Build(*terrain, options);
    if (!built.ok()) return Fail(built.status()) ? 0 : 1;
    const Status saved = (*built)->Save(prefix);
    if (!saved.ok()) return Fail(saved) ? 0 : 1;
  }

  FieldDatabase::OpenOptions oo;
  // Far smaller than the store: every sweep misses and pays real reads.
  oo.pool_pages = 256;
  StatusOr<std::unique_ptr<FieldDatabase>> db = FieldDatabase::Open(prefix, oo);
  if (!db.ok()) return Fail(db.status()) ? 0 : 1;
  const uint64_t field_cells = (*db)->build_info().num_cells;
  std::printf("store: %llu cells, %llu pages; pool %zu pages\n",
              static_cast<unsigned long long>(field_cells),
              static_cast<unsigned long long>((*db)->build_info().store_pages),
              oo.pool_pages);

  WorkloadOptions wo;
  wo.qinterval_fraction = kQInterval;
  wo.num_queries = num_queries;
  wo.seed = kSeed;
  const std::vector<ValueInterval> queries =
      GenerateValueQueries((*db)->value_range(), wo);

  Counter* groups_counter =
      MetricsRegistry::Default().GetCounter("executor.shared_scan_groups");

  QueryExecutor::BatchResult iso;
  if (!RunMode(**db, queries, /*shared=*/false, &iso)) return 1;
  const uint64_t groups_before = groups_counter->value();
  QueryExecutor::BatchResult shared;
  if (!RunMode(**db, queries, /*shared=*/true, &shared)) return 1;
  const uint64_t groups = groups_counter->value() - groups_before;
  std::remove((prefix + ".pages").c_str());
  std::remove((prefix + ".meta").c_str());

  BenchReport report("shared_scan",
                     "Shared-scan multi-query execution: 64 overlapping "
                     "clients, Fig-8a terrain, disk-backed");
  report.Config("method", IndexMethodName(IndexMethod::kIHilbert));
  report.Config("field_cells", field_cells);
  report.Config("num_queries", num_queries);
  report.Config("clients", kClients);
  report.Config("threads", kThreads);
  report.Config("scan_group_cap", QueryExecutor::kMaxScanGroup);
  report.Config("workload_seed", kSeed);
  const unsigned hw = std::thread::hardware_concurrency();
  report.Config("hardware_threads", hw);
  report.Config("qinterval", kQInterval);
  for (const bool is_shared : {false, true}) {
    const QueryExecutor::BatchResult& b = is_shared ? shared : iso;
    report.AddPoint()
        .Label("mode", is_shared ? "shared" : "isolated")
        .Metric("qps", b.qps)
        .Metric("p50_wall_ms", b.p50_wall_ms)
        .Metric("p99_wall_ms", b.p99_wall_ms)
        .Metric("physical_reads", b.total.io.physical_reads)
        .Metric("logical_reads", b.total.io.logical_reads)
        .Metric("failed", b.failed)
        .Metric("scan_groups", is_shared ? groups : 0);
    std::printf("%-9s qps=%9.1f p50=%8.3fms p99=%8.3fms physical=%llu "
                "logical=%llu failed=%llu\n",
                is_shared ? "shared:" : "isolated:", b.qps, b.p50_wall_ms,
                b.p99_wall_ms,
                static_cast<unsigned long long>(b.total.io.physical_reads),
                static_cast<unsigned long long>(b.total.io.logical_reads),
                static_cast<unsigned long long>(b.failed));
  }

  // Bit-identical answers, query by query.
  uint64_t answer_mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    answer_mismatches += iso.per_query[i].answer_cells !=
                         shared.per_query[i].answer_cells;
  }
  const double speedup = iso.qps > 0.0 ? shared.qps / iso.qps : 0.0;
  std::printf("speedup: %.2fx (target 1.5x), groups=%llu\n", speedup,
              static_cast<unsigned long long>(groups));

  report.Invariant("failed_queries",
                   static_cast<double>(iso.failed + shared.failed),
                   GateOp::kEq, 0);
  report.Invariant("answer_mismatches",
                   static_cast<double>(answer_mismatches), GateOp::kEq, 0);
  // Leader-charged shared IoStats sum to no more than the isolated
  // run's totals.
  report.Invariant("shared_physical_reads",
                   static_cast<double>(shared.total.io.physical_reads),
                   GateOp::kLe,
                   static_cast<double>(iso.total.io.physical_reads));
  report.Invariant("shared_logical_reads",
                   static_cast<double>(shared.total.io.logical_reads),
                   GateOp::kLe,
                   static_cast<double>(iso.total.io.logical_reads));
  report.Invariant("shared_scan_groups", static_cast<double>(groups),
                   GateOp::kGe, 1);
  // The fused sweeps buy real throughput.
  report.Timing("speedup", speedup, GateOp::kGe, 1.5);
  report.Timing("hardware_threads", hw, GateOp::kGe, 2);
  return report.Finish();
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t num_queries = 4 * kClients;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      num_queries = kClients;
    }
  }
  return Run(num_queries);
}
