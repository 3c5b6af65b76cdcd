// Observability overhead benchmark: measures what the whole always-on
// obs layer — metrics registry, trace-v2 ring buffers, the 10 ms
// metrics sampler, and an attached structured event log at the default
// slow-query threshold — costs on the Fig-8a terrain workload, against
// a 5% budget.
//
// Each rep times a fixed workload slice in *process CPU time* four
// times in ABBA order (obs-off, obs-on, obs-on, obs-off; order flipped
// every rep), which cancels drift that is linear in time within a rep,
// and the reported overhead is the median rep ratio. Process CPU time
// deliberately includes the sampler thread — its cycles are part of
// what "always on" costs.
//
// Before measuring, the run saves and reopens the database and pushes
// the workload through a QueryExecutor with tracing live, so the
// exported TRACE_obs_overhead.json carries every span family the
// validator requires: plan, wal, recovery, and queue-wait.
//
// Emits BENCH_obs_overhead.json (obs/report.h; checked by
// tools/check_bench_json.py). The 5% budget is a CPU-time ratio whose
// reading depends on host load, so it is a timing gate: recorded and
// warned about, never a failed run. The run fails only on an invariant
// gate: a missing trace family.
//
// --quick shrinks the terrain and rep count for the CTest smoke run.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/field_database.h"
#include "core/query_executor.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/trace_buffer.h"

namespace {

using namespace fielddb;

constexpr char kPrefix[] = "bench_obs_overhead_db";
constexpr double kOverheadLimitPct = 5.0;

void RemoveArtifacts() {
  for (const char* suffix : {".pages", ".meta", ".pages.tmp", ".meta.tmp",
                             ".wal", ".events.jsonl", ".events.jsonl.1"}) {
    std::remove((std::string(kPrefix) + suffix).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const uint64_t seed = 2002;
  const double sampler_period_ms = 10.0;
  const double threshold_ms = 25.0;  // the production default

  StatusOr<GridField> terrain = [&]() -> StatusOr<GridField> {
    if (!quick) return MakeRoseburgLikeTerrain();
    FractalOptions fo;
    fo.size_exp = 6;  // 64x64 smoke terrain
    fo.roughness_h = 0.7;
    fo.seed = 1972;
    return MakeFractalField(fo);
  }();
  if (!terrain.ok()) {
    std::fprintf(stderr, "%s\n", terrain.status().ToString().c_str());
    return 1;
  }

  FieldDatabaseOptions options;
  options.method = IndexMethod::kIHilbert;
  options.build_spatial_index = false;
  StatusOr<std::unique_ptr<FieldDatabase>> built =
      FieldDatabase::Build(*terrain, options);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  const uint64_t field_cells = (*built)->build_info().num_cells;

  RemoveArtifacts();
  if (const Status s = (*built)->Save(kPrefix); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  built->reset();

  // Reopen with the full obs stack live so the trace captures the
  // recovery + wal.scan spans of the attach itself and the event log
  // records the recovery event.
  MetricsRegistry::set_enabled(true);
  TraceBuffer::set_enabled(true);
  // Rings sized so the one-shot recovery/wal spans from Open and a full
  // warmup pass coexist in the retained window on the full-size terrain
  // (drop-oldest would otherwise evict them before the export below).
  // Must precede the first enabled record: capacity only applies to
  // rings created afterwards.
  TraceBuffer::Global().set_ring_capacity(size_t{1} << 17);
  FieldDatabase::OpenOptions oo;
  oo.event_log_path = std::string(kPrefix) + ".events.jsonl";
  oo.slow_query_threshold_ms = threshold_ms;
  auto db = FieldDatabase::Open(kPrefix, oo);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }

  WorkloadOptions wo;
  wo.qinterval_fraction = 0.02;  // the Fig-8a sweet spot
  wo.num_queries = quick ? 60 : 200;
  wo.seed = seed;
  const std::vector<ValueInterval> queries =
      GenerateValueQueries((*db)->value_range(), wo);

  // Queue-wait spans only exist where a queue does: one warm batch
  // through a thread pool before the single-threaded measurement.
  {
    QueryExecutor::Options eo;
    eo.threads = 4;
    QueryExecutor executor(db->get(), eo);
    QueryExecutor::BatchResult batch;
    if (const Status s = executor.RunBatch(queries, &batch); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  // --- ABBA CPU-time measurement -------------------------------------
  // Off = the engine with no observability at all: metrics recording
  // disabled, the trace-v2 buffer gated, the sampler stopped and the
  // slow-query threshold unreachable. On = everything a production
  // process leaves running. The ratio is the cost of the whole layer.
  std::vector<ValueInterval> slice(
      queries.begin(),
      queries.begin() + std::min<size_t>(queries.size(), 50));
  (void)(*db)->RunWorkload(slice);  // warmup: neither side pays first-touch

  // Export the trace artifact now, while the rings still retain the
  // whole story — Open's recovery/wal.scan spans, the executor batch's
  // queue-waits, and the warmup queries. The ABBA loop below reruns the
  // slice dozens of times and would lap the bounded rings, evicting the
  // one-shot families (that drop-oldest behavior is by design; the
  // artifact just has to be cut before it applies).
  TraceBuffer& tb = TraceBuffer::Global();
  if (const Status s = tb.WriteChromeTrace("TRACE_obs_overhead.json");
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::map<std::string, uint64_t> families;
  for (const TraceEvent& e : tb.Snapshot()) ++families[e.category];
  const uint64_t trace_recorded = tb.total_recorded();
  const uint64_t trace_dropped = tb.total_dropped();

  MetricsSampler sampler(&MetricsRegistry::Default(),
                         MetricsSampler::Options{sampler_period_ms, 300});
  auto cpu_ms_pass = [&](bool enable) -> double {
    MetricsRegistry::set_enabled(enable);
    TraceBuffer::set_enabled(enable);
    (*db)->set_slow_query_threshold_ms(enable ? threshold_ms : 1e18);
    if (enable) {
      sampler.Start();
    } else {
      sampler.Stop();
    }
    const std::clock_t t0 = std::clock();
    StatusOr<WorkloadStats> ws = (*db)->RunWorkload(slice);
    const std::clock_t t1 = std::clock();
    if (!ws.ok()) return 0.0;
    return 1000.0 * static_cast<double>(t1 - t0) / CLOCKS_PER_SEC;
  };

  const int reps = quick ? 5 : 15;
  std::vector<double> ratios;
  double off_total_ms = 0.0, on_total_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const bool a_is_off = (rep % 2 == 0);  // ABBA then BAAB, ...
    const double a1 = cpu_ms_pass(!a_is_off);
    const double b1 = cpu_ms_pass(a_is_off);
    const double b2 = cpu_ms_pass(a_is_off);
    const double a2 = cpu_ms_pass(!a_is_off);
    const double off_ms = a_is_off ? a1 + a2 : b1 + b2;
    const double on_ms = a_is_off ? b1 + b2 : a1 + a2;
    if (off_ms > 0 && on_ms > 0) {
      ratios.push_back(on_ms / off_ms);
      off_total_ms += off_ms;
      on_total_ms += on_ms;
      std::printf("rep %2d: off=%8.2fms on=%8.2fms ratio=%.4f\n", rep,
                  off_ms, on_ms, on_ms / off_ms);
    }
  }
  sampler.Stop();
  MetricsRegistry::set_enabled(true);
  TraceBuffer::set_enabled(true);
  (*db)->set_slow_query_threshold_ms(threshold_ms);

  if (ratios.empty()) {
    std::fprintf(stderr, "no valid reps (clock too coarse?)\n");
    return 1;
  }
  std::sort(ratios.begin(), ratios.end());
  const size_t n = ratios.size();
  const double overhead_pct = (PercentileOfSorted(ratios, 50) - 1.0) * 100.0;

  // --- Report + acceptance -------------------------------------------
  const uint64_t events_appended =
      (*db)->event_log() != nullptr ? (*db)->event_log()->events_appended()
                                    : 0;

  std::printf(
      "obs overhead: %.2f%% (median of %zu ABBA reps; off %.1fms, on "
      "%.1fms total CPU)\n",
      overhead_pct, n, off_total_ms, on_total_ms);
  std::printf("trace: %llu events (%llu dropped) -> TRACE_obs_overhead.json\n",
              static_cast<unsigned long long>(trace_recorded),
              static_cast<unsigned long long>(trace_dropped));
  for (const auto& [name, cnt] : families) {
    std::printf("  %-12s %llu\n", name.c_str(),
                static_cast<unsigned long long>(cnt));
  }

  db->reset();
  RemoveArtifacts();

  BenchReport report("obs_overhead",
                     "Always-on observability overhead, Fig-8a terrain "
                     "workload (CPU-time ABBA medians)");
  report.Config("method", IndexMethodName(IndexMethod::kIHilbert));
  report.Config("field_cells", field_cells);
  report.Config("num_queries", wo.num_queries);
  report.Config("workload_seed", seed);
  report.Config("sampler_period_ms", sampler_period_ms);
  report.Config("slow_query_threshold_ms", threshold_ms);
  BenchPoint& point = report.AddPoint()
                          .Metric("reps", n)
                          .Metric("off_cpu_ms", off_total_ms)
                          .Metric("on_cpu_ms", on_total_ms)
                          .Metric("overhead_pct", overhead_pct)
                          .Metric("trace_events", trace_recorded)
                          .Metric("trace_dropped", trace_dropped)
                          .Metric("event_log_appended", events_appended);
  for (const auto& [name, cnt] : families) {
    point.Metric("trace_events." + name, cnt);
  }
  report.Timing("overhead_pct", overhead_pct, GateOp::kLt, kOverheadLimitPct);
  for (const char* family : {"plan", "wal", "recovery", "queue-wait"}) {
    const auto it = families.find(family);
    report.Invariant(std::string("trace_events.") + family,
                     it == families.end() ? 0 : it->second, GateOp::kGe, 1);
  }
  return report.Finish();
}
