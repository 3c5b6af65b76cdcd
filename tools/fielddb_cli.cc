// fielddb command-line tool: generate field databases, persist them, and
// query them from the shell.
//
//   fielddb_cli gen     --out PREFIX [--type fractal|monotonic|noise-tin]
//                       [--size-exp N] [--h H] [--seed S]
//                       [--method i-hilbert|i-all|linear-scan|i-quadtree]
//   fielddb_cli info    --db PREFIX
//   fielddb_cli query   --db PREFIX --min W --max W [--svg FILE]
//   fielddb_cli explain --db PREFIX --min W --max W [--format text|json]
//   fielddb_cli plan    --db PREFIX --min W --max W
//                       [--mode auto|scan|index]
//                       (prints the planner's decision and predicted
//                       disk-model cost, then executes the query and
//                       reports the observed cost next to it)
//   fielddb_cli isoline --db PREFIX --level W
//   fielddb_cli point   --db PREFIX --x X --y Y
//   fielddb_cli bench   --db PREFIX [--qinterval F] [--queries N]
//                       [--json FILE] [--threads N]
//                       (--threads > 1 runs the workload through a
//                       QueryExecutor thread pool, warm cache, and
//                       reports throughput instead of per-figure stats)
//   fielddb_cli stats   --db PREFIX [--qinterval F] [--queries N]
//                       [--threads N] [--format group|prom|json]
//                       [--watch SEC] [--count N]
//                       (default output groups instruments by subsystem
//                       — storage.wal.*, storage.pool.*, db.*,
//                       executor.* including shared_scan_groups — one
//                       block each, followed by an [slo] block with
//                       each query class's error budget remaining and
//                       burn rate; --watch re-runs the workload and
//                       reprints every SEC seconds, --count bounds the
//                       refreshes)
//   fielddb_cli serve   [--db PREFIX] [--shards N] [--clients N]
//                       [--seconds S] [--interval SEC] [--qinterval F]
//                       [--queries N] [--pool-pages N]
//                       (long-running loop against the sharded router:
//                       N concurrent clients replay the workload while
//                       rolling QPS, latency tails, admission waits and
//                       per-class SLO budget print every SEC seconds;
//                       --db opens a router saved under PREFIX, without
//                       it a fractal terrain is built in memory,
//                       sharded --shards ways, default one per core)
//   fielddb_cli trace   --db PREFIX [--out FILE] [--qinterval F]
//                       [--queries N] [--threads N]
//                       (records the trace-v2 ring buffers across open +
//                       recovery + a QueryExecutor workload and writes
//                       Chrome trace-event JSON for ui.perfetto.dev)
//   fielddb_cli top     --db PREFIX [--rounds N] [--queries N]
//                       [--top N]
//                       (drives the metrics sampler over a workload and
//                       prints the hottest instruments by rate)
//   fielddb_cli events  --db PREFIX [--log FILE] [--threshold MS]
//                       [--limit N]
//                       (opens the database with the structured event
//                       log attached, runs a workload, and dumps the
//                       JSONL records — threshold 0 logs every query)
//   fielddb_cli scrub   --db PREFIX
//   fielddb_cli wal     --db PREFIX [--limit N]
//                       (decodes PREFIX.wal read-only: stats, torn-tail
//                       report, and up to N frames — lsn, epoch, type,
//                       cell, value count, byte offset)
//   fielddb_cli recover --db PREFIX [--dry-run]
//                       [--mode off|async|fsync]
//                       (--dry-run scans the log without touching any
//                       file and reports what a replay would do;
//                       otherwise opens the database, replaying the log
//                       per --mode — "off" folds it into a fresh
//                       checkpoint — and prints the recovery report)
//   fielddb_cli ext     --type volume|vector|temporal [--n N]
//                       [--budget BYTES] [--mode auto|scan|index]
//                       [--min W --max W] [--t T] [--out PREFIX]
//                       (builds a synthetic extension field — 3-D
//                       volume, 2-D vector, or temporal — optionally
//                       under a build memory budget (external-sort
//                       spill telemetry is printed), optionally
//                       Save/Open round-trips it through --out, then
//                       runs one band query and prints the physical
//                       plan the extension planner chose)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/explain.h"
#include "core/field_database.h"
#include "core/query_executor.h"
#include "core/shard_router.h"
#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"
#include "gen/fractal.h"
#include "gen/monotonic.h"
#include "gen/noise_tin.h"
#include "gen/workload.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/slo.h"
#include "obs/trace_buffer.h"
#include "storage/wal.h"

namespace {

using namespace fielddb;

// Minimal --key value argument parsing. A "--key" followed by another
// option (or by nothing) is a boolean flag: Has("key") is true, the
// value empty.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) continue;
      const char* key = argv[i] + 2;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[i + 1];
        ++i;
      } else {
        values_[key] = "";
      }
    }
  }

  std::string Get(const std::string& key, const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  double GetDouble(const std::string& key, double def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : std::atof(it->second.c_str());
  }
  long GetLong(const std::string& key, long def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : std::atol(it->second.c_str());
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

StatusOr<IndexMethod> ParseMethod(const std::string& name) {
  if (name == "i-hilbert") return IndexMethod::kIHilbert;
  if (name == "i-all") return IndexMethod::kIAll;
  if (name == "linear-scan") return IndexMethod::kLinearScan;
  if (name == "i-quadtree") return IndexMethod::kIntervalQuadtree;
  return Status::InvalidArgument("unknown method: " + name);
}

int CmdGen(const Args& args) {
  const std::string out = args.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "gen requires --out PREFIX\n");
    return 2;
  }
  StatusOr<IndexMethod> method =
      ParseMethod(args.Get("method", "i-hilbert"));
  if (!method.ok()) return Fail(method.status());

  FieldDatabaseOptions options;
  options.method = *method;

  const std::string type = args.Get("type", "fractal");
  std::unique_ptr<FieldDatabase> db;
  if (type == "fractal" || type == "monotonic") {
    StatusOr<GridField> field = [&]() -> StatusOr<GridField> {
      if (type == "monotonic") {
        const uint32_t n = uint32_t{1}
                           << args.GetLong("size-exp", 8);
        return MakeMonotonicField(n, n);
      }
      FractalOptions fo;
      fo.size_exp = static_cast<int>(args.GetLong("size-exp", 8));
      fo.roughness_h = args.GetDouble("h", 0.7);
      fo.seed = static_cast<uint64_t>(args.GetLong("seed", 42));
      return MakeFractalField(fo);
    }();
    if (!field.ok()) return Fail(field.status());
    auto built = FieldDatabase::Build(*field, options);
    if (!built.ok()) return Fail(built.status());
    db = std::move(built).value();
  } else if (type == "noise-tin") {
    NoiseTinOptions no;
    no.seed = static_cast<uint64_t>(args.GetLong("seed", 69));
    StatusOr<TinField> field = MakeUrbanNoiseTin(no);
    if (!field.ok()) return Fail(field.status());
    auto built = FieldDatabase::Build(*field, options);
    if (!built.ok()) return Fail(built.status());
    db = std::move(built).value();
  } else {
    std::fprintf(stderr, "unknown --type %s\n", type.c_str());
    return 2;
  }

  const Status s = db->Save(out);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s.pages / %s.meta (%llu cells, %s, %llu subfields)\n",
              out.c_str(), out.c_str(),
              static_cast<unsigned long long>(db->build_info().num_cells),
              IndexMethodName(db->method()),
              static_cast<unsigned long long>(
                  db->build_info().num_subfields));
  return 0;
}

int CmdInfo(const Args& args) {
  auto db = FieldDatabase::Open(args.Get("db", ""));
  if (!db.ok()) return Fail(db.status());
  const IndexBuildInfo& info = (*db)->build_info();
  std::printf("method:       %s\n", IndexMethodName((*db)->method()));
  std::printf("cells:        %llu\n",
              static_cast<unsigned long long>(info.num_cells));
  std::printf("index entries:%llu\n",
              static_cast<unsigned long long>(info.num_index_entries));
  std::printf("subfields:    %llu\n",
              static_cast<unsigned long long>(info.num_subfields));
  std::printf("tree height:  %u\n", info.tree_height);
  std::printf("store pages:  %llu\n",
              static_cast<unsigned long long>(info.store_pages));
  std::printf("value range:  %s\n",
              (*db)->value_range().ToString().c_str());
  const Rect2& d = (*db)->domain();
  std::printf("domain:       [%g, %g] x [%g, %g]\n", d.lo.x, d.hi.x,
              d.lo.y, d.hi.y);
  return 0;
}

int CmdQuery(const Args& args) {
  auto db = FieldDatabase::Open(args.Get("db", ""));
  if (!db.ok()) return Fail(db.status());
  const ValueInterval band{args.GetDouble("min", 0),
                           args.GetDouble("max", 0)};
  ValueQueryResult result;
  const Status s = (*db)->Query({.bands = {&band, 1}}, {&result, 1});
  if (!s.ok()) return Fail(s);
  std::printf(
      "band %s: %zu pieces, area %.6f, %llu candidates, %llu answer "
      "cells, %llu pages, %.3f ms\n",
      band.ToString().c_str(), result.region.NumPieces(),
      result.region.TotalArea(),
      static_cast<unsigned long long>(result.stats.candidate_cells),
      static_cast<unsigned long long>(result.stats.answer_cells),
      static_cast<unsigned long long>(result.stats.io.logical_reads),
      result.stats.wall_seconds * 1000.0);
  if (args.Has("svg")) {
    const std::string path = args.Get("svg", "query.svg");
    if (!WriteSvg(path.c_str(), (*db)->domain(),
                  {SvgLayer{result.region.pieces}})) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

int CmdIsoline(const Args& args) {
  auto db = FieldDatabase::Open(args.Get("db", ""));
  if (!db.ok()) return Fail(db.status());
  IsolineQueryResult result;
  const Status s =
      (*db)->IsolineQuery(args.GetDouble("level", 0), &result);
  if (!s.ok()) return Fail(s);
  std::printf("isoline: %zu polylines, total length %.6f, %llu cells\n",
              result.isoline.polylines.size(),
              result.isoline.TotalLength(),
              static_cast<unsigned long long>(result.stats.answer_cells));
  return 0;
}

int CmdPoint(const Args& args) {
  auto db = FieldDatabase::Open(args.Get("db", ""));
  if (!db.ok()) return Fail(db.status());
  StatusOr<double> w = (*db)->PointQuery(
      {args.GetDouble("x", 0), args.GetDouble("y", 0)});
  if (!w.ok()) return Fail(w.status());
  std::printf("%.10g\n", *w);
  return 0;
}

int CmdExplain(const Args& args) {
  auto db = FieldDatabase::Open(args.Get("db", ""));
  if (!db.ok()) return Fail(db.status());
  const ValueInterval band{args.GetDouble("min", 0),
                           args.GetDouble("max", 0)};
  ExplainResult result;
  const Status s = ExplainValueQuery(**db, band, &result);
  if (!s.ok()) return Fail(s);
  if (args.Get("format", "text") == "json") {
    std::printf("%s\n", result.ToJson().c_str());
  } else {
    std::printf("%s", result.ToString().c_str());
  }
  return 0;
}

int CmdPlan(const Args& args) {
  auto db = FieldDatabase::Open(args.Get("db", ""));
  if (!db.ok()) return Fail(db.status());
  const std::string mode_name = args.Get("mode", "auto");
  PlannerMode mode = PlannerMode::kAuto;
  if (mode_name == "scan") {
    mode = PlannerMode::kForceScan;
  } else if (mode_name == "index") {
    mode = PlannerMode::kForceIndex;
  } else if (mode_name != "auto") {
    std::fprintf(stderr, "unknown --mode %s (auto|scan|index)\n",
                 mode_name.c_str());
    return 2;
  }
  (*db)->set_planner_mode(mode);
  const ValueInterval band{args.GetDouble("min", 0),
                           args.GetDouble("max", 0)};

  const PhysicalPlan plan = (*db)->PlanValueQuery(band);
  std::printf("PLAN %s (mode %s) on %s\n", band.ToString().c_str(),
              PlannerModeName(mode), IndexMethodName((*db)->method()));
  std::printf("  chosen:     %s\n", PlanKindName(plan.kind));
  std::printf("  reason:     %s\n", plan.reason.c_str());
  std::printf(
      "  predicted:  %.2f ms (fused_scan %.2f ms, indexed_filter %.2f ms)\n",
      plan.predicted_cost_ms, plan.scan_cost_ms, plan.index_cost_ms);
  std::printf("  candidates: %llu (%.2f%% selectivity, %llu runs)\n",
              static_cast<unsigned long long>(plan.predicted_candidates),
              plan.selectivity * 100.0,
              static_cast<unsigned long long>(plan.predicted_runs));

  // Now run the same query cold and put the observed cost next to the
  // prediction (the pool is warm after Open's store scan; the predicted
  // pattern models cold reads, so clear it for a comparable number).
  const Status cs = (*db)->pool().Clear();
  if (!cs.ok()) return Fail(cs);
  ValueQueryResult result;
  const Status s =
      (*db)->Query({.bands = {&band, 1}, .regions = false}, {&result, 1});
  if (!s.ok()) return Fail(s);
  const QueryStats& qs = result.stats;
  const DiskModel disk = (*db)->planner().cost_model().disk();
  std::printf(
      "  observed:   %.2f ms (%llu sequential + %llu random reads, "
      "%llu candidates)\n",
      disk.EstimateMs(qs.io.sequential_reads, qs.io.random_reads()),
      static_cast<unsigned long long>(qs.io.sequential_reads),
      static_cast<unsigned long long>(qs.io.random_reads()),
      static_cast<unsigned long long>(qs.candidate_cells));
  return 0;
}

int CmdBench(const Args& args) {
  auto db = FieldDatabase::Open(args.Get("db", ""));
  if (!db.ok()) return Fail(db.status());
  WorkloadOptions wo;
  wo.qinterval_fraction = args.GetDouble("qinterval", 0.02);
  wo.num_queries = static_cast<uint32_t>(args.GetLong("queries", 200));
  wo.seed = static_cast<uint64_t>(args.GetLong("seed", 2002));
  const std::vector<ValueInterval> queries =
      GenerateValueQueries((*db)->value_range(), wo);

  if (const long threads = args.GetLong("threads", 1); threads > 1) {
    // Concurrent mode: warm-cache throughput across a fixed thread
    // pool. Cold cache makes no sense here — concurrent queries would
    // clear each other's pages mid-flight.
    QueryExecutor::Options eo;
    eo.threads = static_cast<size_t>(threads);
    QueryExecutor executor(db->get(), eo);
    QueryExecutor::BatchResult warmup;  // populate the pool once
    const Status sw = executor.RunBatch(queries, &warmup);
    if (!sw.ok()) return Fail(sw);
    QueryExecutor::BatchResult batch;
    const Status sb = executor.RunBatch(queries, &batch);
    if (!sb.ok()) return Fail(sb);
    std::printf(
        "threads=%zu queries=%zu wall=%.3fs qps=%.1f "
        "p50=%.3fms p90=%.3fms p99=%.3fms failed=%llu\n",
        executor.threads(), queries.size(), batch.wall_seconds, batch.qps,
        batch.p50_wall_ms, batch.p90_wall_ms, batch.p99_wall_ms,
        static_cast<unsigned long long>(batch.failed));
    std::printf(
        "total io: logical=%llu physical=%llu\n",
        static_cast<unsigned long long>(batch.total.io.logical_reads),
        static_cast<unsigned long long>(batch.total.io.physical_reads));
    return 0;
  }

  auto ws = (*db)->RunWorkload(queries);
  if (!ws.ok()) return Fail(ws.status());

  // Same reporting path as the figure benches: a one-series, one-point
  // FigureRun renders both the stdout tables and (with --json) the
  // report check_bench_json.py validates.
  FigureRun run;
  run.field_cells = (*db)->build_info().num_cells;
  run.value_range = (*db)->value_range();
  run.num_queries = wo.num_queries;
  run.workload_seed = wo.seed;
  FigureSeries& series = run.series.emplace_back();
  series.method = IndexMethodName((*db)->method());
  series.build = (*db)->build_info();
  series.points.emplace_back(wo.qinterval_fraction, *ws);
  PrintFigureTables(run);
  std::printf("%s\n", ws->ToString().c_str());
  if (args.Has("json")) {
    return FigureReport("cli", "fielddb_cli bench " + args.Get("db", ""),
                        run, 1)
        .Finish(args.Get("json", "BENCH_cli.json"));
  }
  return 0;
}

int CmdStats(const Args& args) {
  auto db = FieldDatabase::Open(args.Get("db", ""));
  if (!db.ok()) return Fail(db.status());
  // Drive a short workload with recording on so the snapshot holds live
  // data for this database (pool latency percentiles need physical
  // reads to sample). The workload runs through a QueryExecutor with
  // shared-scan scheduling and SLO tracking on — that is the serving
  // configuration, and it is what puts executor.shared_scan_groups and
  // the slo.* histograms into the grouped output.
  MetricsRegistry::set_enabled(true);
  WorkloadOptions wo;
  wo.qinterval_fraction = args.GetDouble("qinterval", 0.02);
  wo.num_queries = static_cast<uint32_t>(args.GetLong("queries", 50));
  wo.seed = static_cast<uint64_t>(args.GetLong("seed", 2002));
  const std::vector<ValueInterval> queries =
      GenerateValueQueries((*db)->value_range(), wo);
  const std::string format = args.Get("format", "group");
  const double watch_sec = args.GetDouble("watch", 0.0);
  const long count = args.GetLong("count", watch_sec > 0 ? -1 : 1);

  SloTracker slo(SloTracker::DefaultQueryClasses());
  QueryExecutor::Options eo;
  eo.threads = static_cast<size_t>(args.GetLong("threads", 2));
  eo.shared_scan = true;
  eo.slo = &slo;
  QueryExecutor executor(db->get(), eo);

  for (long i = 0; count < 0 || i < count; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(watch_sec));
    }
    QueryExecutor::BatchResult batch;
    const Status s = executor.RunBatch(queries, &batch);
    if (!s.ok()) return Fail(s);
    if (format == "json") {
      std::printf("%s\n", MetricsRegistry::Default().ToJson().c_str());
      std::printf("%s\n", slo.ToJson().c_str());
    } else if (format == "prom") {
      std::printf("%s",
                  MetricsRegistry::Default().ToPrometheusText().c_str());
    } else {
      std::printf("%s",
                  MetricsRegistry::Default().ToGroupedText().c_str());
      // The numbers an operator pages on, next to the raw instruments:
      // per-class error budget remaining (1 = untouched, 0 = spent,
      // negative = SLO blown) and the burn rate since the last refresh.
      std::printf("[slo]\n");
      for (const SloTracker::ClassSnapshot& c : slo.Snapshot()) {
        std::printf(
            "  %-28s %.1f%% budget remaining  (%llu/%llu in %gms @ "
            "p%g, burn %.2f)\n",
            c.query_class.c_str(), c.error_budget_remaining * 100.0,
            static_cast<unsigned long long>(c.total - c.violations),
            static_cast<unsigned long long>(c.total), c.target_ms,
            c.target_fraction * 100.0, c.burn_rate);
      }
    }
    if (watch_sec > 0) {
      std::printf("--- refresh %ld (every %.3gs, ctrl-c to stop) ---\n",
                  i + 1, watch_sec);
      std::fflush(stdout);
    } else if (count == 1) {
      break;  // plain one-shot stats
    }
  }
  return 0;
}

// Long-running serving loop against the shard-per-core router
// (DESIGN.md §18): N concurrent clients replay a value workload in a
// loop while the main thread prints rolling QPS / latency tails /
// per-class SLO budget every --interval seconds. With --db it opens a
// router previously persisted by ShardRouter::Save; without it the
// loop builds an in-memory router over a fresh fractal terrain, which
// is what makes "qps at 64 concurrent clients" benchable on a bare
// checkout.
int CmdServe(const Args& args) {
  MetricsRegistry::set_enabled(true);
  const uint32_t shards = static_cast<uint32_t>(std::max(
      1L, args.GetLong("shards",
                       std::max(1u, std::thread::hardware_concurrency()))));
  StatusOr<std::unique_ptr<ShardRouter>> router = [&] {
    if (args.Has("db")) {
      ShardRouter::OpenOptions oo;
      oo.pool_pages = static_cast<size_t>(args.GetLong("pool-pages", 4096));
      return ShardRouter::Open(args.Get("db", ""), oo);
    }
    StatusOr<GridField> terrain = MakeRoseburgLikeTerrain(
        static_cast<uint64_t>(args.GetLong("seed", 1972)));
    if (!terrain.ok()) {
      return StatusOr<std::unique_ptr<ShardRouter>>(terrain.status());
    }
    ShardRouterOptions ro;
    ro.shards = shards;
    ro.db.pool_pages = static_cast<size_t>(args.GetLong("pool-pages", 16384));
    return ShardRouter::Build(*terrain, ro);
  }();
  if (!router.ok()) return Fail(router.status());
  std::printf("serving %llu cells across %zu shard(s)\n",
              static_cast<unsigned long long>((*router)->num_cells()),
              (*router)->num_shards());

  WorkloadOptions wo;
  wo.qinterval_fraction = args.GetDouble("qinterval", 0.02);
  wo.num_queries = static_cast<uint32_t>(args.GetLong("queries", 512));
  wo.seed = static_cast<uint64_t>(args.GetLong("seed", 2002));
  const std::vector<ValueInterval> queries =
      GenerateValueQueries((*router)->value_range(), wo);

  const size_t clients = static_cast<size_t>(
      std::max(1L, args.GetLong("clients", 64)));
  const double seconds = args.GetDouble("seconds", 10.0);
  const double interval = std::max(0.1, args.GetDouble("interval", 2.0));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> failed{0};
  // The clients append window latencies under one mutex; the reporter
  // swaps the vector out each tick. Contention is irrelevant at CLI
  // query rates and keeps the rolling percentiles exact.
  std::mutex window_mu;
  std::vector<double> window_ms;

  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      size_t i = c;  // stagger the replay so clients do not convoy
      while (!stop.load(std::memory_order_relaxed)) {
        const ValueInterval& q = queries[i++ % queries.size()];
        ValueQueryResult result;
        const auto t0 = std::chrono::steady_clock::now();
        const Status s =
            (*router)->Query({.bands = {&q, 1}, .regions = false},
                             {&result, 1});
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        if (!s.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        completed.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(window_mu);
        window_ms.push_back(ms);
      }
    });
  }

  Counter* waits =
      MetricsRegistry::Default().GetCounter("router.admission_waits");
  const auto serve_start = std::chrono::steady_clock::now();
  uint64_t last_completed = 0;
  uint64_t last_waits = waits->value();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - serve_start)
                               .count();
    std::vector<double> window;
    {
      std::lock_guard<std::mutex> lock(window_mu);
      window.swap(window_ms);
    }
    std::sort(window.begin(), window.end());
    const auto pct = [&window](double p) {
      if (window.empty()) return 0.0;
      const size_t idx = static_cast<size_t>(
          p * static_cast<double>(window.size() - 1) + 0.5);
      return window[std::min(idx, window.size() - 1)];
    };
    const uint64_t done = completed.load();
    const uint64_t now_waits = waits->value();
    std::printf("[%7.1fs] qps=%9.1f p50=%8.3fms p99=%8.3fms "
                "inflight_waits=%llu failed=%llu\n",
                elapsed, static_cast<double>(done - last_completed) / interval,
                pct(0.50), pct(0.99),
                static_cast<unsigned long long>(now_waits - last_waits),
                static_cast<unsigned long long>(failed.load()));
    for (const SloTracker::ClassSnapshot& c : (*router)->slo().Snapshot()) {
      std::printf("          slo %-10s %6.1f%% budget  burn %.2f  "
                  "p99 %.3fms\n",
                  c.query_class.c_str(), c.error_budget_remaining * 100.0,
                  c.burn_rate, c.p99_ms);
    }
    std::fflush(stdout);
    last_completed = done;
    last_waits = now_waits;
    if (seconds > 0 && elapsed >= seconds) break;
  }
  stop.store(true);
  for (std::thread& t : pool) t.join();
  const Status close = (*router)->Close();
  if (!close.ok()) return Fail(close);
  return failed.load() == 0 ? 0 : 1;
}

int CmdTrace(const Args& args) {
  // Recording has to be live before Open so the recovery and wal.scan
  // spans of the attach itself land in the trace.
  MetricsRegistry::set_enabled(true);
  TraceBuffer::set_enabled(true);
  auto db = FieldDatabase::Open(args.Get("db", ""));
  if (!db.ok()) return Fail(db.status());

  WorkloadOptions wo;
  wo.qinterval_fraction = args.GetDouble("qinterval", 0.02);
  wo.num_queries = static_cast<uint32_t>(args.GetLong("queries", 100));
  wo.seed = static_cast<uint64_t>(args.GetLong("seed", 2002));
  const std::vector<ValueInterval> queries =
      GenerateValueQueries((*db)->value_range(), wo);

  // Through the executor, not RunWorkload: the queue-wait spans only
  // exist where a queue does.
  QueryExecutor::Options eo;
  eo.threads = static_cast<size_t>(args.GetLong("threads", 4));
  QueryExecutor executor(db->get(), eo);
  QueryExecutor::BatchResult batch;
  const Status s = executor.RunBatch(queries, &batch);
  if (!s.ok()) return Fail(s);

  TraceBuffer& tb = TraceBuffer::Global();
  const std::string out = args.Get("out", "TRACE_cli.json");
  const Status w = tb.WriteChromeTrace(out);
  if (!w.ok()) return Fail(w);

  std::map<std::string, uint64_t> by_category;
  for (const TraceEvent& e : tb.Snapshot()) ++by_category[e.category];
  std::printf("trace: %s (%llu events, %llu dropped)\n", out.c_str(),
              static_cast<unsigned long long>(tb.total_recorded()),
              static_cast<unsigned long long>(tb.total_dropped()));
  for (const auto& [category, n] : by_category) {
    std::printf("  %-12s %llu\n", category.c_str(),
                static_cast<unsigned long long>(n));
  }
  std::printf("load it at ui.perfetto.dev or chrome://tracing\n");
  return 0;
}

int CmdTop(const Args& args) {
  auto db = FieldDatabase::Open(args.Get("db", ""));
  if (!db.ok()) return Fail(db.status());
  MetricsRegistry::set_enabled(true);
  WorkloadOptions wo;
  wo.qinterval_fraction = args.GetDouble("qinterval", 0.02);
  wo.num_queries = static_cast<uint32_t>(args.GetLong("queries", 50));
  wo.seed = static_cast<uint64_t>(args.GetLong("seed", 2002));
  const std::vector<ValueInterval> queries =
      GenerateValueQueries((*db)->value_range(), wo);

  // The CLI drives the cadence itself (one tick per workload round)
  // instead of racing a background thread against a finite workload.
  MetricsSampler sampler(&MetricsRegistry::Default());
  sampler.SampleOnce();  // baseline so round rates are true deltas
  const long rounds = std::max(1L, args.GetLong("rounds", 3));
  for (long i = 0; i < rounds; ++i) {
    auto ws = (*db)->RunWorkload(queries);
    if (!ws.ok()) return Fail(ws.status());
    sampler.SampleOnce();
  }

  std::vector<MetricsSampler::LatestRate> latest = sampler.Latest();
  std::sort(latest.begin(), latest.end(),
            [](const MetricsSampler::LatestRate& a,
               const MetricsSampler::LatestRate& b) {
              return std::fabs(a.rate_per_sec) > std::fabs(b.rate_per_sec);
            });
  const size_t top = static_cast<size_t>(args.GetLong("top", 15));
  std::printf("%-36s %-8s %16s %16s\n", "instrument", "kind", "value",
              "rate/s");
  for (size_t i = 0; i < latest.size() && i < top; ++i) {
    const MetricsSampler::LatestRate& r = latest[i];
    std::printf("%-36s %-8s %16.6g %16.6g\n", r.name.c_str(),
                r.kind == MetricsRegistry::InstrumentKind::kCounter
                    ? "counter"
                    : "gauge",
                r.value, r.rate_per_sec);
  }
  if (args.Has("json")) {
    const std::string path = args.Get("json", "SAMPLER_cli.json");
    const Status w = sampler.WriteJson(path);
    if (!w.ok()) return Fail(w);
    std::printf("sampler series: %s\n", path.c_str());
  }
  return 0;
}

int CmdEvents(const Args& args) {
  const std::string prefix = args.Get("db", "");
  if (prefix.empty()) {
    std::fprintf(stderr, "events requires --db PREFIX\n");
    return 2;
  }
  const std::string log_path = args.Get("log", prefix + ".events.jsonl");
  FieldDatabase::OpenOptions options;
  options.event_log_path = log_path;
  options.slow_query_threshold_ms = args.GetDouble("threshold", 0.0);
  auto db = FieldDatabase::Open(prefix, options);
  if (!db.ok()) return Fail(db.status());

  WorkloadOptions wo;
  wo.qinterval_fraction = args.GetDouble("qinterval", 0.02);
  wo.num_queries = static_cast<uint32_t>(args.GetLong("queries", 20));
  wo.seed = static_cast<uint64_t>(args.GetLong("seed", 2002));
  auto ws = (*db)->RunWorkload(
      GenerateValueQueries((*db)->value_range(), wo));
  if (!ws.ok()) return Fail(ws.status());
  if ((*db)->event_log() != nullptr) {
    const Status sync = (*db)->event_log()->Sync();
    if (!sync.ok()) return Fail(sync);
  }

  std::FILE* f = std::fopen(log_path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", log_path.c_str());
    return 1;
  }
  const long limit = args.GetLong("limit", -1);
  long printed = 0;
  char line[4096];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (limit >= 0 && printed >= limit) break;
    std::fputs(line, stdout);
    ++printed;
  }
  std::fclose(f);
  std::fprintf(stderr, "%ld events from %s\n", printed, log_path.c_str());
  return 0;
}

int CmdScrub(const Args& args) {
  auto db = FieldDatabase::Open(args.Get("db", ""));
  if (!db.ok()) return Fail(db.status());
  FieldDatabase::ScrubReport report;
  const Status s = (*db)->Scrub(&report);
  if (!s.ok()) return Fail(s);
  std::printf("scrub: %llu pages checked, %zu corrupt\n",
              static_cast<unsigned long long>(report.pages_checked),
              report.corrupt_pages.size());
  for (const PageId id : report.corrupt_pages) {
    std::printf("corrupt page %llu\n", static_cast<unsigned long long>(id));
  }
  return report.clean() ? 0 : 1;
}

int CmdWal(const Args& args) {
  const std::string db = args.Get("db", "");
  if (db.empty()) {
    std::fprintf(stderr, "wal requires --db PREFIX\n");
    return 2;
  }
  const std::string path = db + ".wal";
  StatusOr<WalScanResult> scan = WriteAheadLog::Scan(path);
  if (!scan.ok()) return Fail(scan.status());

  std::printf("log:            %s\n", path.c_str());
  std::printf("file bytes:     %llu\n",
              static_cast<unsigned long long>(scan->file_bytes));
  std::printf("valid bytes:    %llu\n",
              static_cast<unsigned long long>(scan->valid_bytes));
  std::printf("frames:         %zu\n", scan->frames.size());
  if (scan->torn_bytes() > 0) {
    std::printf("torn tail:      %llu bytes (%s)\n",
                static_cast<unsigned long long>(scan->torn_bytes()),
                scan->torn_reason.c_str());
  } else {
    std::printf("torn tail:      none\n");
  }

  // Split frames by epoch against the snapshot, when one is readable
  // (the log may outlive its database, so a missing catalog is not an
  // error for a dump tool).
  StatusOr<uint32_t> epoch = FieldDatabase::PeekEpoch(db);
  uint64_t replayable = 0, stale = 0;
  if (epoch.ok()) {
    for (const WalFrame& f : scan->frames) {
      (f.epoch == *epoch ? replayable : stale) += 1;
    }
    std::printf("snapshot epoch: %u (%llu replayable, %llu stale)\n",
                *epoch, static_cast<unsigned long long>(replayable),
                static_cast<unsigned long long>(stale));
  } else {
    std::printf("snapshot epoch: unreadable (%s)\n",
                epoch.status().ToString().c_str());
  }

  const long limit = args.GetLong("limit", -1);
  long printed = 0;
  for (const WalFrame& f : scan->frames) {
    if (limit >= 0 && printed++ >= limit) {
      std::printf("... %zu more frames (raise --limit)\n",
                  scan->frames.size() - static_cast<size_t>(limit));
      break;
    }
    std::printf(
        "frame lsn=%llu epoch=%u type=%s cell=%llu values=%zu "
        "offset=%llu%s\n",
        static_cast<unsigned long long>(f.lsn), f.epoch,
        f.type == WriteAheadLog::kUpdateValuesFrame ? "update" : "?",
        static_cast<unsigned long long>(f.cell_id), f.values.size(),
        static_cast<unsigned long long>(f.offset),
        epoch.ok() && f.epoch != *epoch ? " [stale]" : "");
  }
  return 0;
}

int CmdRecover(const Args& args) {
  const std::string db = args.Get("db", "");
  if (db.empty()) {
    std::fprintf(stderr, "recover requires --db PREFIX\n");
    return 2;
  }
  WalMode mode = WalMode::kFsyncOnCommit;
  if (!ParseWalMode(args.Get("mode", "fsync"), &mode)) {
    std::fprintf(stderr, "unknown --mode %s (off|async|fsync)\n",
                 args.Get("mode", "").c_str());
    return 2;
  }

  if (args.Has("dry-run")) {
    // Read-only: scan the log and the catalog epoch; report what a
    // real recovery would replay, skip, and truncate.
    StatusOr<WalScanResult> scan = WriteAheadLog::Scan(db + ".wal");
    if (!scan.ok()) return Fail(scan.status());
    StatusOr<uint32_t> epoch = FieldDatabase::PeekEpoch(db);
    if (!epoch.ok()) return Fail(epoch.status());
    uint64_t replayable = 0, stale = 0;
    for (const WalFrame& f : scan->frames) {
      (f.epoch == *epoch ? replayable : stale) += 1;
    }
    std::printf("dry run: no files modified\n");
    std::printf("would replay:   %llu frames\n",
                static_cast<unsigned long long>(replayable));
    std::printf("would skip:     %llu stale frames\n",
                static_cast<unsigned long long>(stale));
    std::printf("would truncate: %llu torn bytes%s%s\n",
                static_cast<unsigned long long>(scan->torn_bytes()),
                scan->torn_reason.empty() ? "" : " — ",
                scan->torn_reason.c_str());
    if (mode == WalMode::kOff && (replayable > 0 || stale > 0)) {
      std::printf(
          "would fold the log into a fresh checkpoint (--mode off)\n");
    }
    return 0;
  }

  FieldDatabase::RecoveryReport report;
  FieldDatabase::OpenOptions options;
  options.wal_mode = mode;
  options.recovery_report = &report;
  auto opened = FieldDatabase::Open(db, options);
  if (!opened.ok()) return Fail(opened.status());
  std::printf("replayed:       %llu frames\n",
              static_cast<unsigned long long>(report.frames_replayed));
  std::printf("stale skipped:  %llu frames\n",
              static_cast<unsigned long long>(report.stale_frames));
  std::printf("torn truncated: %llu bytes\n",
              static_cast<unsigned long long>(report.torn_bytes));
  std::printf("valid prefix:   %llu bytes\n",
              static_cast<unsigned long long>(report.valid_bytes));
  std::printf("pages verified: %llu, %zu corrupt\n",
              static_cast<unsigned long long>(report.pages_verified),
              report.corrupt_pages.size());
  for (const PageId id : report.corrupt_pages) {
    std::printf("corrupt page %llu\n", static_cast<unsigned long long>(id));
  }
  if (report.folded) {
    std::printf("log folded into a fresh checkpoint and removed\n");
  }
  if (!report.trace.spans().empty()) {
    std::printf("%s", report.trace.ToString().c_str());
  }
  return report.corrupt_pages.empty() ? 0 : 1;
}

void PrintExtPlan(const PhysicalPlan& plan) {
  std::printf("plan:           %s\n", PlanKindName(plan.kind));
  std::printf("reason:         %s\n", plan.reason.c_str());
  std::printf("candidates:     %llu predicted in %llu runs "
              "(selectivity %.4f)\n",
              static_cast<unsigned long long>(plan.predicted_candidates),
              static_cast<unsigned long long>(plan.predicted_runs),
              plan.selectivity);
  std::printf("cost model:     scan %.3f ms vs index %.3f ms -> "
              "chosen %.3f ms\n",
              plan.scan_cost_ms, plan.index_cost_ms,
              plan.predicted_cost_ms);
}

void PrintExtBuildTelemetry(uint64_t spill_runs, uint64_t peak_bytes,
                            size_t budget) {
  if (budget > 0) {
    std::printf("build budget:   %zu bytes, %llu spill runs, peak "
                "buffered %llu bytes\n",
                budget, static_cast<unsigned long long>(spill_runs),
                static_cast<unsigned long long>(peak_bytes));
  }
}

// Drives the unified extension engines end to end from the shell: build
// a synthetic field of the requested type (optionally under a
// bounded-memory external-sort budget), optionally Save/Open round-trip
// it, then execute one band query and report the planner's decision.
int CmdExt(const Args& args) {
  const std::string type = args.Get("type", "volume");
  const long n = std::max(2L, args.GetLong("n", 16));
  const size_t budget =
      static_cast<size_t>(std::max(0L, args.GetLong("budget", 0)));
  const std::string out = args.Get("out", "");
  const std::string mode_name = args.Get("mode", "auto");
  PlannerMode mode = PlannerMode::kAuto;
  if (mode_name == "scan") {
    mode = PlannerMode::kForceScan;
  } else if (mode_name == "index") {
    mode = PlannerMode::kForceIndex;
  } else if (mode_name != "auto") {
    std::fprintf(stderr, "unknown --mode %s (auto|scan|index)\n",
                 mode_name.c_str());
    return 2;
  }

  // Default band: the middle half of the field's value range, unless
  // --min/--max pin one explicitly.
  const auto band_of = [&args](const ValueInterval& range) {
    ValueInterval band;
    const double span = range.max - range.min;
    band.min = args.GetDouble("min", range.min + 0.25 * span);
    band.max = args.GetDouble("max", range.max - 0.25 * span);
    return band;
  };

  if (type == "volume") {
    VolumeFractalOptions vo;
    vo.nx = vo.ny = vo.nz = static_cast<uint32_t>(n);
    vo.roughness_h = 0.7;
    vo.seed = 909;
    auto volume = MakeFractalVolume(vo);
    if (!volume.ok()) return Fail(volume.status());
    VolumeFieldDatabase::Options options;
    options.planner_mode = mode;
    options.build_memory_budget_bytes = budget;
    auto db = VolumeFieldDatabase::Build(*volume, options);
    if (!db.ok()) return Fail(db.status());
    std::printf("volume field:   %ld^3 voxels, %zu subfields\n", n,
                (*db)->subfields().size());
    PrintExtBuildTelemetry((*db)->ext_spill_runs(),
                           (*db)->ext_peak_buffered_bytes(), budget);
    if (!out.empty()) {
      if (const Status s = (*db)->Save(out); !s.ok()) return Fail(s);
      auto reopened = VolumeFieldDatabase::Open(out);
      if (!reopened.ok()) return Fail(reopened.status());
      db = std::move(reopened);
      (*db)->set_planner_mode(mode);
      std::printf("round trip:     saved + reopened %s (epoch %u)\n",
                  out.c_str(), (*db)->epoch());
    }
    const ValueInterval band = band_of(volume->ValueRange());
    VolumeQueryResult result;
    if (const Status s = (*db)->BandQuery(band, &result); !s.ok()) {
      return Fail(s);
    }
    std::printf("band [%g, %g]:  %llu cells, volume %.6g\n", band.min,
                band.max,
                static_cast<unsigned long long>(result.stats.answer_cells),
                result.volume);
    PrintExtPlan(result.plan);
    return 0;
  }

  if (type == "vector") {
    // Affine (u, v) = (x + y, x - y) on an n x n grid: smooth value
    // boxes so the zone maps and subfields have real pruning power.
    const uint32_t verts = static_cast<uint32_t>(n) + 1;
    std::vector<double> su(verts * verts), sv(verts * verts);
    for (uint32_t j = 0; j < verts; ++j) {
      for (uint32_t i = 0; i < verts; ++i) {
        su[j * verts + i] = static_cast<double>(i) + j;
        sv[j * verts + i] = static_cast<double>(i) - j;
      }
    }
    auto field = VectorGridField::Create(
        static_cast<uint32_t>(n), static_cast<uint32_t>(n),
        Rect2{{0.0, 0.0}, {1.0, 1.0}}, su, sv);
    if (!field.ok()) return Fail(field.status());
    VectorFieldDatabase::Options options;
    options.planner_mode = mode;
    options.build_memory_budget_bytes = budget;
    auto db = VectorFieldDatabase::Build(*field, options);
    if (!db.ok()) return Fail(db.status());
    std::printf("vector field:   %ldx%ld cells, %zu subfields\n", n, n,
                (*db)->subfields().size());
    PrintExtBuildTelemetry((*db)->ext_spill_runs(),
                           (*db)->ext_peak_buffered_bytes(), budget);
    if (!out.empty()) {
      if (const Status s = (*db)->Save(out); !s.ok()) return Fail(s);
      auto reopened = VectorFieldDatabase::Open(out);
      if (!reopened.ok()) return Fail(reopened.status());
      db = std::move(reopened);
      (*db)->set_planner_mode(mode);
      std::printf("round trip:     saved + reopened %s (epoch %u)\n",
                  out.c_str(), (*db)->epoch());
    }
    const Box<2> range = field->ValueRangeBox();
    VectorBandQuery query;
    query.u = band_of(ValueInterval{range.lo[0], range.hi[0]});
    query.v.min = args.GetDouble("vmin", range.lo[1]);
    query.v.max = args.GetDouble("vmax", range.hi[1]);
    VectorQueryResult result;
    if (const Status s = (*db)->BandQuery(query, &result); !s.ok()) {
      return Fail(s);
    }
    std::printf("band u [%g, %g] x v [%g, %g]: %llu cells\n",
                query.u.min, query.u.max, query.v.min, query.v.max,
                static_cast<unsigned long long>(
                    result.stats.answer_cells));
    PrintExtPlan(result.plan);
    return 0;
  }

  if (type == "temporal") {
    // A drifting ramp: vertex (i, j) at snapshot k holds i + j + 10k,
    // so every slab sees genuinely moving values.
    const uint32_t verts = static_cast<uint32_t>(n) + 1;
    const uint32_t num_snapshots =
        static_cast<uint32_t>(std::max(2L, args.GetLong("snapshots", 4)));
    std::vector<std::vector<double>> snapshots(num_snapshots);
    for (uint32_t k = 0; k < num_snapshots; ++k) {
      snapshots[k].resize(verts * verts);
      for (uint32_t j = 0; j < verts; ++j) {
        for (uint32_t i = 0; i < verts; ++i) {
          snapshots[k][j * verts + i] =
              static_cast<double>(i) + j + 10.0 * k;
        }
      }
    }
    auto field = TemporalGridField::Create(
        static_cast<uint32_t>(n), static_cast<uint32_t>(n),
        Rect2{{0.0, 0.0}, {1.0, 1.0}}, std::move(snapshots));
    if (!field.ok()) return Fail(field.status());
    TemporalFieldDatabase::Options options;
    options.planner_mode = mode;
    options.build_memory_budget_bytes = budget;
    auto db = TemporalFieldDatabase::Build(*field, options);
    if (!db.ok()) return Fail(db.status());
    std::printf("temporal field: %ldx%ld cells, %u slabs, %llu "
                "subfields\n",
                n, n, (*db)->num_slabs(),
                static_cast<unsigned long long>((*db)->num_subfields()));
    PrintExtBuildTelemetry((*db)->ext_spill_runs(),
                           (*db)->ext_peak_buffered_bytes(), budget);
    if (!out.empty()) {
      if (const Status s = (*db)->Save(out); !s.ok()) return Fail(s);
      auto reopened = TemporalFieldDatabase::Open(out);
      if (!reopened.ok()) return Fail(reopened.status());
      db = std::move(reopened);
      (*db)->set_planner_mode(mode);
      std::printf("round trip:     saved + reopened %s (epoch %u)\n",
                  out.c_str(), (*db)->epoch());
    }
    const double t = args.GetDouble("t", 0.5);
    const ValueInterval band = band_of(field->ValueRange());
    ValueQueryResult result;
    if (const Status s = (*db)->SnapshotValueQuery(t, band, &result);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("t=%g band [%g, %g]: %llu cells\n", t, band.min,
                band.max,
                static_cast<unsigned long long>(
                    result.stats.answer_cells));
    PrintExtPlan(result.plan);
    return 0;
  }

  std::fprintf(stderr, "unknown --type %s (volume|vector|temporal)\n",
               type.c_str());
  return 2;
}

void Usage() {
  std::fprintf(stderr,
               "usage: fielddb_cli <gen|info|query|explain|plan|isoline"
               "|point|bench|stats|serve|trace|top|events|scrub|wal|recover"
               "|ext> [--key value ...]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const Args args(argc, argv, 2);
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "info") return CmdInfo(args);
  if (cmd == "query") return CmdQuery(args);
  if (cmd == "explain") return CmdExplain(args);
  if (cmd == "plan") return CmdPlan(args);
  if (cmd == "isoline") return CmdIsoline(args);
  if (cmd == "point") return CmdPoint(args);
  if (cmd == "bench") return CmdBench(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "trace") return CmdTrace(args);
  if (cmd == "top") return CmdTop(args);
  if (cmd == "events") return CmdEvents(args);
  if (cmd == "scrub") return CmdScrub(args);
  if (cmd == "wal") return CmdWal(args);
  if (cmd == "recover") return CmdRecover(args);
  if (cmd == "ext") return CmdExt(args);
  Usage();
  return 2;
}
