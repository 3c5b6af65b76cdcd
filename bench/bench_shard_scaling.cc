// Shard-scaling bench for the shard-per-core serving layer: one router
// per shard count in {1, 2, 4, 8}, 64 concurrent clients hammering the
// scatter/gather front door with the same warm-cache value workload
// (DESIGN.md §18).
//
// Like bench_scaling this run is CPU-bound (per-shard pools sized for
// full residency, warmup pass first), so the curve isolates what the
// refactor is for: N independent BufferPools, value indexes and
// executor lanes instead of one contended engine. speedup_vs_1 only
// approaches the shard count on hosts that actually have the cores, and
// even there it is a wall-clock ratio that depends on host load: the
// >= 2.5x target (best speedup at no more shards than hardware threads)
// is a timing gate, recorded and warned about, never a failed run, as
// is a capture on a single hardware thread. The run fails only on an
// invariant gate: a failed query, unordered percentiles or a missing
// one-shard baseline.
//
// Emits BENCH_shard_scaling.json (obs/report.h; checked by
// tools/check_bench_json.py).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/shard_router.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace {

using namespace fielddb;

constexpr uint64_t kSeed = 2002;
constexpr double kQInterval = 0.05;
constexpr size_t kClients = 64;
constexpr double kSpeedupTarget = 2.5;

struct ShardPoint {
  uint32_t shards = 0;
  double qps = 0.0;
  double avg_wall_ms = 0.0;
  double p50_wall_ms = 0.0;
  double p99_wall_ms = 0.0;
  double speedup_vs_1 = 0.0;
  double shards_skipped_frac = 0.0;
  uint64_t admission_waits = 0;
  uint64_t failed = 0;
};

bool Fail(const Status& s) {
  std::fprintf(stderr, "%s\n", s.ToString().c_str());
  return false;
}

bool RunPoint(const Field& field, uint32_t shards,
              const std::vector<ValueInterval>& queries, ShardPoint* out) {
  ShardRouterOptions options;
  options.shards = shards;
  options.db.method = IndexMethod::kIHilbert;
  // Full residency per shard: every shard count sees all-hit I/O, so
  // the sweep measures scatter/gather + lane parallelism, not paging.
  options.db.pool_pages = 16384;
  StatusOr<std::unique_ptr<ShardRouter>> router =
      ShardRouter::Build(field, options);
  if (!router.ok()) return Fail(router.status());

  Counter* waits =
      MetricsRegistry::Default().GetCounter("router.admission_waits");
  const uint64_t waits_before = waits->value();

  // Warmup: one full pass populates every shard's pool.
  for (const ValueInterval& q : queries) {
    ValueQueryResult result;
    const Status s = (*router)->Query({.bands = {&q, 1}, .regions = false},
                                      {&result, 1});
    if (!s.ok()) return Fail(s);
  }

  std::atomic<size_t> next{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> touched{0};
  std::atomic<uint64_t> skipped{0};
  std::vector<std::vector<double>> client_wall_ms(kClients);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= queries.size()) break;
        RouterQueryProfile profile;
        ValueQueryResult result;
        const auto q0 = std::chrono::steady_clock::now();
        const Status s = (*router)->Query(
            {.bands = {&queries[i], 1}, .regions = false}, {&result, 1},
            &profile);
        const auto q1 = std::chrono::steady_clock::now();
        if (!s.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        client_wall_ms[c].push_back(
            std::chrono::duration<double, std::milli>(q1 - q0).count());
        touched.fetch_add(profile.shards_touched, std::memory_order_relaxed);
        skipped.fetch_add(profile.shards_skipped, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<double> wall_ms;
  for (const auto& per_client : client_wall_ms) {
    wall_ms.insert(wall_ms.end(), per_client.begin(), per_client.end());
  }
  std::sort(wall_ms.begin(), wall_ms.end());

  out->shards = static_cast<uint32_t>((*router)->num_shards());
  out->qps = wall_s > 0.0 ? static_cast<double>(wall_ms.size()) / wall_s : 0.0;
  double sum = 0.0;
  for (const double ms : wall_ms) sum += ms;
  out->avg_wall_ms =
      wall_ms.empty() ? 0.0 : sum / static_cast<double>(wall_ms.size());
  out->p50_wall_ms = PercentileOfSorted(wall_ms, 50);
  out->p99_wall_ms = PercentileOfSorted(wall_ms, 99);
  const uint64_t routed = touched.load() + skipped.load();
  out->shards_skipped_frac =
      routed > 0 ? static_cast<double>(skipped.load()) /
                       static_cast<double>(routed)
                 : 0.0;
  out->admission_waits = waits->value() - waits_before;
  out->failed = failed.load();
  return (*router)->Close().ok();
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t num_queries = 512;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) num_queries = 96;
  }

  StatusOr<GridField> terrain = MakeRoseburgLikeTerrain();
  if (!terrain.ok()) {
    std::fprintf(stderr, "%s\n", terrain.status().ToString().c_str());
    return 1;
  }
  const uint64_t field_cells = terrain->NumCells();

  WorkloadOptions wo;
  wo.qinterval_fraction = kQInterval;
  wo.num_queries = num_queries;
  wo.seed = kSeed;
  const std::vector<ValueInterval> queries =
      GenerateValueQueries(terrain->ValueRange(), wo);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u  clients: %zu\n", hw, kClients);

  BenchReport report("shard_scaling",
                     "Shard scaling: 64 concurrent clients, warm-cache value "
                     "queries, 512x512 fractal terrain");
  report.Config("method", IndexMethodName(IndexMethod::kIHilbert));
  report.Config("field_cells", field_cells);
  report.Config("num_queries", num_queries);
  report.Config("clients", kClients);
  report.Config("workload_seed", kSeed);
  report.Config("qinterval", kQInterval);
  report.Config("hardware_threads", hw);

  const std::vector<uint32_t> shard_counts = {1, 2, 4, 8};
  double qps_at_1 = 0.0;
  double speedup_at_cores = 0.0;
  uint64_t failed = 0;
  size_t single_shard_points = 0;
  size_t percentile_inversions = 0;
  for (const uint32_t shards : shard_counts) {
    ShardPoint p;
    if (!RunPoint(*terrain, shards, queries, &p)) return 1;
    if (p.shards == 1) {
      qps_at_1 = p.qps;
      ++single_shard_points;
    }
    p.speedup_vs_1 = qps_at_1 > 0.0 ? p.qps / qps_at_1 : 0.0;
    if (p.shards <= hw) {
      speedup_at_cores = std::max(speedup_at_cores, p.speedup_vs_1);
    }
    failed += p.failed;
    percentile_inversions += !(p.p50_wall_ms <= p.p99_wall_ms);
    report.AddPoint()
        .Label("shards", p.shards)
        .Metric("qps", p.qps)
        .Metric("avg_wall_ms", p.avg_wall_ms)
        .Metric("p50_wall_ms", p.p50_wall_ms)
        .Metric("p99_wall_ms", p.p99_wall_ms)
        .Metric("speedup_vs_1", p.speedup_vs_1)
        .Metric("shards_skipped_frac", p.shards_skipped_frac)
        .Metric("admission_waits", p.admission_waits)
        .Metric("failed", p.failed);
    std::printf("shards=%u qps=%9.1f p50=%8.3fms p99=%8.3fms speedup=%.2fx "
                "skipped=%.0f%% waits=%llu failed=%llu\n",
                p.shards, p.qps, p.p50_wall_ms, p.p99_wall_ms, p.speedup_vs_1,
                p.shards_skipped_frac * 100.0,
                static_cast<unsigned long long>(p.admission_waits),
                static_cast<unsigned long long>(p.failed));
  }

  report.Invariant("failed_queries", static_cast<double>(failed),
                   GateOp::kEq, 0);
  report.Invariant("wall_percentile_inversions",
                   static_cast<double>(percentile_inversions), GateOp::kEq, 0);
  report.Invariant("single_shard_baseline",
                   static_cast<double>(single_shard_points), GateOp::kEq, 1);
  // The router on up to one shard per core against one shard.
  report.Timing("speedup", speedup_at_cores, GateOp::kGe, kSpeedupTarget);
  // One hardware thread measures queueing, not parallel speedup.
  report.Timing("hardware_threads", hw, GateOp::kGe, 2);
  return report.Finish();
}
