// Shard-scaling bench for the shard-per-core serving layer: one router
// per shard count in {1, 2, 4, 8}, 64 concurrent clients hammering the
// scatter/gather front door with the same warm-cache value workload
// (DESIGN.md §18).
//
// Like bench_scaling this run is CPU-bound (per-shard pools sized for
// full residency, warmup pass first), so the curve isolates what the
// refactor is for: N independent BufferPools, value indexes and
// executor lanes instead of one contended engine. speedup_vs_1 only
// approaches the shard count on hosts that actually have the cores; the
// >= 2.5x target therefore only arms when hardware_threads >= 4
// (speedup_gated in the JSON records whether it did — single-core
// captures are flagged by tools/check_bench_json.py). Even armed it is a
// wall-clock ratio that depends on host load, so it is recorded
// (speedup_ok) and warned about, never a failed run; the run fails only
// when a query fails.
//
// Emits BENCH_shard_scaling.json (schema validated by
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
#include "obs/json.h"
#include "obs/metrics.h"

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

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
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
    QueryStats stats;
    const Status s = (*router)->ValueQueryStats(q, &stats);
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
        QueryStats stats;
        const auto q0 = std::chrono::steady_clock::now();
        const Status s = (*router)->ValueQueryStats(queries[i], &stats,
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
  out->p50_wall_ms = Percentile(wall_ms, 0.50);
  out->p99_wall_ms = Percentile(wall_ms, 0.99);
  const uint64_t routed = touched.load() + skipped.load();
  out->shards_skipped_frac =
      routed > 0 ? static_cast<double>(skipped.load()) /
                       static_cast<double>(routed)
                 : 0.0;
  out->admission_waits = waits->value() - waits_before;
  out->failed = failed.load();
  return (*router)->Close().ok();
}

bool WriteJson(const std::string& path, const std::vector<ShardPoint>& points,
               uint64_t field_cells, uint32_t num_queries, bool gated,
               bool speedup_ok) {
  std::string j = "{\n  \"bench_id\": \"shard_scaling\",\n  \"title\": ";
  JsonAppendString(&j, "Shard scaling: 64 concurrent clients, warm-cache "
                       "value queries, 512x512 fractal terrain");
  j += ",\n  \"shard_scaling_bench\": true";
  j += ",\n  \"method\": ";
  JsonAppendString(&j, IndexMethodName(IndexMethod::kIHilbert));
  j += ",\n  \"field_cells\": " + std::to_string(field_cells);
  j += ",\n  \"num_queries\": " + std::to_string(num_queries);
  j += ",\n  \"clients\": " + std::to_string(kClients);
  j += ",\n  \"workload_seed\": " + std::to_string(kSeed);
  j += ",\n  \"qinterval\": ";
  JsonAppendDouble(&j, kQInterval);
  j += ",\n  \"hardware_threads\": " +
       std::to_string(std::thread::hardware_concurrency());
  j += ",\n  \"points\": [";
  for (size_t i = 0; i < points.size(); ++i) {
    const ShardPoint& p = points[i];
    j += i == 0 ? "\n" : ",\n";
    j += "    {\"shards\": " + std::to_string(p.shards);
    j += ", \"qps\": ";
    JsonAppendDouble(&j, p.qps);
    j += ", \"avg_wall_ms\": ";
    JsonAppendDouble(&j, p.avg_wall_ms);
    j += ", \"p50_wall_ms\": ";
    JsonAppendDouble(&j, p.p50_wall_ms);
    j += ", \"p99_wall_ms\": ";
    JsonAppendDouble(&j, p.p99_wall_ms);
    j += ", \"speedup_vs_1\": ";
    JsonAppendDouble(&j, p.speedup_vs_1);
    j += ", \"shards_skipped_frac\": ";
    JsonAppendDouble(&j, p.shards_skipped_frac);
    j += ", \"admission_waits\": " + std::to_string(p.admission_waits);
    j += ", \"failed\": " + std::to_string(p.failed) + "}";
  }
  j += "\n  ],\n  \"speedup_target\": ";
  JsonAppendDouble(&j, kSpeedupTarget);
  j += ",\n  \"speedup_gated\": ";
  j += gated ? "true" : "false";
  j += ",\n  \"speedup_ok\": ";
  j += speedup_ok ? "true" : "false";
  j += "\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(j.data(), 1, j.size(), f) == j.size();
  std::fclose(f);
  if (ok) std::printf("telemetry: %s\n", path.c_str());
  return ok;
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

  const std::vector<uint32_t> shard_counts = {1, 2, 4, 8};
  std::vector<ShardPoint> points;
  double qps_at_1 = 0.0;
  for (const uint32_t shards : shard_counts) {
    ShardPoint p;
    if (!RunPoint(*terrain, shards, queries, &p)) return 1;
    if (p.shards == 1) qps_at_1 = p.qps;
    p.speedup_vs_1 = qps_at_1 > 0.0 ? p.qps / qps_at_1 : 0.0;
    points.push_back(p);
    std::printf("shards=%u qps=%9.1f p50=%8.3fms p99=%8.3fms speedup=%.2fx "
                "skipped=%.0f%% waits=%llu failed=%llu\n",
                p.shards, p.qps, p.p50_wall_ms, p.p99_wall_ms, p.speedup_vs_1,
                p.shards_skipped_frac * 100.0,
                static_cast<unsigned long long>(p.admission_waits),
                static_cast<unsigned long long>(p.failed));
    if (p.failed != 0) {
      std::fprintf(stderr, "shards=%u: %llu queries failed\n", p.shards,
                   static_cast<unsigned long long>(p.failed));
      return 1;
    }
  }

  // The >= 2.5x target (router on N=cores shards vs N=1) only arms on
  // real multi-core hardware; a 1-core container can at best reshuffle
  // the same CPU between lanes.
  const bool gated = hw >= 4;
  double speedup_at_cores = 0.0;
  for (const ShardPoint& p : points) {
    if (p.shards <= hw) speedup_at_cores = std::max(speedup_at_cores,
                                                    p.speedup_vs_1);
  }
  bool speedup_ok = true;
  if (gated) {
    speedup_ok = speedup_at_cores >= kSpeedupTarget;
    if (!speedup_ok) {
      std::fprintf(stderr,
                   "warning: speedup %.2fx at <= %u shards, target %.1fx "
                   "(recorded, not enforced: depends on host load)\n",
                   speedup_at_cores, hw, kSpeedupTarget);
    }
  } else {
    std::printf("speedup gate disarmed: %u hardware thread(s) < 4\n", hw);
  }

  if (!WriteJson("BENCH_shard_scaling.json", points, field_cells, num_queries,
                 gated, speedup_ok)) {
    return 1;
  }
  return 0;
}
