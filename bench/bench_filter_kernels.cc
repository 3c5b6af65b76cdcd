// Microbench for the vectorized filter pipeline: on the Fig. 8a terrain
// (512x512 fractal DEM), times the filter step of a LinearScan database
// three ways at fixed selectivities —
//
//   record_scan     the pre-zone-map engine: fetch every page, deserialize
//                   every record, test cell.Interval().Intersects(q)
//   zonemap_scalar  the SoA zone map through the portable scalar kernel
//   zonemap_simd    the same arrays through the dispatched kernel (AVX2
//                   when compiled in and the CPU has it)
//
// All three must produce identical candidate-run lists (an invariant
// gate of the report). The pool is sized to hold the whole store and
// warmed first, so the comparison isolates filter CPU cost, not
// simulated disk.
//
// Emits BENCH_filter_kernels.json (obs/report.h; checked by
// tools/check_bench_json.py).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd/interval_filter.h"
#include "gen/fractal.h"
#include "index/value_index.h"
#include "obs/report.h"
#include "storage/page_file.h"

namespace {

using namespace fielddb;
using Clock = std::chrono::steady_clock;

struct KernelPoint {
  double selectivity = 0.0;       // target fraction of matching cells
  double band_width = 0.0;        // calibrated query-interval width
  uint32_t num_queries = 0;
  double matched_cells_avg = 0.0;  // achieved avg matches per query
  double record_scan_ms = 0.0;
  double zonemap_scalar_ms = 0.0;
  double zonemap_simd_ms = 0.0;
  double speedup_scalar = 0.0;  // record_scan / zonemap_scalar
  double speedup_simd = 0.0;    // record_scan / zonemap_simd
  uint64_t mismatches = 0;      // queries whose three run lists differ
};

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

// Average fraction of cells whose interval intersects a width-`w` band,
// over a fixed set of probe centers (pure zone-map work, so calibration
// is cheap).
double Coverage(const CellStore& store, const std::vector<double>& centers,
                double w) {
  uint64_t total = 0;
  std::vector<PosRange> out;
  for (const double c : centers) {
    out.clear();
    store.zone_map().FilterRanges(ValueInterval{c - w / 2, c + w / 2}, &out);
    total += TotalRangeLength(out);
  }
  return static_cast<double>(total) /
         (static_cast<double>(centers.size()) *
          static_cast<double>(store.size()));
}

// Bisects the band width that makes the average match fraction hit
// `target` on this field (the terrain's value distribution decides it,
// so the bench states selectivity, not an opaque qinterval).
double CalibrateWidth(const CellStore& store, const ValueInterval& range,
                      const std::vector<double>& centers, double target) {
  double lo = 0.0, hi = range.Length();
  for (int it = 0; it < 40; ++it) {
    const double mid = (lo + hi) / 2;
    (Coverage(store, centers, mid) < target ? lo : hi) = mid;
  }
  return (lo + hi) / 2;
}

bool RunPoint(const CellStore& store, const std::vector<ValueInterval>& qs,
              int repeats, KernelPoint* p) {
  std::vector<PosRange> record_runs, scalar_runs, simd_runs;
  uint64_t matched = 0;

  const auto t_record = Clock::now();
  for (int rep = 0; rep < repeats; ++rep) {
    for (const ValueInterval& q : qs) {
      record_runs.clear();
      const Status s = store.records().Scan(
          0, store.size(), [&](uint64_t pos, const CellRecord& cell) {
            if (cell.Interval().Intersects(q)) {
              AppendPosition(&record_runs, pos);
            }
            return true;
          });
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return false;
      }
    }
  }
  p->record_scan_ms = MsSince(t_record) / repeats;

  const auto t_scalar = Clock::now();
  for (int rep = 0; rep < repeats; ++rep) {
    for (const ValueInterval& q : qs) {
      scalar_runs.clear();
      simd::FilterIntervalRangesScalar(store.zone_map().mins().data(),
                                       store.zone_map().maxs().data(),
                                       store.size(), 0, q.min, q.max,
                                       &scalar_runs);
    }
  }
  p->zonemap_scalar_ms = MsSince(t_scalar) / repeats;

  const auto t_simd = Clock::now();
  for (int rep = 0; rep < repeats; ++rep) {
    for (const ValueInterval& q : qs) {
      simd_runs.clear();
      store.zone_map().FilterRanges(q, &simd_runs);
    }
  }
  p->zonemap_simd_ms = MsSince(t_simd) / repeats;

  // Correctness pass, outside the timed loops: all three paths must
  // agree query by query.
  for (const ValueInterval& q : qs) {
    record_runs.clear();
    scalar_runs.clear();
    simd_runs.clear();
    const Status s = store.records().Scan(
        0, store.size(), [&](uint64_t pos, const CellRecord& cell) {
          if (cell.Interval().Intersects(q)) {
            AppendPosition(&record_runs, pos);
          }
          return true;
        });
    if (!s.ok()) return false;
    simd::FilterIntervalRangesScalar(store.zone_map().mins().data(),
                                     store.zone_map().maxs().data(),
                                     store.size(), 0, q.min, q.max,
                                     &scalar_runs);
    store.zone_map().FilterRanges(q, &simd_runs);
    p->mismatches +=
        !(scalar_runs == record_runs && simd_runs == record_runs);
    matched += TotalRangeLength(record_runs);
  }

  p->num_queries = static_cast<uint32_t>(qs.size());
  p->matched_cells_avg =
      static_cast<double>(matched) / static_cast<double>(qs.size());
  p->speedup_scalar = p->record_scan_ms / p->zonemap_scalar_ms;
  p->speedup_simd = p->record_scan_ms / p->zonemap_simd_ms;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t num_queries = 100;
  int repeats = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      num_queries = 10;
      repeats = 1;
    }
  }
  const uint64_t seed = 1972;

  StatusOr<GridField> terrain = MakeRoseburgLikeTerrain();
  if (!terrain.ok()) {
    std::fprintf(stderr, "%s\n", terrain.status().ToString().c_str());
    return 1;
  }

  MemPageFile file;
  BufferPool pool(&file, 1 << 15);  // whole store resident
  StatusOr<std::unique_ptr<ValueIndex>> index =
      ValueIndex::Build(IndexMethod::kLinearScan, &pool, *terrain);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  const CellStore& store = (*index)->cell_store();
  const ValueInterval range = terrain->ValueRange();

  std::printf("cells=%llu simd=%s\n",
              static_cast<unsigned long long>(store.size()),
              simd::KernelLevelName(simd::ActiveKernelLevel()));

  // Warm the pool so record_scan pays pure fetch-hit + deserialize cost.
  uint64_t warm = 0;
  const Status ws = store.records().Scan(
      0, store.size(), [&](uint64_t, const CellRecord&) {
        ++warm;
        return true;
      });
  if (!ws.ok() || warm != store.size()) {
    std::fprintf(stderr, "warmup scan failed\n");
    return 1;
  }

  Rng rng(seed);
  std::vector<double> centers(32);
  for (double& c : centers) c = rng.NextDouble(range.min, range.max);

  BenchReport report("filter_kernels",
                     "Filter kernels: record scan vs SoA zone map, 512x512 "
                     "fractal terrain");
  report.Config("field_cells", (*index)->build_info().num_cells);
  report.Config("workload_seed", seed);
  report.Config("simd_level",
                simd::KernelLevelName(simd::ActiveKernelLevel()));
  uint64_t mismatches = 0;
  for (const double selectivity : {0.01, 0.10}) {
    KernelPoint p;
    p.selectivity = selectivity;
    p.band_width = CalibrateWidth(store, range, centers, selectivity);
    std::vector<ValueInterval> qs(num_queries);
    for (ValueInterval& q : qs) {
      const double c = rng.NextDouble(range.min, range.max);
      q = ValueInterval{c - p.band_width / 2, c + p.band_width / 2};
    }
    if (!RunPoint(store, qs, repeats, &p)) return 1;
    mismatches += p.mismatches;
    report.AddPoint()
        .Label("selectivity", p.selectivity)
        .Metric("band_width", p.band_width)
        .Metric("num_queries", p.num_queries)
        .Metric("matched_cells_avg", p.matched_cells_avg)
        .Metric("record_scan_ms", p.record_scan_ms)
        .Metric("zonemap_scalar_ms", p.zonemap_scalar_ms)
        .Metric("zonemap_simd_ms", p.zonemap_simd_ms)
        .Metric("speedup_scalar", p.speedup_scalar)
        .Metric("speedup_simd", p.speedup_simd);
    std::printf(
        "sel=%.2f width=%.3f matched=%.0f record=%8.2fms scalar=%7.2fms "
        "(%.1fx) simd=%7.2fms (%.1fx) mismatches=%llu\n",
        p.selectivity, p.band_width, p.matched_cells_avg, p.record_scan_ms,
        p.zonemap_scalar_ms, p.speedup_scalar, p.zonemap_simd_ms,
        p.speedup_simd, static_cast<unsigned long long>(p.mismatches));
  }
  report.Invariant("kernel_mismatches", static_cast<double>(mismatches),
                   GateOp::kEq, 0);
  return report.Finish();
}
