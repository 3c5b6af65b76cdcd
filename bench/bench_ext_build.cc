// External bulk-load benchmark (DESIGN.md §16): throughput of the
// bounded-memory Hilbert bulk-load across every field type (the grid's
// I-Hilbert build of the Fig-8a terrain through FieldDatabase::Build,
// 3-D volume, 2-D vector, temporal slabs) under a sweep of build memory
// budgets, from unlimited (one in-RAM sort) down to budgets a few
// entries wide (dozens of spilled runs).
//
// Acceptance (invariant gates of the report, not just plotted): a
// budgeted build must stay under its budget (peak buffered bytes), the
// tightest budget must spill, and every budgeted build must answer a
// fixed band query identically to the unlimited build — the external
// sort's stable (key, insertion-seq) tie-break makes the store layouts
// byte-identical, so any drift is a determinism bug. Emits
// BENCH_ext_build.json (obs/report.h; checked by
// tools/check_bench_json.py).
//
// --quick shrinks the fields for the CTest smoke run (the grid becomes
// a 128x128 fractal).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/field_database.h"
#include "gen/fractal.h"
#include "obs/report.h"
#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"

namespace {

using namespace fielddb;

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// One budgeted build of one field type: `build` constructs the database
// under the given budget and returns (spill_runs, peak_bytes, answer
// cells of the fixed probe query) — the caller compares the probe
// against the unlimited baseline.
struct BuildOutcome {
  uint64_t spill_runs = 0;
  uint64_t peak_bytes = 0;
  uint64_t answer_cells = 0;
  bool ok = false;
};

/// What the acceptance gates need from every field type's sweep.
struct SweepTotals {
  double max_peak_to_budget = 0.0;
  uint64_t answer_mismatches = 0;
  uint64_t min_tightest_spill_runs = UINT64_MAX;
  uint64_t unlimited_points = 0;
  uint64_t min_budgeted_points = UINT64_MAX;
};

/// Builds one field type under every budget (budget 0, unlimited, first:
/// the answer baseline) and adds one point per build.
template <typename BuildFn>
bool RunSweep(const char* field_type, uint64_t num_cells,
              const std::vector<size_t>& budgets, BuildFn build,
              BenchReport* report, SweepTotals* totals) {
  const size_t tightest = *std::min_element(budgets.begin() + 1,
                                            budgets.end());
  uint64_t baseline_cells = 0;
  uint64_t budgeted_points = 0;
  for (size_t i = 0; i < budgets.size(); ++i) {
    const size_t budget = budgets[i];
    const auto t0 = std::chrono::steady_clock::now();
    const BuildOutcome outcome = build(budget);
    const double ms = MsSince(t0);
    if (!outcome.ok) return false;
    if (i == 0) baseline_cells = outcome.answer_cells;

    const double cells_per_sec = ms > 0 ? num_cells / (ms / 1000.0) : 0.0;
    if (budget == 0) {
      ++totals->unlimited_points;
    } else {
      ++budgeted_points;
      totals->max_peak_to_budget =
          std::max(totals->max_peak_to_budget,
                   static_cast<double>(outcome.peak_bytes) / budget);
      totals->answer_mismatches += outcome.answer_cells != baseline_cells;
    }
    // The tightest budget must exercise the spill path, or the sweep
    // proves nothing about the external sort.
    if (budget == tightest) {
      totals->min_tightest_spill_runs =
          std::min(totals->min_tightest_spill_runs, outcome.spill_runs);
    }
    report->AddPoint()
        .Label("field_type", field_type)
        .Label("budget_bytes", budget)
        .Metric("num_cells", num_cells)
        .Metric("build_ms", ms)
        .Metric("cells_per_sec", cells_per_sec)
        .Metric("spill_runs", outcome.spill_runs)
        .Metric("peak_buffered_bytes", outcome.peak_bytes)
        .Metric("answer_cells", outcome.answer_cells);

    std::printf("%-9s %10zu B %10.2f ms %12.0f cells/s %6llu runs "
                "%8llu B peak %8llu answers\n",
                field_type, budget, ms, cells_per_sec,
                static_cast<unsigned long long>(outcome.spill_runs),
                static_cast<unsigned long long>(outcome.peak_bytes),
                static_cast<unsigned long long>(outcome.answer_cells));
  }
  totals->min_budgeted_points =
      std::min(totals->min_budgeted_points, budgeted_points);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  // Budget 0 (unlimited) must come first: it is the answer baseline the
  // budgeted builds are differenced against.
  const std::vector<size_t> budgets =
      quick ? std::vector<size_t>{0, 16384, 1024}
            : std::vector<size_t>{0, 1 << 20, 65536, 4096};

  std::printf("=== External bulk-load: budget sweep per field type "
              "===\n");
  BenchReport report("ext_build",
                     "Bounded-memory external Hilbert bulk-load");
  SweepTotals totals;

  {
    // The grid's entries are 24 bytes per cell: its budgets are scaled
    // to the field so the tightest still spills a few hundred runs.
    StatusOr<GridField> grid = [&] {
      if (!quick) return MakeRoseburgLikeTerrain();
      FractalOptions fo;
      fo.size_exp = 7;
      fo.roughness_h = 0.7;
      fo.seed = 42;
      return MakeFractalField(fo);
    }();
    if (!grid.ok()) {
      std::fprintf(stderr, "%s\n", grid.status().ToString().c_str());
      return 1;
    }
    const ValueInterval range = grid->ValueRange();
    const ValueInterval band{range.min + 0.25 * (range.max - range.min),
                             range.max - 0.25 * (range.max - range.min)};
    const std::vector<size_t> grid_budgets =
        quick ? std::vector<size_t>{0, 65536, 4096}
              : std::vector<size_t>{0, 1 << 22, 1 << 20, 65536};
    const bool ok = RunSweep(
        "grid", grid->NumCells(), grid_budgets,
        [&](size_t budget) {
          BuildOutcome outcome;
          FieldDatabaseOptions options;
          options.pool_pages = 16384;  // the whole store stays resident
          options.build_memory_budget_bytes = budget;
          auto db = FieldDatabase::Build(*grid, options);
          if (!db.ok()) {
            std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
            return outcome;
          }
          ValueQueryResult result;
          if (const Status s = (*db)->Query(
                  {.bands = {&band, 1}, .regions = false}, {&result, 1});
              !s.ok()) {
            std::fprintf(stderr, "%s\n", s.ToString().c_str());
            return outcome;
          }
          outcome.spill_runs = (*db)->build_info().ext_spill_runs;
          outcome.peak_bytes = (*db)->build_info().ext_peak_buffered_bytes;
          outcome.answer_cells = result.stats.answer_cells;
          outcome.ok = true;
          return outcome;
        },
        &report, &totals);
    if (!ok) return 1;
  }

  {
    VolumeFractalOptions vo;
    vo.nx = vo.ny = vo.nz = quick ? 8 : 32;
    vo.roughness_h = 0.7;
    vo.seed = 909;
    auto volume = MakeFractalVolume(vo);
    if (!volume.ok()) {
      std::fprintf(stderr, "%s\n", volume.status().ToString().c_str());
      return 1;
    }
    const ValueInterval range = volume->ValueRange();
    const ValueInterval band{range.min + 0.25 * (range.max - range.min),
                             range.max - 0.25 * (range.max - range.min)};
    const bool ok = RunSweep(
        "volume", volume->NumCells(), budgets,
        [&](size_t budget) {
          BuildOutcome outcome;
          VolumeFieldDatabase::Options options;
          options.build_memory_budget_bytes = budget;
          auto db = VolumeFieldDatabase::Build(*volume, options);
          if (!db.ok()) {
            std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
            return outcome;
          }
          VolumeQueryResult result;
          if (const Status s = (*db)->BandQuery(band, &result); !s.ok()) {
            std::fprintf(stderr, "%s\n", s.ToString().c_str());
            return outcome;
          }
          outcome.spill_runs = (*db)->ext_spill_runs();
          outcome.peak_bytes = (*db)->ext_peak_buffered_bytes();
          outcome.answer_cells = result.stats.answer_cells;
          outcome.ok = true;
          return outcome;
        },
        &report, &totals);
    if (!ok) return 1;
  }

  {
    const uint32_t n = quick ? 24 : 96;
    const uint32_t verts = n + 1;
    std::vector<double> su(verts * verts), sv(verts * verts);
    for (uint32_t jv = 0; jv < verts; ++jv) {
      for (uint32_t iv = 0; iv < verts; ++iv) {
        su[jv * verts + iv] = static_cast<double>(iv) + jv;
        sv[jv * verts + iv] = static_cast<double>(iv) - jv;
      }
    }
    auto field = VectorGridField::Create(
        n, n, Rect2{{0.0, 0.0}, {1.0, 1.0}}, su, sv);
    if (!field.ok()) {
      std::fprintf(stderr, "%s\n", field.status().ToString().c_str());
      return 1;
    }
    VectorBandQuery query;
    query.u = ValueInterval{0.5 * n, 1.5 * n};
    query.v = ValueInterval{-0.5 * n, 0.5 * n};
    const bool ok = RunSweep(
        "vector", field->NumCells(), budgets,
        [&](size_t budget) {
          BuildOutcome outcome;
          VectorFieldDatabase::Options options;
          options.build_memory_budget_bytes = budget;
          auto db = VectorFieldDatabase::Build(*field, options);
          if (!db.ok()) {
            std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
            return outcome;
          }
          VectorQueryResult result;
          if (const Status s = (*db)->BandQuery(query, &result);
              !s.ok()) {
            std::fprintf(stderr, "%s\n", s.ToString().c_str());
            return outcome;
          }
          outcome.spill_runs = (*db)->ext_spill_runs();
          outcome.peak_bytes = (*db)->ext_peak_buffered_bytes();
          outcome.answer_cells = result.stats.answer_cells;
          outcome.ok = true;
          return outcome;
        },
        &report, &totals);
    if (!ok) return 1;
  }

  {
    const uint32_t n = quick ? 16 : 48;
    const uint32_t num_snapshots = quick ? 4 : 8;
    const uint32_t verts = n + 1;
    std::vector<std::vector<double>> snapshots(num_snapshots);
    for (uint32_t k = 0; k < num_snapshots; ++k) {
      snapshots[k].resize(verts * verts);
      for (uint32_t jv = 0; jv < verts; ++jv) {
        for (uint32_t iv = 0; iv < verts; ++iv) {
          snapshots[k][jv * verts + iv] =
              static_cast<double>(iv) + jv + 10.0 * k;
        }
      }
    }
    auto field = TemporalGridField::Create(
        n, n, Rect2{{0.0, 0.0}, {1.0, 1.0}}, std::move(snapshots));
    if (!field.ok()) {
      std::fprintf(stderr, "%s\n", field.status().ToString().c_str());
      return 1;
    }
    const ValueInterval range = field->ValueRange();
    const ValueInterval band{range.min + 0.25 * (range.max - range.min),
                             range.max - 0.25 * (range.max - range.min)};
    const bool ok = RunSweep(
        "temporal", field->NumCells(), budgets,
        [&](size_t budget) {
          BuildOutcome outcome;
          TemporalFieldDatabase::Options options;
          options.build_memory_budget_bytes = budget;
          auto db = TemporalFieldDatabase::Build(*field, options);
          if (!db.ok()) {
            std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
            return outcome;
          }
          ValueQueryResult result;
          if (const Status s =
                  (*db)->SnapshotValueQuery(1.0, band, &result);
              !s.ok()) {
            std::fprintf(stderr, "%s\n", s.ToString().c_str());
            return outcome;
          }
          outcome.spill_runs = (*db)->ext_spill_runs();
          outcome.peak_bytes = (*db)->ext_peak_buffered_bytes();
          outcome.answer_cells = result.stats.answer_cells;
          outcome.ok = true;
          return outcome;
        },
        &report, &totals);
    if (!ok) return 1;
  }

  report.Invariant("peak_to_budget", totals.max_peak_to_budget, GateOp::kLe,
                   1);
  report.Invariant("answer_mismatches",
                   static_cast<double>(totals.answer_mismatches), GateOp::kEq,
                   0);
  report.Invariant("tightest_budget_spill_runs",
                   static_cast<double>(totals.min_tightest_spill_runs),
                   GateOp::kGe, 1);
  report.Invariant("unlimited_points",
                   static_cast<double>(totals.unlimited_points), GateOp::kEq,
                   4);  // one per field type
  report.Invariant("min_budgeted_points",
                   static_cast<double>(totals.min_budgeted_points),
                   GateOp::kGe, 1);
  return report.Finish();
}
