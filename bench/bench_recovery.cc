// Recovery benchmark (DESIGN.md §14): quantifies what the WAL costs and
// what recovery delivers, on an I-Hilbert fractal terrain.
//
//  1. Write overhead: the same seeded update stream through wal_mode
//     off / async / fsync_on_commit — updates/s per mode and the
//     slowdown relative to off. "off" is the pre-WAL contract, so its
//     number doubles as the no-regression baseline.
//  2. Replay: for WAL lengths L in a sweep, a checkpointed database
//     takes L committed updates, suffers a power cut, and is reopened —
//     reopen latency vs L, the scan/replay/verify split from the
//     recovery trace, and replay throughput in frames/s.
//
// Acceptance (an invariant gate of the report, not just plotted): every
// reopen must replay exactly L frames — a mismatch is lost or phantom
// data and fails the run. Emits BENCH_recovery.json (obs/report.h;
// checked by tools/check_bench_json.py).
//
// --quick shrinks the terrain and the sweep for the CTest smoke run.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/field_database.h"
#include "gen/fractal.h"
#include "obs/report.h"
#include "storage/wal.h"

namespace {

using namespace fielddb;

constexpr char kPrefix[] = "bench_recovery_db";

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void RemoveArtifacts() {
  for (const char* suffix :
       {".pages", ".meta", ".pages.tmp", ".meta.tmp", ".wal"}) {
    std::remove((std::string(kPrefix) + suffix).c_str());
  }
}

/// Applies `n` seeded updates to `db`; returns false on error.
bool ApplyUpdates(FieldDatabase* db, uint32_t n, uint64_t num_cells,
                  Rng* rng) {
  for (uint32_t i = 0; i < n; ++i) {
    const CellId cell = static_cast<CellId>(rng->NextBounded(num_cells));
    const double v = rng->NextDouble(0.0, 1.0);
    const Status s = db->UpdateCellValues(cell, {v, v, v, v});
    if (!s.ok()) {
      std::fprintf(stderr, "update failed: %s\n", s.ToString().c_str());
      return false;
    }
  }
  return true;
}

double SpanMs(const QueryTrace& trace, const char* name) {
  const TraceSpan* span = trace.Find(name);
  return span == nullptr ? 0.0 : span->wall_seconds * 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const uint64_t seed = 1492;

  FractalOptions fo;
  fo.size_exp = quick ? 5 : 7;  // 32x32 quick, 128x128 full
  fo.roughness_h = 0.7;
  fo.seed = 1972;
  StatusOr<GridField> terrain = MakeFractalField(fo);
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
  const uint64_t num_cells = (*built)->build_info().num_cells;

  RemoveArtifacts();
  if (const Status s = (*built)->Save(kPrefix); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  built->reset();  // everything below runs against the checkpoint

  BenchReport report("recovery",
                     "WAL write overhead and crash-recovery replay, "
                     "I-Hilbert fractal terrain");
  report.Config("method", IndexMethodName(IndexMethod::kIHilbert));
  report.Config("field_cells", num_cells);
  report.Config("workload_seed", seed);

  // --- 1. Write overhead per durability mode -------------------------
  const uint32_t updates = quick ? 300 : 2000;
  double off_wall_ms = 0.0;
  size_t off_points = 0;
  for (const WalMode mode :
       {WalMode::kOff, WalMode::kAsync, WalMode::kFsyncOnCommit}) {
    FieldDatabase::OpenOptions oo;
    oo.wal_mode = mode;
    auto db = FieldDatabase::Open(kPrefix, oo);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    Rng rng(seed);  // identical stream in every mode
    const auto t0 = std::chrono::steady_clock::now();
    if (!ApplyUpdates(db->get(), updates, num_cells, &rng)) return 1;
    const double wall_ms = MsSince(t0);
    if (mode == WalMode::kOff) {
      off_wall_ms = wall_ms;
      ++off_points;
    }
    const double updates_per_sec = updates / (wall_ms / 1000.0);
    const double overhead_vs_off = wall_ms / off_wall_ms;
    report.AddPoint()
        .Label("wal_mode", WalModeName(mode))
        .Metric("updates", updates)
        .Metric("wall_ms", wall_ms)
        .Metric("updates_per_sec", updates_per_sec)
        .Metric("overhead_vs_off", overhead_vs_off);
    std::printf("mode=%-5s updates=%u wall=%8.2fms  %9.0f upd/s  x%.2f\n",
                WalModeName(mode), updates, wall_ms, updates_per_sec,
                overhead_vs_off);
    db->reset();  // discard (off: pool only; wal modes: log closed)
    std::remove((std::string(kPrefix) + ".wal").c_str());
  }

  // --- 2. Reopen latency & replay throughput vs WAL length -----------
  const std::vector<uint64_t> lengths =
      quick ? std::vector<uint64_t>{0, 50, 200}
            : std::vector<uint64_t>{0, 100, 1000, 5000};
  size_t frame_mismatches = 0;
  double min_frames_per_sec = std::numeric_limits<double>::infinity();
  for (const uint64_t length : lengths) {
    {
      FieldDatabase::OpenOptions oo;
      oo.wal_mode = WalMode::kFsyncOnCommit;
      auto db = FieldDatabase::Open(kPrefix, oo);
      if (!db.ok()) {
        std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
        return 1;
      }
      Rng rng(seed + length);
      if (!ApplyUpdates(db->get(), static_cast<uint32_t>(length), num_cells,
                        &rng)) {
        return 1;
      }
      if (const Status s = (*db)->SimulateCrashForTest(); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
    }

    FieldDatabase::RecoveryReport recovery;
    FieldDatabase::OpenOptions oo;
    oo.wal_mode = WalMode::kFsyncOnCommit;
    oo.recovery_report = &recovery;
    const auto t0 = std::chrono::steady_clock::now();
    auto reopened = FieldDatabase::Open(kPrefix, oo);
    const double reopen_ms = MsSince(t0);
    if (!reopened.ok()) {
      std::fprintf(stderr, "%s\n", reopened.status().ToString().c_str());
      return 1;
    }
    reopened->reset();
    std::remove((std::string(kPrefix) + ".wal").c_str());

    const double scan_ms = SpanMs(recovery.trace, "wal.scan");
    const double replay_ms = SpanMs(recovery.trace, "wal.replay");
    const double verify_ms = SpanMs(recovery.trace, "verify");
    const double frames_per_sec =
        replay_ms > 0.0 ? length / (replay_ms / 1000.0) : 0.0;
    frame_mismatches += recovery.frames_replayed != length;
    if (length > 0) {
      min_frames_per_sec = std::min(min_frames_per_sec, frames_per_sec);
    }
    report.AddPoint()
        .Label("wal_frames", length)
        .Metric("frames_replayed", recovery.frames_replayed)
        .Metric("wal_bytes", recovery.valid_bytes)
        .Metric("reopen_ms", reopen_ms)
        .Metric("scan_ms", scan_ms)
        .Metric("replay_ms", replay_ms)
        .Metric("verify_ms", verify_ms)
        .Metric("frames_per_sec", frames_per_sec);
    std::printf(
        "frames=%-5llu replayed=%-5llu bytes=%-7llu reopen=%8.2fms "
        "scan=%6.2fms replay=%6.2fms verify=%6.2fms %9.0f frames/s\n",
        static_cast<unsigned long long>(length),
        static_cast<unsigned long long>(recovery.frames_replayed),
        static_cast<unsigned long long>(recovery.valid_bytes), reopen_ms,
        scan_ms, replay_ms, verify_ms, frames_per_sec);
  }
  RemoveArtifacts();

  report.Invariant("wal_off_baseline", static_cast<double>(off_points),
                   GateOp::kEq, 1);
  report.Invariant("replay_frame_mismatches",
                   static_cast<double>(frame_mismatches), GateOp::kEq, 0);
  report.Invariant("min_replay_frames_per_sec", min_frames_per_sec,
                   GateOp::kGt, 0);
  return report.Finish();
}
