#ifndef FIELDDB_OBS_REPORT_H_
#define FIELDDB_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "core/stats.h"
#include "index/value_index.h"
#include "obs/json.h"

namespace fielddb {

/// Machine-readable benchmark telemetry. Every bench (and `fielddb_cli
/// bench --json`) writes its results as one `BenchReport`, rendered to
/// `BENCH_<bench_id>.json`:
///
///   { "bench_id", "title", "config": {key: number | string | bool},
///     "points": [ {"labels": {key: number | string | bool},
///                  "metrics": {key: number}} ],
///     "gates": [ {"name", "kind", "observed", "op", "target", "ok"} ] }
///
/// Labels say which point this is (method, Qinterval, thread count);
/// metrics are what was measured there. A gate is one condition the
/// bench asserts: an `invariant` gate (a count, an identity, a bound the
/// code guarantees) fails the run, a `timing` gate (a wall-clock or
/// CPU-time ratio whose reading depends on host load) only warns.
/// tools/check_bench_json.py validates the shape and each bench's
/// required keys (DESIGN.md §10).

/// A config entry or a point label, kept as its JSON text: a number
/// (any arithmetic type), a string or a bool. The constructors are
/// implicit so call sites stay short: `Config("threads", 4)`.
struct ReportValue {
  template <typename T>
    requires std::is_arithmetic_v<T>
  ReportValue(T v) {
    if constexpr (std::is_same_v<T, bool>) {
      json = v ? "true" : "false";
    } else {
      JsonAppendNumber(&json, static_cast<double>(v));
    }
  }
  ReportValue(const char* s) { JsonAppendString(&json, s); }
  ReportValue(const std::string& s) { JsonAppendString(&json, s); }

  std::string json;
};

enum class GateKind { kInvariant, kTiming };
enum class GateOp { kLt, kLe, kGt, kGe, kEq };  // <, <=, >, >=, ==

struct BenchGate {
  std::string name;
  GateKind kind = GateKind::kInvariant;
  double observed = 0.0;
  GateOp op = GateOp::kEq;
  double target = 0.0;
  bool ok = false;  // `observed op target`
};

struct BenchPoint {
  std::vector<std::pair<std::string, ReportValue>> labels;
  std::vector<std::pair<std::string, double>> metrics;

  BenchPoint& Label(std::string key, ReportValue value);
  BenchPoint& Metric(std::string key, double value);
};

class BenchReport {
 public:
  BenchReport(std::string bench_id, std::string title);

  const std::vector<BenchGate>& gates() const { return gates_; }

  void Config(std::string key, ReportValue value);
  BenchPoint& AddPoint();

  /// Record a gate and return whether `observed op target` holds.
  bool Invariant(std::string name, double observed, GateOp op, double target);
  bool Timing(std::string name, double observed, GateOp op, double target);

  std::string ToJson() const;
  /// Writes ToJson() to `path` (truncating). Every write and the close
  /// are checked: a full disk is an error, not a truncated file.
  Status WriteJson(const std::string& path) const;

  /// Writes the report to `path` (default: BENCH_<bench_id>.json in the
  /// working directory) and prints each failed gate. Returns the bench's
  /// exit status: 1 when the write or an invariant gate failed, else 0.
  int Finish(const std::string& path = {}) const;

 private:
  bool AddGate(std::string name, GateKind kind, double observed, GateOp op,
               double target);

  std::string bench_id_;
  std::string title_;
  std::vector<std::pair<std::string, ReportValue>> config_;
  std::vector<BenchPoint> points_;
  std::vector<BenchGate> gates_;
};

/// One method's sweep through a figure workload: its build, then one
/// WorkloadStats per Qinterval.
struct FigureSeries {
  std::string method;
  IndexBuildInfo build;
  std::vector<std::pair<double, WorkloadStats>> points;  // (qinterval, ..)
};

/// A figure run — the paper's per-Qinterval tables of every method.
/// The figure benches and `fielddb_cli bench` fill one.
struct FigureRun {
  uint64_t field_cells = 0;
  ValueInterval value_range;
  uint32_t num_queries = 0;
  uint64_t workload_seed = 0;
  DiskModel disk;
  std::vector<FigureSeries> series;
};

/// Prints the figure the way the figure benches always have: build
/// lines, then one table per quantity (wall ms, avg pages, simulated
/// disk ms) with a Qinterval row per point, then the
/// I-Hilbert-vs-LinearScan speedup summary when both series are present.
void PrintFigureTables(const FigureRun& run);

/// The figure's report: one point per (method, qinterval) carrying the
/// WorkloadStats averages, the disk-model ms and the method's build
/// info, plus the invariant gates every figure run must pass.
/// `expected_points` is the sweep size (methods x Qintervals).
BenchReport FigureReport(std::string bench_id, std::string title,
                         const FigureRun& run, size_t expected_points);

}  // namespace fielddb

#endif  // FIELDDB_OBS_REPORT_H_
