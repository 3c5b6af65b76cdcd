#ifndef FIELDDB_BENCH_HARNESS_H_
#define FIELDDB_BENCH_HARNESS_H_

#include <string>
#include <vector>

#include "core/field_database.h"
#include "field/field.h"
#include "obs/report.h"

namespace fielddb::bench {

/// One figure reproduction: for each Qinterval in the sweep and each
/// method, run `num_queries` random interval queries (cold cache per
/// query, as the paper's independent random disk-resident queries) and
/// print one row per Qinterval with the per-method average query time —
/// the series the paper's figures plot — plus the page-access counts
/// that explain them.
struct FigureConfig {
  std::string title;
  /// Stable id: the run writes BENCH_<bench_id>.json (DESIGN.md §10) to
  /// the current directory.
  std::string bench_id;
  std::vector<double> qintervals;
  std::vector<IndexMethod> methods = {IndexMethod::kLinearScan,
                                      IndexMethod::kIAll,
                                      IndexMethod::kIHilbert};
  uint32_t num_queries = 200;
  uint64_t workload_seed = 2002;
  FieldDatabaseOptions base_options;  // method is overridden per series
  /// The paper's storage and page model, which EXPERIMENTS.md's page
  /// columns count: explicit 104-byte cell records, and every page of
  /// every run read (read_whole_runs). Off, the engine's own: lattice
  /// slots where the field has a lattice, and only the store pages that
  /// hold a zone match read.
  bool paper_model = true;
};

/// Runs the sweep, prints the figure table to stdout and writes the
/// BENCH_<id>.json report. Databases are built one at a time
/// (million-cell fields would not fit side by side). Returns false on
/// any error (after printing it), when the report could not be written,
/// or when one of its invariant gates failed.
bool RunFigure(const Field& field, const FigureConfig& config);

/// Parses the common bench flags: "--quick" shrinks the workload to 30
/// queries for smoke runs.
void ApplyFlags(int argc, char** argv, FigureConfig* config);

}  // namespace fielddb::bench

#endif  // FIELDDB_BENCH_HARNESS_H_
