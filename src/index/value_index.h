#ifndef FIELDDB_INDEX_VALUE_INDEX_H_
#define FIELDDB_INDEX_VALUE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "index/cell_store.h"

namespace fielddb {

/// Identifies the paper's query-processing methods (Section 3 / 4).
enum class IndexMethod {
  kLinearScan,       // 'LinearScan': exhaustive scan, no index
  kIAll,             // 'I-All': one 1-D R*-tree entry per cell
  kIHilbert,         // 'I-Hilbert': subfields over Hilbert-ordered cells
  kIntervalQuadtree, // Interval Quadtree [15]: fixed-threshold baseline
  kRowIp,            // per-row IP-index [18, 19]: 1-D-continuity baseline
};

const char* IndexMethodName(IndexMethod method);

/// Build-time facts reported by an index, for EXPERIMENTS.md and benches.
struct IndexBuildInfo {
  uint64_t num_cells = 0;
  uint64_t num_index_entries = 0;  // intervals inserted in the R*-tree
  uint64_t num_subfields = 0;      // == num_index_entries for subfield
                                   // methods, 0 for LinearScan
  uint32_t tree_height = 0;
  uint64_t tree_nodes = 0;
  uint64_t store_pages = 0;
  double build_seconds = 0.0;
  /// External-sort build telemetry (0 when the build ran fully in RAM):
  /// spill runs written to temp files, and the high-water mark of the
  /// sorter's in-memory buffer — the number the memory budget bounds.
  uint64_t ext_spill_runs = 0;
  uint64_t ext_peak_buffered_bytes = 0;
};

/// The filtering step of a field value query (paper Section 3.2, Step 1):
/// given a query interval, produce the candidate cell-store positions —
/// every position whose cell *may* contain answer regions. Implementations
/// guarantee no false negatives; subfield methods may return false
/// positives (cells inside a matching subfield whose own interval misses
/// the query), which the estimation step filters out.
class ValueIndex {
 public:
  virtual ~ValueIndex() = default;

  virtual IndexMethod method() const = 0;
  std::string name() const { return IndexMethodName(method()); }

  /// Appends the candidate set as maximal ascending disjoint runs of
  /// store positions — the primary filter interface since the planner
  /// refactor, and the search the grid's band scan runs
  /// (FieldEngine::BandScan, whose store scan walks runs directly); a
  /// 1%-selectivity query then costs a handful of run structs instead of
  /// one uint64_t per candidate.
  virtual Status FilterCandidateRanges(const ValueInterval& query,
                                       std::vector<PosRange>* ranges) const = 0;

  /// The clustered store holding this index's cells.
  virtual const CellStore& cell_store() const = 0;

  virtual const IndexBuildInfo& build_info() const = 0;

  /// Replaces the sample values of field cell `id` (e.g. a sensor
  /// re-measurement; geometry is immutable). `values.size()` must match
  /// the cell's vertex count. Implementations keep their filtering
  /// guarantee (no false negatives) by maintaining the affected interval
  /// entries; subfield methods refresh the touched subfield's interval
  /// but do not re-optimize the partition (rebuild for that).
  virtual Status UpdateCellValues(CellId id,
                                  const std::vector<double>& values) = 0;
};

}  // namespace fielddb

#endif  // FIELDDB_INDEX_VALUE_INDEX_H_
