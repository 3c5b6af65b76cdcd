#ifndef FIELDDB_INDEX_VALUE_INDEX_H_
#define FIELDDB_INDEX_VALUE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "curve/curves.h"
#include "field/field.h"
#include "index/cell_store.h"
#include "index/subfield.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/record_store.h"

namespace fielddb {

/// Identifies the paper's query-processing methods (Section 3 / 4). They
/// differ only in how the cell store is clustered and what the 1-D
/// R*-tree indexes (see ValueIndex::Build).
enum class IndexMethod {
  kLinearScan,       // 'LinearScan': exhaustive scan, no index
  kIAll,             // 'I-All': one 1-D R*-tree entry per cell
  kIHilbert,         // 'I-Hilbert': subfields over Hilbert-ordered cells
  kIntervalQuadtree, // Interval Quadtree [15]: fixed-threshold baseline
  kRowIp,            // per-row IP-index [18, 19]: 1-D-continuity baseline
};

const char* IndexMethodName(IndexMethod method);

/// I-Hilbert's build settings (paper Section 3.1).
struct IHilbertOptions {
  /// Linearization order; kHilbert is the paper's choice, the others
  /// exist for the clustering ablation. Cell centers are quantized onto
  /// the curve's kCurveOrder grid.
  CurveType curve = CurveType::kHilbert;
  SubfieldCostConfig cost;
};

/// The Interval Quadtree's build setting.
struct IntervalQuadtreeOptions {
  /// Maximum allowed subfield interval length as a fraction of the
  /// field's value-range length (the pre-determined fixed threshold of
  /// the CIKM'99 scheme, here made range-relative).
  double threshold_fraction = 0.1;
};

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

/// The grid's value index: the clustered cell store, the 1-D R*-tree
/// over value intervals (I-All, I-Hilbert, I-Quadtree) and the subfield
/// table (I-Hilbert, I-Quadtree), or Row-IP's per-row directory. It runs
/// the filtering step of a field value query (paper Section 3.2, Step
/// 1): given a query interval, produce the candidate cell-store
/// positions — every position whose cell *may* contain answer regions.
/// No method has false negatives; subfield methods may return false
/// positives (cells inside a matching subfield whose own interval misses
/// the query), which the estimation step filters out.
class ValueIndex {
 public:
  /// Serializes `field` into `pool` and builds `method`'s index over it:
  ///  - LinearScan: cells in native order, no index at all; the filter
  ///    step is the zone-map sweep.
  ///  - I-All (the paper's straw man, Section 3): native order, and
  ///    every cell's interval in the tree — as many heavily overlapping
  ///    entries as cells, so the tree is tall, large and slow (the
  ///    effect Fig. 11.a shows). The paper inserts them one by one; here
  ///    they are packed bottom-up in midpoint order (Kamel–Faloutsos
  ///    [14]): the same answers, much faster builds.
  ///  - I-Hilbert (the paper's contribution, Section 3.1): cells sorted
  ///    by the `ihilbert.curve` key of their centers and stored in that
  ///    order, grouped greedily into subfields by the cost function
  ///    C = P/SI, and only the subfield intervals indexed, with [start,
  ///    end) store runs as leaf payloads (Fig. 6's leaf layout). The
  ///    sort runs under `build_memory_budget_bytes` (0 sorts once in
  ///    RAM); every budget builds the same bytes.
  ///  - I-Quadtree (Kang et al., CIKM'99 [15], the fixed-threshold
  ///    baseline Section 3.1.1 argues against): the domain is divided
  ///    quadtree-style, cells assigned by centroid, until each
  ///    quadrant's interval length drops to `iqt.threshold_fraction` of
  ///    the value range; the quadrants are the subfields, stored and
  ///    indexed as I-Hilbert's are.
  ///  - Row-IP (Lin & Risch's IP-index applied per DEM row [18, 19],
  ///    Section 2.3's related work): row-major cells, and per row a
  ///    paged directory of (min, max, position) sorted by min. Every
  ///    row's directory is probed, so nothing groups across rows. Grid
  ///    fields only (rows are inferred from cell geometry); not
  ///    persistable.
  static StatusOr<std::unique_ptr<ValueIndex>> Build(
      IndexMethod method, BufferPool* pool, const Field& field,
      const IHilbertOptions& ihilbert = {},
      const IntervalQuadtreeOptions& iqt = {},
      size_t build_memory_budget_bytes = 0);

  /// Re-wraps persisted components (FieldDatabase::Open): `tree` for the
  /// methods that have one (LinearScan drops it), `subfields` for
  /// I-Hilbert and I-Quadtree. Row-IP is not persisted.
  static std::unique_ptr<ValueIndex> Attach(
      IndexMethod method, CellStore store, std::optional<RStarTree<1>> tree,
      std::vector<Subfield> subfields, const IndexBuildInfo& info);

  IndexMethod method() const { return method_; }
  std::string name() const { return IndexMethodName(method_); }

  /// Appends the candidate set as maximal ascending disjoint runs of
  /// store positions — the search the grid's band scan runs
  /// (FieldEngine::BandScan, whose store scan walks runs directly); a
  /// 1%-selectivity query then costs a handful of run structs instead of
  /// one uint64_t per candidate.
  Status FilterCandidateRanges(const ValueInterval& query,
                               std::vector<PosRange>* ranges) const;

  /// The clustered store holding the cells.
  const CellStore& cell_store() const { return store_; }
  const IndexBuildInfo& build_info() const { return info_; }
  /// The 1-D value tree (I-All, I-Hilbert, I-Quadtree), else null.
  const RStarTree<1>* tree() const { return tree_ ? &*tree_ : nullptr; }
  /// The subfield partition (I-Hilbert, I-Quadtree), else null.
  const std::vector<Subfield>* subfields() const {
    return method_ == IndexMethod::kIHilbert ||
                   method_ == IndexMethod::kIntervalQuadtree
               ? &subfields_
               : nullptr;
  }
  /// Row-IP's row count, else 0.
  uint32_t num_rows() const { return static_cast<uint32_t>(rows_.size()); }

  /// Replaces the sample values of field cell `id` (e.g. a sensor
  /// re-measurement; geometry is immutable). `values.size()` must match
  /// the cell's vertex count. The filtering guarantee (no false
  /// negatives) holds afterwards: the affected interval entries are
  /// maintained, and subfield methods refresh the touched subfield's
  /// interval but do not re-optimize the partition (rebuild for that).
  Status UpdateCellValues(CellId id, const std::vector<double>& values);

 private:
  /// One Row-IP directory entry: a cell's interval + its store position.
  struct DirEntry {
    double min = 0.0;
    double max = 0.0;
    uint64_t position = 0;
  };

  /// One grid row's span of the shared directory store.
  struct Row {
    uint64_t dir_start = 0;
    uint64_t dir_end = 0;
  };

  ValueIndex(IndexMethod method, CellStore store,
             std::optional<RStarTree<1>> tree,
             std::vector<Subfield> subfields, const IndexBuildInfo& info)
      : method_(method), store_(std::move(store)), tree_(std::move(tree)),
        subfields_(std::move(subfields)), info_(info) {}

  /// Row-IP's recipe (the other recipes need no private access).
  static StatusOr<std::unique_ptr<ValueIndex>> BuildRowIp(BufferPool* pool,
                                                          const Field& field);

  /// Row-IP's filter step and update: every row's directory.
  Status FilterRows(const ValueInterval& query,
                    std::vector<PosRange>* ranges) const;
  Status UpdateRow(const CellStore::Change& change);

  IndexMethod method_;
  CellStore store_;
  std::optional<RStarTree<1>> tree_;
  std::vector<Subfield> subfields_;
  /// Row-IP's per-row directories, concatenated into one record store.
  std::optional<RecordStore<DirEntry>> directory_;
  std::vector<Row> rows_;
  IndexBuildInfo info_;
};

}  // namespace fielddb

#endif  // FIELDDB_INDEX_VALUE_INDEX_H_
