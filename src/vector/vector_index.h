#ifndef FIELDDB_VECTOR_VECTOR_INDEX_H_
#define FIELDDB_VECTOR_VECTOR_INDEX_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/field_engine.h"
#include "core/query_context.h"
#include "core/stats.h"
#include "curve/curves.h"
#include "field/region.h"
#include "index/cell_store.h"
#include "index/subfield.h"
#include "plan/planner.h"
#include "rtree/rstar_tree.h"
#include "storage/page_file.h"
#include "storage/wal.h"
#include "vector/vector_isoband.h"
#include "vector/vector_record.h"

namespace fielddb {

/// Greedy grouping of curve-ordered cell value boxes: the one subfield
/// partitioner (SubfieldStreamBuilder) over (u, v) boxes, with the 2-D
/// cost model (VectorSubfieldCostModel, index/subfield.h).
inline std::vector<VectorSubfield> BuildVectorSubfields(
    const std::vector<Box<2>>& cell_boxes, const Box<2>& value_range,
    const VectorCostConfig& config) {
  return BuildSubfields(cell_boxes, value_range, config);
}

/// Query-processing methods for vector fields.
enum class VectorIndexMethod {
  kLinearScan,  // scan every cell record
  kIHilbert,    // subfields over Hilbert-ordered cells, 2-D R*-tree
};

/// Result of a vector band query.
struct VectorQueryResult {
  Region region;
  QueryStats stats;
  /// The planner's decision this query executed (2-D box zone-map probe
  /// + disk-model costing through ChoosePlan).
  PhysicalPlan plan;
};

/// A self-contained vector-field database: cells clustered in Hilbert
/// order in paged storage, indexed (optionally) by a 2-D R*-tree over
/// subfield value boxes.
///
/// Hosted on the shared FieldEngine (core/field_engine.h): storage,
/// WAL-backed updates, crash-safe Save/Open and the event log are the
/// engine's, the catalog codec is core/catalog.h's, and the store,
/// subfield partition, refresh and plan are the ones every field type
/// shares, keyed here by (u, v) boxes; only the catalog schema, the
/// record layout, the WAL payload and the estimation visitor are
/// vector-specific.
class VectorFieldDatabase : public ExtEngineHost {
 public:
  /// The settings every field type shares (EngineBuildOptions) plus the
  /// vector build's own. A logged WAL frame carries u followed by v
  /// (2 × num_vertices samples).
  struct Options : EngineBuildOptions {
    VectorIndexMethod method = VectorIndexMethod::kIHilbert;
    CurveType curve = CurveType::kHilbert;
    int curve_order = 16;
    VectorCostConfig cost;
  };

  using OpenOptions = EngineOpenOptions;

  static StatusOr<std::unique_ptr<VectorFieldDatabase>> Build(
      const VectorGridField& field, const Options& options);

  /// Reopens a database persisted by Save; `<prefix>.wal` frames are
  /// replayed first (see OpenOptions::wal_mode).
  static StatusOr<std::unique_ptr<VectorFieldDatabase>> Open(
      const std::string& prefix, const OpenOptions& options = {});

  /// Persists the database as `<prefix>.pages` + `<prefix>.meta`
  /// through the engine's crash-safe checkpoint pipeline.
  Status Save(const std::string& prefix) {
    return SaveImpl(prefix, SnapshotCrashPoint::kNone);
  }
  Status SaveWithCrashPointForTest(const std::string& prefix,
                                   SnapshotCrashPoint crash_point) {
    return SaveImpl(prefix, crash_point);
  }

  /// Conjunctive band query over both components: exact answer regions.
  /// Safe to run from any number of threads at once (updates excluded);
  /// the I/O in `out->stats` is this query's own, counted through `ctx`
  /// (a local context when null).
  Status BandQuery(const VectorBandQuery& query, VectorQueryResult* out,
                   QueryContext* ctx = nullptr) const;

  /// The planner's decision for `query` under the current mode, without
  /// executing anything (zero I/O: the zone-map sidecar is in RAM).
  PhysicalPlan PlanBandQuery(const VectorBandQuery& query) const;

  /// Replaces the (u, v) samples of field cell `id` (geometry is
  /// immutable); `u.size()` and `v.size()` must match the cell's vertex
  /// count. WAL-logged when a log is armed. I-Hilbert refreshes the
  /// containing subfield's value box (and its R*-tree entry) so queries
  /// keep their no-false-negative filter.
  Status UpdateCellValues(CellId id, const std::vector<double>& u,
                          const std::vector<double>& v);

  const std::vector<VectorSubfield>& subfields() const {
    return subfields_;
  }
  uint64_t num_cells() const { return store_->size(); }
  VectorIndexMethod method() const { return method_; }
  const BoxZoneMap& zone_map() const { return store_->zone_map(); }
  /// The subfield tree; null for LinearScan.
  const RStarTree<2>* tree() const { return tree_.get(); }

  /// Average stats over a query workload (cold cache per query).
  StatusOr<WorkloadStats> RunWorkload(
      const std::vector<VectorBandQuery>& queries) const;

 private:
  VectorFieldDatabase() = default;

  Status SaveImpl(const std::string& prefix, SnapshotCrashPoint crash_point);

  /// The redo half of an update — shared verbatim by UpdateCellValues
  /// and WAL replay, so recovery maintains the subfield boxes and zone
  /// map exactly like the original mutation did.
  Status ApplyCellValues(CellId id, const std::vector<double>& u,
                         const std::vector<double>& v);

  VectorIndexMethod method_ = VectorIndexMethod::kIHilbert;
  /// Cells in Hilbert order, with the (u, v) zone map the planner probes.
  std::optional<BasicCellStore<VectorCellRecord>> store_;
  std::unique_ptr<RStarTree<2>> tree_;  // null for LinearScan
  std::vector<VectorSubfield> subfields_;
};

}  // namespace fielddb

#endif  // FIELDDB_VECTOR_VECTOR_INDEX_H_
