#ifndef FIELDDB_VECTOR_VECTOR_INDEX_H_
#define FIELDDB_VECTOR_VECTOR_INDEX_H_

#include <atomic>
#include <functional>
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
class VectorFieldDatabase {
 public:
  struct Options {
    VectorIndexMethod method = VectorIndexMethod::kIHilbert;
    CurveType curve = CurveType::kHilbert;
    int curve_order = 16;
    VectorCostConfig cost;
    uint32_t page_size = kDefaultPageSize;
    size_t pool_pages = 1024;
    RStarOptions rstar;
    /// Backing page file (defaults to MemPageFile). Fault-injection
    /// tests wrap the file to schedule faults against the live database.
    std::function<std::unique_ptr<PageFile>(uint32_t page_size)>
        page_file_factory;
    /// Initial access-path policy for band queries (see ChoosePlan).
    PlannerMode planner_mode = PlannerMode::kAuto;
    /// Durability for UpdateCellValues (DESIGN.md §14). Requires
    /// `wal_path`; use `<prefix>.wal` for the prefix the database will
    /// be saved under. A logged frame carries u followed by v
    /// (2 × num_vertices samples).
    WalMode wal_mode = WalMode::kOff;
    std::string wal_path;
    /// Structured operational event log. Empty disables it.
    std::string event_log_path;
    double slow_query_threshold_ms = 25.0;
    /// Bounded-memory build (DESIGN.md §16): when nonzero, the Hilbert
    /// linearization runs as an external merge sort under this in-RAM
    /// budget, streaming into the store appender and the 2-D subfield
    /// costing. Byte-identical to the unlimited build.
    size_t build_memory_budget_bytes = 0;
  };

  /// Reopen options, mirroring FieldDatabase::OpenOptions.
  struct OpenOptions {
    size_t pool_pages = 1024;
    WalMode wal_mode = WalMode::kOff;
    /// Optional out-param describing the replay (may be null).
    EngineRecoveryReport* recovery_report = nullptr;
    std::string event_log_path;
    double slow_query_threshold_ms = 25.0;
    PlannerMode planner_mode = PlannerMode::kAuto;
  };

  static StatusOr<std::unique_ptr<VectorFieldDatabase>> Build(
      const VectorGridField& field, const Options& options);

  /// Reopens a database persisted by Save; `<prefix>.wal` frames are
  /// replayed first (see OpenOptions::wal_mode).
  static StatusOr<std::unique_ptr<VectorFieldDatabase>> Open(
      const std::string& prefix);
  static StatusOr<std::unique_ptr<VectorFieldDatabase>> Open(
      const std::string& prefix, const OpenOptions& options);

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

  /// Flushes and closes the storage (see FieldEngine::Close).
  Status Close() { return engine_.Close(); }
  /// Simulated power cut (tests): everything not fsynced is gone.
  Status SimulateCrashForTest() { return engine_.SimulateCrashForTest(); }

  const std::vector<VectorSubfield>& subfields() const {
    return subfields_;
  }
  uint64_t num_cells() const { return store_->size(); }
  VectorIndexMethod method() const { return method_; }
  BufferPool& pool() { return *engine_.pool(); }
  const BoxZoneMap& zone_map() const { return store_->zone_map(); }
  WriteAheadLog* wal() const { return engine_.wal(); }
  EventLog* event_log() const { return engine_.event_log(); }
  uint32_t epoch() const { return engine_.epoch(); }

  void set_planner_mode(PlannerMode mode) {
    planner_mode_.store(mode, std::memory_order_relaxed);
  }
  PlannerMode planner_mode() const {
    return planner_mode_.load(std::memory_order_relaxed);
  }

  /// External-sort build telemetry (0 when the build never spilled).
  uint64_t ext_spill_runs() const { return ext_spill_runs_; }
  uint64_t ext_peak_buffered_bytes() const {
    return ext_peak_buffered_bytes_;
  }

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

  /// Shared lifecycle core; declared first so the storage outlives the
  /// store and tree at destruction.
  FieldEngine engine_;
  VectorIndexMethod method_ = VectorIndexMethod::kIHilbert;
  /// Cells in Hilbert order, with the (u, v) zone map the planner probes.
  std::optional<BasicCellStore<VectorCellRecord>> store_;
  std::unique_ptr<RStarTree<2>> tree_;  // null for LinearScan
  std::vector<VectorSubfield> subfields_;
  std::atomic<PlannerMode> planner_mode_{PlannerMode::kAuto};
  uint64_t ext_spill_runs_ = 0;
  uint64_t ext_peak_buffered_bytes_ = 0;
};

}  // namespace fielddb

#endif  // FIELDDB_VECTOR_VECTOR_INDEX_H_
