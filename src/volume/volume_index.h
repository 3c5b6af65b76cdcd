#ifndef FIELDDB_VOLUME_VOLUME_INDEX_H_
#define FIELDDB_VOLUME_VOLUME_INDEX_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/field_engine.h"
#include "core/query_context.h"
#include "core/stats.h"
#include "index/cell_store.h"
#include "index/subfield.h"
#include "plan/planner.h"
#include "rtree/rstar_tree.h"
#include "storage/page_file.h"
#include "storage/wal.h"
#include "volume/volume_field.h"

namespace fielddb {

/// Query-processing methods for volume fields.
enum class VolumeIndexMethod {
  kLinearScan,
  kIHilbert,  // 3-D Hilbert linearization + 1-D subfield R*-tree
};

const char* VolumeIndexMethodName(VolumeIndexMethod method);

/// Result of a 3-D value query: the measure (volume) of the region where
/// the field value lies in the band, plus the contributing voxels.
struct VolumeQueryResult {
  double volume = 0.0;
  QueryStats stats;
  /// The planner's decision this query executed: zone-map probe +
  /// disk-model costing through ChoosePlan, the selection the grid
  /// planner makes.
  PhysicalPlan plan;
};

/// The I-Hilbert method lifted to 3-D volume fields (the paper
/// generalizes the Hilbert curve to higher dimensionalities via [2]):
/// voxels are linearized by the 3-D Hilbert value of their coordinates,
/// stored in that order, grouped into subfields with the *same* scalar
/// cost function (values are still scalar — only the domain gained a
/// dimension), and the subfield intervals indexed in a 1-D R*-tree.
///
/// Hosted on the shared FieldEngine (core/field_engine.h): storage,
/// WAL-backed updates, crash-safe Save/Open and the event log are the
/// engine's, the catalog codec is core/catalog.h's, and the store,
/// subfield partition, refresh and plan are the ones every field type
/// shares (BasicCellStore, index/subfield_maintenance.h,
/// PlanStoreQuery); only the catalog schema, the voxel record layout,
/// the build key and the estimation visitor are volume-specific.
class VolumeFieldDatabase {
 public:
  struct Options {
    VolumeIndexMethod method = VolumeIndexMethod::kIHilbert;
    SubfieldCostConfig cost;
    uint32_t page_size = kDefaultPageSize;
    size_t pool_pages = 1024;
    RStarOptions rstar;
    /// Backing page file (defaults to MemPageFile). Fault-injection
    /// tests wrap the file to schedule faults against the live database.
    std::function<std::unique_ptr<PageFile>(uint32_t page_size)>
        page_file_factory;
    /// Initial access-path policy for band queries (see ChoosePlan).
    PlannerMode planner_mode = PlannerMode::kAuto;
    /// Durability for UpdateVoxelValues (DESIGN.md §14): every update is
    /// logged before it is applied and Open replays the log. Requires
    /// `wal_path`; use `<prefix>.wal` for the prefix the database will
    /// be saved under.
    WalMode wal_mode = WalMode::kOff;
    std::string wal_path;
    /// Structured operational event log (slow queries, recovery). Empty
    /// disables it.
    std::string event_log_path;
    double slow_query_threshold_ms = 25.0;
    /// Bounded-memory build (DESIGN.md §16): when nonzero, the 3-D
    /// Hilbert linearization sorts (key, voxel) pairs with the external
    /// merge sorter under this in-RAM budget, spilling sorted runs to
    /// temp files; the merge streams into the store appender and the
    /// subfield costing. Byte-identical to the unlimited build.
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

  static StatusOr<std::unique_ptr<VolumeFieldDatabase>> Build(
      const VolumeGridField& field, const Options& options);

  /// Reopens a database persisted by Save; `<prefix>.wal` frames are
  /// replayed first (see OpenOptions::wal_mode).
  static StatusOr<std::unique_ptr<VolumeFieldDatabase>> Open(
      const std::string& prefix);
  static StatusOr<std::unique_ptr<VolumeFieldDatabase>> Open(
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

  /// Band query: total volume where band.min <= w <= band.max (under the
  /// piecewise-linear Kuhn-tetrahedra reading), with per-query stats and
  /// the executed plan. Safe to run from any number of threads at once
  /// (updates excluded); the I/O in `out->stats` is this query's own,
  /// counted through `ctx` (a local context when null).
  Status BandQuery(const ValueInterval& band, VolumeQueryResult* out,
                   QueryContext* ctx = nullptr) const;

  /// The planner's decision for `band` under the current mode, without
  /// executing anything (zero I/O: the zone-map sidecar is in RAM).
  PhysicalPlan PlanBandQuery(const ValueInterval& band) const;

  /// Replaces the 8 corner samples of voxel `id`, WAL-logged when a log
  /// is armed. I-Hilbert refreshes the containing subfield's interval
  /// hull (and its R*-tree entry); the zone-map sidecar slot is updated
  /// either way.
  Status UpdateVoxelValues(VoxelId id, const std::vector<double>& w);

  /// Flushes and closes the storage (see FieldEngine::Close).
  Status Close() { return engine_.Close(); }
  /// Simulated power cut (tests): everything not fsynced is gone.
  Status SimulateCrashForTest() { return engine_.SimulateCrashForTest(); }

  const std::vector<Subfield>& subfields() const { return subfields_; }
  uint64_t num_cells() const { return store_->size(); }
  const ValueInterval& value_range() const { return value_range_; }
  VolumeIndexMethod method() const { return method_; }
  BufferPool& pool() { return *engine_.pool(); }
  const ScalarZoneMap& zone_map() const { return store_->zone_map(); }
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
      const std::vector<ValueInterval>& queries) const;

 private:
  VolumeFieldDatabase() = default;

  Status SaveImpl(const std::string& prefix, SnapshotCrashPoint crash_point);

  /// The redo half of an update — shared verbatim by UpdateVoxelValues
  /// and WAL replay, so recovery maintains the subfield hulls and zone
  /// map exactly like the original mutation did.
  Status ApplyVoxelValues(VoxelId id, const std::vector<double>& w);

  /// Shared lifecycle core; declared first so the storage outlives the
  /// store and tree at destruction.
  FieldEngine engine_;
  VolumeIndexMethod method_ = VolumeIndexMethod::kIHilbert;
  /// Voxels in 3-D Hilbert order, with the zone map the planner probes.
  std::optional<BasicCellStore<VoxelRecord>> store_;
  std::unique_ptr<RStarTree<1>> tree_;  // null for LinearScan
  std::vector<Subfield> subfields_;
  ValueInterval value_range_;
  double voxel_volume_ = 0.0;
  std::atomic<PlannerMode> planner_mode_{PlannerMode::kAuto};
  uint64_t ext_spill_runs_ = 0;
  uint64_t ext_peak_buffered_bytes_ = 0;
};

}  // namespace fielddb

#endif  // FIELDDB_VOLUME_VOLUME_INDEX_H_
