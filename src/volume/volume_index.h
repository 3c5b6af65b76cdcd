#ifndef FIELDDB_VOLUME_VOLUME_INDEX_H_
#define FIELDDB_VOLUME_VOLUME_INDEX_H_

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
class VolumeFieldDatabase : public ExtEngineHost {
 public:
  /// The settings every field type shares (EngineBuildOptions) plus the
  /// volume build's own.
  struct Options : EngineBuildOptions {
    VolumeIndexMethod method = VolumeIndexMethod::kIHilbert;
    SubfieldCostConfig cost;
  };

  using OpenOptions = EngineOpenOptions;

  static StatusOr<std::unique_ptr<VolumeFieldDatabase>> Build(
      const VolumeGridField& field, const Options& options);

  /// Reopens a database persisted by Save; `<prefix>.wal` frames are
  /// replayed first (see OpenOptions::wal_mode).
  static StatusOr<std::unique_ptr<VolumeFieldDatabase>> Open(
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

  const std::vector<Subfield>& subfields() const { return subfields_; }
  uint64_t num_cells() const { return store_->size(); }
  const ValueInterval& value_range() const { return value_range_; }
  VolumeIndexMethod method() const { return method_; }
  const ScalarZoneMap& zone_map() const { return store_->zone_map(); }
  /// The subfield tree; null for LinearScan.
  const RStarTree<1>* tree() const { return tree_.get(); }

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

  VolumeIndexMethod method_ = VolumeIndexMethod::kIHilbert;
  /// Voxels in 3-D Hilbert order, with the zone map the planner probes.
  std::optional<BasicCellStore<VoxelRecord>> store_;
  std::unique_ptr<RStarTree<1>> tree_;  // null for LinearScan
  std::vector<Subfield> subfields_;
  ValueInterval value_range_;
  double voxel_volume_ = 0.0;
};

}  // namespace fielddb

#endif  // FIELDDB_VOLUME_VOLUME_INDEX_H_
