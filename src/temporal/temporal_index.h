#ifndef FIELDDB_TEMPORAL_TEMPORAL_INDEX_H_
#define FIELDDB_TEMPORAL_TEMPORAL_INDEX_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/field_database.h"
#include "core/field_engine.h"
#include "core/query_context.h"
#include "curve/curves.h"
#include "index/subfield.h"
#include "index/zone_sidecar.h"
#include "plan/planner.h"
#include "rtree/rstar_tree.h"
#include "storage/page_file.h"
#include "storage/record_store.h"
#include "storage/wal.h"
#include "temporal/temporal_field.h"
#include "vector/vector_record.h"

namespace fielddb {

/// A (time, value-band) snapshot query — the workload unit for
/// TemporalFieldDatabase::RunWorkload.
using TemporalSnapshotQuery = std::pair<double, ValueInterval>;

/// I-Hilbert lifted to space-time: cells are Hilbert-ordered once; each
/// *time slab* [k, k+1] stores one record per cell carrying the vertex
/// samples at both slab endpoints (time interpolation is linear, so the
/// slab's per-cell value interval is the hull of the endpoint vertex
/// values — exact). Slab subfields are built with the scalar cost
/// function; their entries live in a single 2-D R*-tree over
/// (value-interval x time-interval), so one box query answers both
/// "at time t" and "at any time in [t0, t1]" filtering.
///
/// Hosted on the shared FieldEngine (core/field_engine.h): storage,
/// WAL-backed updates, crash-safe Save/Open and the event log are the
/// engine's, and so is the catalog codec (core/catalog.h); only the
/// catalog schema, the slab layout and the subfield redo logic are
/// temporal-specific.
class TemporalFieldDatabase {
 public:
  struct Options {
    CurveType curve = CurveType::kHilbert;
    int curve_order = 16;
    SubfieldCostConfig cost;
    uint32_t page_size = kDefaultPageSize;
    size_t pool_pages = 2048;
    RStarOptions rstar;
    /// Backing page file (defaults to MemPageFile). Fault-injection
    /// tests wrap the file to schedule faults against the live database.
    std::function<std::unique_ptr<PageFile>(uint32_t page_size)>
        page_file_factory;
    /// Initial access-path policy for snapshot queries (see
    /// ChoosePlan).
    PlannerMode planner_mode = PlannerMode::kAuto;
    /// Durability for UpdateSnapshotCellValues (DESIGN.md §14). Requires
    /// `wal_path`; use `<prefix>.wal` for the prefix the database will
    /// be saved under. A logged frame carries the snapshot index as
    /// values[0] followed by the vertex samples.
    WalMode wal_mode = WalMode::kOff;
    std::string wal_path;
    /// Structured operational event log. Empty disables it.
    std::string event_log_path;
    double slow_query_threshold_ms = 25.0;
    /// Bounded-memory build (DESIGN.md §16): when nonzero, the shared
    /// Hilbert linearization sorts (key, cell) pairs with the external
    /// merge sorter under this in-RAM budget. Byte-identical to the
    /// unlimited build.
    size_t build_memory_budget_bytes = 0;
  };

  /// Reopen options, mirroring FieldDatabase::OpenOptions.
  struct OpenOptions {
    size_t pool_pages = 2048;
    WalMode wal_mode = WalMode::kOff;
    /// Optional out-param describing the replay (may be null).
    EngineRecoveryReport* recovery_report = nullptr;
    std::string event_log_path;
    double slow_query_threshold_ms = 25.0;
    PlannerMode planner_mode = PlannerMode::kAuto;
  };

  static StatusOr<std::unique_ptr<TemporalFieldDatabase>> Build(
      const TemporalGridField& field, const Options& options);

  /// Reopens a database persisted by Save; `<prefix>.wal` frames are
  /// replayed first (see OpenOptions::wal_mode).
  static StatusOr<std::unique_ptr<TemporalFieldDatabase>> Open(
      const std::string& prefix);
  static StatusOr<std::unique_ptr<TemporalFieldDatabase>> Open(
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

  /// Q2 at a time instant: exact regions where band.min <= F(p, t) <=
  /// band.max. `t` must lie in [0, T-1]. `out->plan` records the
  /// planner's decision for the touched slab. Safe to run from any
  /// number of threads at once (updates excluded); the I/O in
  /// `out->stats` is this query's own, counted through `ctx` (a local
  /// context when null).
  Status SnapshotValueQuery(double t, const ValueInterval& band,
                            ValueQueryResult* out,
                            QueryContext* ctx = nullptr) const;

  /// The planner's decision for a snapshot query at `t` under the
  /// current mode, without executing anything (zero I/O: the slab's
  /// zone-map sidecar is in RAM).
  PhysicalPlan PlanSnapshotQuery(double t, const ValueInterval& band) const;

  /// Filtering step over a time range: the cells whose value interval
  /// over any moment of [t0, t1] intersects `band` (no false negatives;
  /// may include slab-level false positives). Cell ids, ascending,
  /// deduplicated.
  Status TimeRangeCandidates(const ValueInterval& band, double t0,
                             double t1, std::vector<CellId>* out) const;

  /// Replaces the vertex samples of cell `id` at snapshot `snapshot`
  /// (`values.size()` must match the cell's vertex count). A snapshot
  /// borders up to two slabs — [snapshot-1, snapshot] and
  /// [snapshot, snapshot+1] — and both slab records (and their subfield
  /// R*-tree entries and zone-map slots) are refreshed. WAL-logged when
  /// a log is armed.
  Status UpdateSnapshotCellValues(uint32_t snapshot, CellId id,
                                  const std::vector<double>& values);

  /// Flushes and closes the storage (see FieldEngine::Close).
  Status Close() { return engine_.Close(); }
  /// Simulated power cut (tests): everything not fsynced is gone.
  Status SimulateCrashForTest() { return engine_.SimulateCrashForTest(); }

  uint32_t num_slabs() const { return num_slabs_; }
  uint64_t num_subfields() const { return total_subfields_; }
  uint64_t num_cells() const { return pos_of_.size(); }
  BufferPool& pool() { return *engine_.pool(); }
  const ScalarZoneMap& slab_zone_map(uint32_t k) const {
    return slabs_[k].zones;
  }
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

  /// Average stats over a snapshot-query workload (cold cache per
  /// query).
  StatusOr<WorkloadStats> RunWorkload(
      const std::vector<TemporalSnapshotQuery>& queries) const;

 private:
  TemporalFieldDatabase() = default;

  struct Slab {
    std::unique_ptr<RecordStore<VectorCellRecord>> store;
    std::vector<Subfield> subfields;
    /// In-RAM per-slot slab value intervals: the planner's zero-I/O
    /// selectivity probe (rebuilt on Open, maintained on update).
    ScalarZoneMap zones;
  };

  Status SaveImpl(const std::string& prefix, SnapshotCrashPoint crash_point);

  /// The redo half of an update — shared verbatim by
  /// UpdateSnapshotCellValues and WAL replay, so recovery maintains the
  /// subfield hulls and zone maps exactly like the original mutation.
  Status ApplySnapshotCellValues(uint32_t snapshot, CellId id,
                                 const std::vector<double>& values);

  /// Rewrites one endpoint (`u_side` = earlier snapshot) of slab `k`'s
  /// record at store position `pos` and refreshes the containing
  /// subfield's tree entry plus the slab's zone-map slot.
  Status UpdateSlabSide(uint32_t k, uint64_t pos, bool u_side,
                        const std::vector<double>& values);

  /// The slab a snapshot query at time `t` reads (t clamped to
  /// [0, T-1]; t = T-1 reads the last slab).
  uint32_t SlabAt(double t) const;

  /// Shared lifecycle core; declared first so the storage outlives the
  /// slab stores and tree at destruction.
  FieldEngine engine_;
  uint32_t num_slabs_ = 0;
  double t_max_ = 0.0;
  uint64_t total_subfields_ = 0;
  std::vector<Slab> slabs_;
  std::unique_ptr<RStarTree<2>> tree_;
  /// Store position of each cell id (inverse of the shared Hilbert
  /// order; identical across slabs).
  std::vector<uint64_t> pos_of_;
  std::atomic<PlannerMode> planner_mode_{PlannerMode::kAuto};
  uint64_t ext_spill_runs_ = 0;
  uint64_t ext_peak_buffered_bytes_ = 0;
};

}  // namespace fielddb

#endif  // FIELDDB_TEMPORAL_TEMPORAL_INDEX_H_
