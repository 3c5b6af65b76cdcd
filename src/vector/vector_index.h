#ifndef FIELDDB_VECTOR_VECTOR_INDEX_H_
#define FIELDDB_VECTOR_VECTOR_INDEX_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/field_engine.h"
#include "core/query_context.h"
#include "core/stats.h"
#include "curve/curves.h"
#include "field/region.h"
#include "index/zone_sidecar.h"
#include "plan/planner.h"
#include "rtree/rstar_tree.h"
#include "storage/page_file.h"
#include "storage/record_store.h"
#include "storage/wal.h"
#include "vector/vector_isoband.h"
#include "vector/vector_record.h"

namespace fielddb {

/// A subfield of a vector field: a Hilbert-contiguous run of cells with
/// the 2-D MBR of their (u, v) values. Generalizes the scalar Subfield.
struct VectorSubfield {
  uint64_t start = 0;
  uint64_t end = 0;
  Box<2> box = Box<2>::Empty();
  double sum_box_sizes = 0.0;  // Σ per-cell PaperSize(u) * PaperSize(v)

  uint64_t NumCells() const { return end - start; }
};

/// Cost model generalizing Section 3.1 to 2-D value boxes, after the 2-D
/// case of Kamel & Faloutsos [14]: a box with normalized extents
/// (Lu, Lv) is touched by the average box query with probability
/// P = (Lu + q̄)(Lv + q̄); the subfield cost is C = P / SI with SI the
/// sum of member cells' value-box sizes.
struct VectorCostConfig {
  double avg_query_fraction = 0.5;
};

class VectorSubfieldCostModel {
 public:
  VectorSubfieldCostModel(const Box<2>& value_range,
                          const VectorCostConfig& config);

  double Cost(const Box<2>& box, double sum_box_sizes) const;
  bool ShouldAppend(const VectorSubfield& current,
                    const Box<2>& cell_box) const;

 private:
  static double BoxPaperSize(const Box<2>& b) {
    return (b.hi[0] - b.lo[0] + 1.0) * (b.hi[1] - b.lo[1] + 1.0);
  }

  VectorCostConfig config_;
  double range_u_;
  double range_v_;
};

/// Streaming vector-subfield partitioner — the 2-D sibling of
/// SubfieldStreamBuilder: cell value boxes arrive one at a time in
/// curve order (the external-sort merge feeds it without materializing
/// all boxes) and Finish() seals the last subfield. BuildVectorSubfields
/// is a thin wrapper, so streamed and vector builds produce identical
/// partitions by construction.
class VectorSubfieldStreamBuilder {
 public:
  VectorSubfieldStreamBuilder(const Box<2>& value_range,
                              const VectorCostConfig& config);

  /// Appends the next cell's value box, growing the open subfield or
  /// sealing it per the paper's insertion rule.
  void Add(const Box<2>& cell_box);

  /// Seals the open subfield and returns the partition. The builder is
  /// consumed.
  std::vector<VectorSubfield> Finish();

 private:
  VectorSubfieldCostModel model_;
  std::vector<VectorSubfield> subfields_;
  VectorSubfield current_;
  uint64_t num_cells_ = 0;
};

/// Greedy grouping of curve-ordered cell value boxes, same insertion
/// rule as the scalar builder.
std::vector<VectorSubfield> BuildVectorSubfields(
    const std::vector<Box<2>>& cell_boxes, const Box<2>& value_range,
    const VectorCostConfig& config);

/// Query-processing methods for vector fields.
enum class VectorIndexMethod {
  kLinearScan,  // scan every cell record
  kIHilbert,    // subfields over Hilbert-ordered cells, 2-D R*-tree
};

const char* VectorIndexMethodName(VectorIndexMethod method);

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
/// engine's; only the catalog format, the record layout and the
/// subfield redo logic are vector-specific.
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
  const BoxZoneMap& zone_map() const { return zones_; }
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
  std::unique_ptr<RecordStore<VectorCellRecord>> store_;
  std::unique_ptr<RStarTree<2>> tree_;  // null for LinearScan
  std::vector<VectorSubfield> subfields_;
  /// In-RAM per-slot (u, v) value boxes: the planner's zero-I/O
  /// selectivity probe (rebuilt on Open, maintained on update).
  BoxZoneMap zones_;
  /// Store position of each field cell id (inverse of the build order).
  std::vector<uint64_t> pos_of_;
  std::atomic<PlannerMode> planner_mode_{PlannerMode::kAuto};
  uint64_t ext_spill_runs_ = 0;
  uint64_t ext_peak_buffered_bytes_ = 0;
};

}  // namespace fielddb

#endif  // FIELDDB_VECTOR_VECTOR_INDEX_H_
