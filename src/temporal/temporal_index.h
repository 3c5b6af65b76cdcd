#ifndef FIELDDB_TEMPORAL_TEMPORAL_INDEX_H_
#define FIELDDB_TEMPORAL_TEMPORAL_INDEX_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/field_database.h"
#include "core/field_engine.h"
#include "core/query_context.h"
#include "curve/curves.h"
#include "index/cell_store.h"
#include "index/subfield.h"
#include "plan/planner.h"
#include "rtree/rstar_tree.h"
#include "storage/page_file.h"
#include "storage/wal.h"
#include "temporal/temporal_field.h"
#include "vector/vector_record.h"

namespace fielddb {

/// One cell's record in time slab [k, k+1]: the cell's geometry with its
/// vertex samples at both ends, u at snapshot k and v at snapshot k+1.
/// Time interpolation is linear, so the record's value interval over the
/// whole slab — its store key — is the hull of both ends' samples
/// (exact).
struct TemporalSlabRecord : VectorCellRecord {
  ValueInterval Interval() const {
    ValueInterval iv = ValueInterval::Empty();
    for (uint32_t i = 0; i < num_vertices; ++i) {
      iv.Extend(u[i]);
      iv.Extend(v[i]);
    }
    return iv;
  }
};

static_assert(sizeof(TemporalSlabRecord) == sizeof(VectorCellRecord),
              "TemporalSlabRecord layout is part of the store page format");

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
/// engine's, the catalog codec is core/catalog.h's, and each slab's
/// store, subfield partition, refresh and plan are the ones every field
/// type shares; only the catalog schema, the slab record, the tree entry
/// (value interval × [k, k+1], addressed by (k, subfield)) and the
/// estimation visitor are temporal-specific. Each slab's store keeps its
/// own id -> slot map: 8 B per cell per slab.
class TemporalFieldDatabase : public ExtEngineHost {
 public:
  /// The settings every field type shares (EngineBuildOptions, with a
  /// 2048-frame pool) plus the temporal build's own. A logged WAL frame
  /// carries the snapshot index as values[0] followed by the vertex
  /// samples.
  struct Options : EngineBuildOptions {
    Options() { pool_pages = 2048; }
    CurveType curve = CurveType::kHilbert;
    SubfieldCostConfig cost;
  };

  /// EngineOpenOptions with a 2048-frame pool.
  struct OpenOptions : EngineOpenOptions {
    OpenOptions() { pool_pages = 2048; }
  };

  static StatusOr<std::unique_ptr<TemporalFieldDatabase>> Build(
      const TemporalGridField& field, const Options& options);

  /// Reopens a database persisted by Save; `<prefix>.wal` frames are
  /// replayed first (see OpenOptions::wal_mode).
  static StatusOr<std::unique_ptr<TemporalFieldDatabase>> Open(
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

  /// Q2 at a time instant: exact regions where band.min <= F(p, t) <=
  /// band.max. `t` must lie in [0, T-1] (OutOfRange otherwise, NaN
  /// included). `out->plan` records the planner's decision for the
  /// touched slab. Safe to run from any number of threads at once
  /// (updates excluded); the I/O in `out->stats` is this query's own,
  /// counted through `ctx` (a local context when null).
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
  /// deduplicated. `t0` and `t1` must be finite with t0 <= t1.
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

  uint32_t num_slabs() const { return num_slabs_; }
  uint64_t num_subfields() const { return total_subfields_; }
  uint64_t num_cells() const { return slabs_.front().store.size(); }
  const ScalarZoneMap& slab_zone_map(uint32_t k) const {
    return slabs_[k].store.zone_map();
  }
  /// Slab `k`'s subfield table (slots of its store).
  const std::vector<Subfield>& slab_subfields(uint32_t k) const {
    return slabs_[k].subfields;
  }
  /// The one (value × time) tree over every slab's subfields.
  const RStarTree<2>& tree() const { return *tree_; }
  /// Average stats over a snapshot-query workload (cold cache per
  /// query).
  StatusOr<WorkloadStats> RunWorkload(
      const std::vector<TemporalSnapshotQuery>& queries) const;

 private:
  TemporalFieldDatabase() = default;

  struct Slab {
    BasicCellStore<TemporalSlabRecord> store;
    std::vector<Subfield> subfields;
  };

  Status SaveImpl(const std::string& prefix, SnapshotCrashPoint crash_point);

  /// The redo half of an update — shared verbatim by
  /// UpdateSnapshotCellValues and WAL replay, so recovery maintains the
  /// subfield hulls and zone maps exactly like the original mutation.
  Status ApplySnapshotCellValues(uint32_t snapshot, CellId id,
                                 const std::vector<double>& values);

  /// Rewrites one endpoint (`u_side` = earlier snapshot) of cell `id`'s
  /// record in slab `k` and refreshes the containing subfield's tree
  /// entry.
  Status UpdateSlabSide(uint32_t k, CellId id, bool u_side,
                        const std::vector<double>& values);

  /// The subfield a tree leaf entry names (slab `e.a`, subfield `e.b`),
  /// or kCorruption when either index is past its table: an entry
  /// forged under a valid page checksum.
  StatusOr<const Subfield*> EntrySubfield(const RTreeEntry<2>& e) const;

  /// The slab a snapshot query at time `t` reads: t clamped to
  /// [0, T-1], t = T-1 reading the last slab. Defined for every double
  /// (NaN reads slab 0), because PlanSnapshotQuery takes any `t`.
  uint32_t SlabAt(double t) const;

  uint32_t num_slabs_ = 0;
  double t_max_ = 0.0;
  uint64_t total_subfields_ = 0;
  std::vector<Slab> slabs_;
  std::unique_ptr<RStarTree<2>> tree_;
};

}  // namespace fielddb

#endif  // FIELDDB_TEMPORAL_TEMPORAL_INDEX_H_
