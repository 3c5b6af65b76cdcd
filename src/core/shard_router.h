#ifndef FIELDDB_CORE_SHARD_ROUTER_H_
#define FIELDDB_CORE_SHARD_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/field_database.h"
#include "core/shard.h"
#include "obs/slo.h"

namespace fielddb {

/// Build-time configuration of a sharded database.
struct ShardRouterOptions {
  /// Contiguous ranges of the cells' `db.ihilbert.curve` order (the
  /// Hilbert curve by default); clamped to [1, NumCells()]. One per
  /// core is the intended deployment (bench_shard_scaling).
  uint32_t shards = 1;
  /// Per-shard database options (method, page size, planner mode, WAL
  /// mode, ...). pool_pages is PER SHARD: N shards own N independent
  /// pools of this size. When db.wal_mode != kOff, `wal_prefix` must
  /// name the prefix the router will be saved under — shard k then logs
  /// to `<wal_prefix>.s<k>.wal`, exactly where a later Open(wal_prefix)
  /// finds it.
  FieldDatabaseOptions db;
  std::string wal_prefix;
};

/// What recovery did across every shard during ShardRouter::Open.
struct RouterRecoveryReport {
  uint64_t frames_replayed = 0;
  uint64_t stale_frames = 0;
  uint64_t torn_bytes = 0;
  /// Shards whose own WAL replay re-applied at least one frame.
  uint32_t shards_with_replay = 0;
  std::vector<FieldDatabase::RecoveryReport> per_shard;
};

/// Per-query routing profile (optional out-param of Query): which
/// shards the scatter touched, what each contributed. per_shard is
/// indexed by shard id; untouched shards keep default-constructed
/// stats. A touched shard's entry merges its members' stats (its first
/// member's trace, when traced, included); its wall_seconds is the
/// lane's clock around the shard's one Query, positive when touched.
struct RouterQueryProfile {
  uint32_t shards_touched = 0;
  uint32_t shards_skipped = 0;
  std::vector<QueryStats> per_shard;
};

/// The shard-per-core serving layer (DESIGN.md §18): N contiguous
/// Hilbert-range shards, each a self-contained FieldDatabase with its
/// own BufferPool, value index, zone-map sidecar and executor lane,
/// behind a scatter/gather front end.
///
/// Routing: every query is clipped against each shard's value hull
/// (Shard::MayContain); only shards whose hull it meets are scattered
/// to, each on its own lane. Gather is deterministic — per-shard results merge in
/// ascending shard id, and because shard-local store order equals the
/// global Hilbert linearization restricted to the shard, the
/// concatenated Region is bit-identical to the 1-shard answer (exactly
/// identical piece order for I-Hilbert, whose store order IS the
/// linearization).
///
/// Admission control: at most 4 * shards queries run concurrently;
/// excess callers block at the front door (counting the wait in
/// router.admission_waits) instead of piling onto shard lanes. Every
/// band is recorded against the per-class SLO tracker
/// (SloTracker::DefaultQueryClasses) by its width relative to the
/// router's global value range, a refused or failed one as a miss.
/// Each shard's lane is one worker thread with 256 queue slots.
///
/// Threading contract: Query and PointQuery are const and thread-safe;
/// mutations (Update*, Save, Close) require external exclusion, same as
/// FieldDatabase.
class ShardRouter {
 public:
  static StatusOr<std::unique_ptr<ShardRouter>> Build(
      const Field& field, const ShardRouterOptions& options);

  /// Persists every shard under `<prefix>.s<k>` (each the standard
  /// atomic two-rename checkpoint), then atomically renames the router
  /// catalog `<prefix>.router` (shard count, key ranges, local->global
  /// id maps) into place. The catalog is partition metadata only — it
  /// is identical across saves of the same build — so a crash between
  /// shard checkpoints leaves every shard independently consistent at
  /// its own epoch, with each shard's WAL bridging its own gap.
  Status Save(const std::string& prefix);

  struct OpenOptions {
    /// Buffer-pool frames PER SHARD.
    size_t pool_pages = 1024;
    /// Applied to every shard: any mode replays that shard's WAL.
    WalMode wal_mode = WalMode::kOff;
    /// Optional aggregate replay report (may be null).
    RouterRecoveryReport* recovery_report = nullptr;
  };

  /// Reopens a sharded database persisted by Save: reads the catalog
  /// (its cell and shard counts bounded by the file's size before
  /// anything is sized from them), opens every shard (each replaying its
  /// own WAL), and rebuilds the global->(shard, local) id map from the
  /// catalog.
  static StatusOr<std::unique_ptr<ShardRouter>> Open(
      const std::string& prefix, const OpenOptions& options);

  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Scatter/gather value query, the router's one band-query call
  /// (see FieldDatabase::Query for the request). Every band is
  /// validated before admission. Each touched shard gets the request
  /// cut down to the bands MayContain admits, and the shard's lane runs
  /// them as one FieldDatabase::Query, which alone decides which bands
  /// share a sweep and plans each sweep. Nothing is planned on the
  /// caller's thread. Gather is in ascending shard id (see the class
  /// comment for why that is deterministic); the lowest shard touching
  /// a band answers into the caller's piece storage, so its capacity is
  /// reused and those pieces are never copied. Each band's merged stats
  /// sum every touched shard's counters (leader-charged I/O within each
  /// shard's sweeps, so summed member I/O equals the I/O issued);
  /// wall_seconds is the router-level wall time. Each result's `plan`
  /// stays at its default: every touched shard ran a plan of its own.
  Status Query(const QueryRequest& request, std::span<ValueQueryResult> out,
               RouterQueryProfile* profile = nullptr) const;

  /// One region query through Query. Kept for the external benchmark
  /// program only, which still spells its calls this way.
  Status ValueQuery(const ValueInterval& query, ValueQueryResult* out,
                    RouterQueryProfile* profile = nullptr) const {
    return Query({.bands = {&query, 1}}, {out, 1}, profile);
  }

  /// Conventional point query. Over a grid, the lattice arithmetic
  /// (GridLattice::FindCell) names the cell once, the global id map
  /// names its shard and local id, and that one shard's store is read:
  /// the answer equals the field's ValueAt bit for bit. Otherwise shards
  /// are probed in id order and the first that finds a containing cell
  /// answers. NotFound outside the domain.
  StatusOr<double> PointQuery(Point2 p) const;

  /// Routes a global-id update to the owning shard (which WAL-logs it
  /// under the shard-local id).
  Status UpdateCellValues(CellId global_id,
                          const std::vector<double>& values);

  /// Batched update, partitioned by owning shard; each shard's
  /// sub-batch group-commits through that shard's WAL. Cross-shard
  /// atomicity is NOT provided: a crash can persist one shard's
  /// sub-batch and not another's (each shard is individually
  /// all-or-nothing; see DESIGN.md §18).
  Status UpdateCellValuesBatch(
      const std::vector<FieldDatabase::CellUpdate>& updates);

  /// Drains every lane and closes every shard, surfacing the first
  /// error. The router is unusable afterwards.
  Status Close();

  /// Simulated power cut on every shard (tests).
  Status SimulateCrashForTest();

  size_t num_shards() const { return shards_.size(); }
  const Shard& shard(size_t k) const { return *shards_[k]; }
  uint64_t num_cells() const { return global_map_.size(); }
  /// Hull of every shard's value range (tracks updates).
  ValueInterval value_range() const;
  /// Global domain (identical across shards).
  const Rect2& domain() const { return domain_; }
  SloTracker& slo() const { return slo_; }

  /// Flips the planner mode on every shard.
  void set_planner_mode(PlannerMode mode);

 private:
  ShardRouter() = default;

  /// Common post-construction wiring: global map, metrics, SLO,
  /// admission bound.
  void Init();
  /// The `.router` catalog's text, signed (SignCatalog).
  std::string FormatCatalog() const;

  /// One touched shard's part of a Query: the request's bands it may
  /// contribute to, their results, and what running them cost.
  struct ShardWork;

  /// RAII admission slot; blocks while max_inflight_ are in flight.
  class AdmissionSlot {
   public:
    explicit AdmissionSlot(const ShardRouter* router);
    ~AdmissionSlot();

   private:
    const ShardRouter* router_;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  /// global cell id -> (shard id, local cell id).
  std::vector<std::pair<uint32_t, CellId>> global_map_;
  Rect2 domain_;
  mutable SloTracker slo_{SloTracker::DefaultQueryClasses()};

  size_t max_inflight_ = 0;
  mutable std::mutex admission_mu_;
  mutable std::condition_variable admission_cv_;
  mutable size_t inflight_ = 0;

  Counter* queries_ = nullptr;          // router.queries
  Counter* shards_touched_ = nullptr;   // router.shards_touched
  Counter* shards_skipped_ = nullptr;   // router.shards_skipped
  Counter* admission_waits_ = nullptr;  // router.admission_waits
};

}  // namespace fielddb

#endif  // FIELDDB_CORE_SHARD_ROUTER_H_
