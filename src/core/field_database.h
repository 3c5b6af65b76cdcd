#ifndef FIELDDB_CORE_FIELD_DATABASE_H_
#define FIELDDB_CORE_FIELD_DATABASE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/field_engine.h"
#include "core/query_context.h"
#include "core/stats.h"
#include "field/field.h"
#include "field/isoline.h"
#include "field/region.h"
#include "index/i_all.h"
#include "index/i_hilbert.h"
#include "index/interval_quadtree.h"
#include "index/linear_scan.h"
#include "index/row_ip_index.h"
#include "index/value_index.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "plan/planner.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/wal.h"

namespace fielddb {

/// Everything configurable about a FieldDatabase build: the settings
/// every field type shares (EngineBuildOptions) plus the grid's own.
struct FieldDatabaseOptions : EngineBuildOptions {
  IndexMethod method = IndexMethod::kIHilbert;
  /// Build a 2-D R*-tree over cell MBRs for conventional (Q1) point
  /// queries on a field without a lattice (a TIN). A grid never builds
  /// one: its point queries are arithmetic on the lattice.
  bool build_spatial_index = true;

  IHilbertIndex::Options ihilbert;
  IntervalQuadtreeIndex::Options iqt;
};

/// Result of a field value query (Q2).
struct ValueQueryResult {
  Region region;       // exact answer regions (estimation step output)
  QueryStats stats;
  /// The planner's decision this query executed. Stamped by the
  /// extension engines (temporal snapshot queries); the grid facade
  /// reports its decision through EXPLAIN instead.
  PhysicalPlan plan;

  /// Empties the result in place. The pieces keep their capacity, so a
  /// client that reuses its result does not regrow them per query.
  void Reset() {
    region.pieces.clear();
    stats = QueryStats{};
    plan = PhysicalPlan{};
  }
};

/// One field value query (Q2) request: FieldDatabase::Query and
/// ShardRouter::Query take it. One band is a single query; several
/// bands are answered together by one shared sweep (DESIGN.md §17),
/// each member bit-identical to running it alone.
struct QueryRequest {
  std::span<const ValueInterval> bands;
  /// Build the answer regions. false counts only (candidates, answer
  /// and inside cells) — the figure benches' shape, since the paper
  /// times filtering + retrieval + interpolation, not polygon
  /// bookkeeping.
  bool regions = true;
  /// Record per-phase spans into member 0's `stats.trace`: "plan",
  /// "filter" (indexed plans), "fetch" and "estimate". Span I/O sums
  /// exactly to member 0's `io`. Slower than an untraced query
  /// (per-cell clock reads in the estimation step).
  bool trace = false;

  /// Every facade's admission check: one result slot per band and no
  /// empty band, else InvalidArgument.
  Status Check(size_t num_results) const;
};

/// Result of an isoline query (the exact-value specialization of Q2,
/// rendered as curves instead of regions).
struct IsolineQueryResult {
  Isoline isoline;
  QueryStats stats;
};

/// The public facade: a self-contained continuous-field database. `Build`
/// copies the field's cells into paged storage (clustered as the chosen
/// index dictates) and constructs the value index; afterwards the source
/// Field is no longer referenced. A field with a lattice (a grid) stores
/// only each cell's values, in 40-byte slots; any other field stores
/// explicit 104-byte CellRecords (CellSlots). Supports both query
/// classes of the paper:
///  - Q2 `Query`: F^-1([w', w'']) -> regions (the paper's subject);
///  - Q1 `PointQuery`: F(v') -> value, by arithmetic on a grid's lattice,
///    else via the 2-D R*-tree over cell MBRs.
///
/// Threading model: every query entry point is const and safe to call
/// from any number of threads concurrently on one open database — the
/// core (index, spatial tree, value range) is immutable after
/// Build/Open, the buffer pool is internally sharded, and per-query
/// mutable state lives in a QueryContext the caller may supply (one per
/// thread; a null `ctx` makes the call use a local one). The mutating
/// operations — UpdateCellValues, Save, Scrub, Close — are not
/// synchronized against queries or each other; callers must exclude
/// them externally (see DESIGN.md §11).
class FieldDatabase : public EngineHost {
 public:
  static StatusOr<std::unique_ptr<FieldDatabase>> Build(
      const Field& field, const FieldDatabaseOptions& options = {});

  ~FieldDatabase();

  /// Persists the database as `<prefix>.pages` (the checksummed page
  /// file) plus `<prefix>.meta` (a small text catalog: page size,
  /// method, tree roots, subfield table, value range, domain). The save
  /// is crash-safe: both files are written to `.tmp` siblings, fsynced,
  /// then atomically renamed over the previous snapshot — a crash at
  /// any point leaves either the old snapshot or the new one loadable,
  /// never a torn mix (each Save stamps a fresh epoch into every page
  /// header and the catalog, so a mix is detected as corruption).
  Status Save(const std::string& prefix);

  /// Deterministic interruption points inside Save, in pipeline order —
  /// the engine-wide SnapshotCrashPoint (core/field_engine.h), aliased
  /// for the existing crash-matrix tests.
  using SaveCrashPoint = SnapshotCrashPoint;

  /// Save that stops at `crash_point` (kNone = a normal Save).
  Status SaveWithCrashPointForTest(const std::string& prefix,
                                   SaveCrashPoint crash_point) {
    return SaveImpl(prefix, crash_point);
  }

  /// What recovery did during Open — the engine-wide
  /// EngineRecoveryReport (core/field_engine.h), aliased for existing
  /// callers.
  using RecoveryReport = EngineRecoveryReport;

  /// Reopen options: the settings every field type shares.
  using OpenOptions = EngineOpenOptions;

  /// Reopens a database persisted by Save. Queries run against the
  /// on-disk page file through a buffer pool of `pool_pages` frames.
  /// If `<prefix>.wal` exists, its committed frames are replayed first
  /// (see OpenOptions::wal_mode).
  static StatusOr<std::unique_ptr<FieldDatabase>> Open(
      const std::string& prefix, size_t pool_pages = 1024);
  static StatusOr<std::unique_ptr<FieldDatabase>> Open(
      const std::string& prefix, const OpenOptions& options);

  /// Snapshot epoch of the catalog at `prefix`, without opening the
  /// database (read-only). Diagnostics use it to split a log's frames
  /// into replayable (current epoch) and superseded (older) without
  /// triggering a replay.
  static StatusOr<uint32_t> PeekEpoch(const std::string& prefix);

  FieldDatabase(const FieldDatabase&) = delete;
  FieldDatabase& operator=(const FieldDatabase&) = delete;

  /// Field value query, the one band-query call: for each band of
  /// `request`, the exact answer regions where band.min <= F(p) <=
  /// band.max plus per-query stats, into `out[i]` (one slot per band,
  /// reset in place first — see ValueQueryResult::Reset). A non-null
  /// `ctx` lets a thread reuse its scratch across queries; null creates
  /// a local context per call.
  ///
  /// One band plans and runs alone; its `candidate_cells` is the filter
  /// step's count, subfield false positives included. Several bands run
  /// as ONE sweep (DESIGN.md §17): the members' hull is planned like a
  /// single query, executed in one pass over the clustered store, and
  /// demultiplexed — every visited cell is tested against each member's
  /// band exactly, so each member's region and counts are bit-identical
  /// to running it alone, and each member counts its own candidates.
  /// I/O is leader-charged: the sweep's whole I/O lands on member 0 and
  /// the riders report zero, so the members' I/O sums to exactly the one
  /// sweep. Every member reports the sweep's wall time (they all waited
  /// for it). A corrupt index page degrades the sweep to a full store
  /// scan with identical answers, reported by every member.
  Status Query(const QueryRequest& request, std::span<ValueQueryResult> out,
               QueryContext* ctx = nullptr) const;

  /// One region query through Query. Kept for the external benchmark
  /// program only, which still spells its calls this way.
  Status ValueQuery(const ValueInterval& query, ValueQueryResult* out,
                    QueryContext* ctx = nullptr) const {
    return Query({.bands = {&query, 1}}, {out, 1}, ctx);
  }

  /// One traced count-only query through Query; `out` is its stats.
  /// Kept for the external benchmark program only.
  Status TracedValueQueryStats(const ValueInterval& query, QueryStats* out,
                               QueryContext* ctx = nullptr) const {
    ValueQueryResult result;
    const Status s = Query(
        {.bands = {&query, 1}, .regions = false, .trace = true},
        {&result, 1}, ctx);
    *out = std::move(result.stats);
    return s;
  }

  /// One hit of a nearest-value query.
  struct NearestCell {
    CellId id = kInvalidCellId;
    /// Distance from the query value to the cell's value interval
    /// (0 when the interval contains it).
    double distance = 0.0;
    ValueInterval interval;
  };

  /// The paper's "value approximately equal to w'" need (Section 2.2.2)
  /// without guessing an error bound: the k cells whose value intervals
  /// are nearest to `w`, ascending by distance. I-All answers via
  /// best-first R*-tree NN; subfield methods refine nearest subfields;
  /// LinearScan scans.
  Status NearestValueQuery(double w, size_t k,
                           std::vector<NearestCell>* out) const;

  /// Isoline query: the curves where F(p) == level, assembled into
  /// polylines (the van Kreveld [24] use case: the filtering step runs
  /// with the degenerate interval [level, level], then per-cell segments
  /// are extracted and stitched).
  Status IsolineQuery(double level, IsolineQueryResult* out) const;

  /// Conventional point query: the interpolated value at `p`, NotFound
  /// outside the domain. A lattice database finds the cell as
  /// GridLattice::FindCell does and reads it through the id -> slot map,
  /// so the answer equals the built field's ValueAt bit for bit; other
  /// databases search the spatial tree, or scan without one.
  StatusOr<double> PointQuery(Point2 p) const;

  /// Replaces the sample values of cell `id` (e.g. a new sensor reading;
  /// cell geometry is immutable). The value index maintains its interval
  /// entries so subsequent queries see the new values; subfield methods
  /// refresh the touched subfield's interval without re-optimizing the
  /// partition.
  Status UpdateCellValues(CellId id, const std::vector<double>& values);

  /// One element of a batched update.
  struct CellUpdate {
    CellId id = kInvalidCellId;
    std::vector<double> values;
  };

  /// Applies a batch of updates with group commit: all frames are
  /// appended to the WAL and made durable by a single Commit (one fsync
  /// in kFsyncOnCommit) before any is applied. All-or-nothing at the
  /// log level — validation failures reject the whole batch up front.
  Status UpdateCellValuesBatch(const std::vector<CellUpdate>& updates);

  /// Runs a workload of queries and averages their stats. The buffer pool
  /// is cleared before each query so every query starts cold, matching
  /// the paper's independent random queries.
  StatusOr<WorkloadStats> RunWorkload(const std::vector<ValueInterval>& queries,
                                      bool cold_cache = true) const;

  /// Result of a Scrub() pass over the page file.
  struct ScrubReport {
    uint64_t pages_checked = 0;
    /// Pages whose integrity verification reported kCorruption.
    std::vector<PageId> corrupt_pages;
    bool clean() const { return corrupt_pages.empty(); }
  };

  /// Flushes dirty frames, then walks every page of the backing file
  /// verifying integrity (checksums for disk files). Corrupt pages are
  /// collected in the report rather than aborting the walk; transient
  /// read faults are retried with the same bounded policy as Fetch.
  /// Returns non-OK only for errors that persist after retries.
  Status Scrub(ScrubReport* out);

  /// Attaches a structured event log after the fact (Build/Open attach
  /// one automatically when their options name a path). Replaces any
  /// previously attached log.
  Status AttachEventLog(const std::string& path,
                        double slow_query_threshold_ms);
  /// Adjusts the slow-query threshold without re-opening the log
  /// (bench_obs_overhead toggles it between measurement passes). Not
  /// thread-safe against concurrent queries.
  void set_slow_query_threshold_ms(double ms) {
    engine_.set_slow_query_threshold_ms(ms);
  }
  double slow_query_threshold_ms() const {
    return engine_.slow_query_threshold_ms();
  }

  /// The planner's decision for `query` under the current mode, without
  /// executing anything. What a one-band Query would run; also the
  /// CLI's `plan` subcommand and EXPLAIN's report.
  PhysicalPlan PlanValueQuery(const ValueInterval& query) const {
    return planner_->Plan(query, planner_mode());
  }

  const QueryPlanner& planner() const { return *planner_; }
  const ValueIndex& index() const { return *index_; }
  const IndexBuildInfo& build_info() const { return index_->build_info(); }
  IndexMethod method() const { return index_->method(); }
  const ValueInterval& value_range() const { return value_range_; }
  const Rect2& domain() const { return domain_; }
  /// The lattice of a store of lattice slots, else null.
  const GridLattice* lattice() const {
    const std::optional<GridLattice>& lattice =
        index_->cell_store().records().slots().lattice();
    return lattice ? &*lattice : nullptr;
  }

  /// The subfield partition, when the method has one.
  const std::vector<Subfield>* subfields() const;

 private:
  FieldDatabase() = default;

  Status SaveImpl(const std::string& prefix, SaveCrashPoint crash_point);

  /// Pre-apply validation for the WAL path: a frame is logged (and
  /// fsynced) only for an update that will succeed, so replay never
  /// meets an invalid frame. Runs the store update's own edit on a copy
  /// (CellStore::CheckUpdate).
  Status ValidateUpdate(CellId id, const std::vector<double>& values) const;

  /// Constructs planner_ over the finished index (and subfield table,
  /// when the method has one). Called once at the end of Build and Open;
  /// the planner borrows index_/subfields() so it must be re-created if
  /// the index ever were (it isn't).
  void InitPlanner();

  /// FieldEngine::MaybeLogSlowQuery for a value query. Re-plans the
  /// query (zero I/O, deterministic) only when it was slow, to report
  /// the chosen plan next to the observed cost. Called from const query
  /// paths on any thread; EventLog synchronizes internally.
  void MaybeLogSlowQuery(const ValueInterval& query,
                         const QueryStats& stats) const;

  std::unique_ptr<ValueIndex> index_;
  std::unique_ptr<QueryPlanner> planner_;
  std::optional<RStarTree<2>> spatial_;
  ValueInterval value_range_;
  Rect2 domain_;
};

}  // namespace fielddb

#endif  // FIELDDB_CORE_FIELD_DATABASE_H_
