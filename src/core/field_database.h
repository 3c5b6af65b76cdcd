#ifndef FIELDDB_CORE_FIELD_DATABASE_H_
#define FIELDDB_CORE_FIELD_DATABASE_H_

#include <atomic>
#include <functional>
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

struct OperatorEnv;

/// Everything configurable about a FieldDatabase build.
struct FieldDatabaseOptions {
  IndexMethod method = IndexMethod::kIHilbert;
  uint32_t page_size = kDefaultPageSize;  // the paper uses 4 KB
  /// Buffer-pool frames. The default (1024 pages = 4 MB at the default
  /// page size) is small relative to the million-cell workloads, so page
  /// misses remain the dominant cost as in the paper's disk setting.
  size_t pool_pages = 1024;
  /// Pages a range scan asks the pool to read ahead — the depth of the
  /// vectored batch PrefetchRange submits (io_uring / preadv on disk
  /// files). Larger windows pipeline more I/O per submission; totals
  /// are unchanged (readahead reads replace Fetch misses one for one).
  size_t readahead_pages = BufferPool::kDefaultReadaheadPages;
  /// Build a 2-D R*-tree over cell MBRs for conventional (Q1) point
  /// queries.
  bool build_spatial_index = true;
  /// Factory for the backing page file (defaults to MemPageFile). Fault-
  /// injection tests pass a factory wrapping the file in a
  /// FaultInjectingPageFile and keep a pointer to the wrapper to
  /// schedule faults against the live database.
  std::function<std::unique_ptr<PageFile>(uint32_t page_size)>
      page_file_factory;
  /// Initial access-path policy for value queries (see QueryPlanner).
  /// kAuto picks fused-scan vs indexed filter+fetch per query from the
  /// disk-model cost; the forced modes pin one physical plan. Changeable
  /// later with set_planner_mode.
  PlannerMode planner_mode = PlannerMode::kAuto;

  /// Durability for mutations (DESIGN.md §14). With a WAL, every
  /// UpdateCellValues is logged before it is applied, dirty pages are
  /// pinned in memory until the next Save (no-steal), and Open replays
  /// the log. Requires `wal_path`; use `<prefix>.wal` for the prefix the
  /// database will be saved under, so Open finds the log. Durability
  /// begins at the first Save: a crash before any checkpoint loses the
  /// freshly built (never-persisted) database, WAL or not.
  WalMode wal_mode = WalMode::kOff;
  std::string wal_path;

  /// Structured operational event log (obs/event_log.h): JSONL records
  /// for slow queries, recovery outcomes, corruption fallbacks and WAL
  /// mode transitions. Empty disables it. The log writes through its
  /// own file descriptor, never the page file, so its I/O cannot show
  /// up in query IoStats or in fault-injection schedules.
  std::string event_log_path;
  /// A query whose wall time reaches this many milliseconds is logged
  /// as a "slow_query" event (with the chosen plan and predicted vs
  /// observed cost). Only meaningful with event_log_path set.
  double slow_query_threshold_ms = 25.0;

  /// Bounded-memory build (DESIGN.md §16): when nonzero, the I-Hilbert
  /// linearization sorts (hilbert key, cell) pairs with the external
  /// merge sorter under this in-RAM budget instead of materializing the
  /// whole keyed field, spilling sorted runs to temp files. The
  /// resulting store and index are byte-identical to an unlimited
  /// build. 0 = unlimited (everything in RAM).
  size_t build_memory_budget_bytes = 0;

  IHilbertIndex::Options ihilbert;
  IAllIndex::Options iall;
  IntervalQuadtreeIndex::Options iqt;
};

/// Result of a field value query (Q2).
struct ValueQueryResult {
  Region region;       // exact answer regions (estimation step output)
  QueryStats stats;
  /// The planner's decision this query executed. Stamped by the
  /// extension engines (temporal snapshot queries); the grid facade
  /// reports its richer decision through QueryProfile instead.
  PhysicalPlan plan;
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
/// Field is no longer referenced. Supports both query classes of the
/// paper:
///  - Q2 `ValueQuery`: F^-1([w', w'']) -> regions (the paper's subject);
///  - Q1 `PointQuery`: F(v') -> value, via the 2-D R*-tree over cell MBRs.
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
class FieldDatabase {
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

  /// Reopen options. `wal_mode` both arms logging for the reopened
  /// database and controls what happens to an existing log: any mode
  /// replays committed frames; kOff then folds them into a fresh
  /// checkpoint and deletes the log, the others keep appending to it.
  struct OpenOptions {
    size_t pool_pages = 1024;
    /// See FieldDatabaseOptions::readahead_pages.
    size_t readahead_pages = BufferPool::kDefaultReadaheadPages;
    WalMode wal_mode = WalMode::kOff;
    /// Optional out-param describing the replay (may be null).
    RecoveryReport* recovery_report = nullptr;
    /// See FieldDatabaseOptions::event_log_path. When set, Open also
    /// appends a "recovery" event describing the replay.
    std::string event_log_path;
    double slow_query_threshold_ms = 25.0;
  };

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

  /// Field value query: exact answer regions where
  /// query.min <= F(p) <= query.max, plus per-query stats. A non-null
  /// `ctx` lets a thread reuse its scratch across queries; null creates
  /// a local context per call (as for every query entry point below).
  Status ValueQuery(const ValueInterval& query, ValueQueryResult* out,
                    QueryContext* ctx = nullptr) const;

  /// Shared-scan execution of several value queries as ONE sweep
  /// (DESIGN.md §17): the members' hull is planned like a single query,
  /// executed in one pass over the clustered store, and demultiplexed —
  /// every visited cell is tested against each member's interval
  /// exactly, so each member's Region/answer_cells are bit-identical to
  /// running it alone. Per-member IoStats are leader-charged: the
  /// sweep's whole I/O lands on member 0 and the riders report zero, so
  /// the members' I/O sums to exactly the one sweep (never more than
  /// the isolated total). Each member's wall_seconds is the sweep's
  /// wall time (they all waited for it). A one-member batch degrades to
  /// the single-query path. Same threading contract as ValueQuery.
  Status SharedValueQuery(const std::vector<ValueInterval>& queries,
                          std::vector<ValueQueryResult>* out,
                          QueryContext* ctx = nullptr) const;

  /// Stats-only shared scan (see SharedValueQuery; the figure benches'
  /// shape — no polygon materialization).
  Status SharedValueQueryStats(const std::vector<ValueInterval>& queries,
                               std::vector<QueryStats>* out,
                               QueryContext* ctx = nullptr) const;

  /// Like ValueQuery but skips materializing polygons: only the stats and
  /// the answer-cell count are produced. This is what the figure benches
  /// time (the paper measures query processing, whose cost is filtering +
  /// candidate retrieval + inverse interpolation; polygon bookkeeping is
  /// identical work across methods either way).
  Status ValueQueryStats(const ValueInterval& query, QueryStats* out,
                         QueryContext* ctx = nullptr) const;

  /// ValueQueryStats with per-phase tracing: `out->trace` is populated
  /// with the pipeline's spans ("plan", "filter", "fetch", "estimate" on
  /// indexed plans; "plan"/"fetch"/"estimate" when the planner chose the
  /// fused scan, and "fetch"/"estimate" alone on the corruption
  /// fallback's rerun). Span I/O deltas sum exactly to `out->io`. Slower
  /// than the untraced path (per-cell clock reads in the estimation
  /// step), so benches keep using ValueQueryStats.
  Status TracedValueQueryStats(const ValueInterval& query, QueryStats* out,
                               QueryContext* ctx = nullptr) const;

  /// One subfield the filtering step selected for an explained query.
  /// `matching_cells` counts cells inside [start, end) whose own value
  /// interval really intersects the query — the rest are the false
  /// positives the paper's cost model trades for a smaller tree.
  struct ExplainSubfield {
    uint32_t id = 0;
    uint64_t start = 0;  // [start, end) positions in the clustered store
    uint64_t end = 0;
    ValueInterval interval;
    uint64_t cells = 0;
    uint64_t matching_cells = 0;
  };

  /// The full query plan + execution profile produced by
  /// ExplainValueQuery.
  struct ExplainResult {
    /// The database's index method. Note the default is only a
    /// placeholder: ExplainValueQuery stamps the actual method before
    /// doing anything else (including argument validation), so even a
    /// failed explain never reports a method the database doesn't use.
    IndexMethod method = IndexMethod::kLinearScan;
    ValueInterval query;
    /// Executed-query measurements; `stats.trace` holds the phase spans.
    QueryStats stats;
    /// Subfields touched, in store order. Empty for methods without a
    /// subfield partition (LinearScan, I-All, RowIp).
    std::vector<ExplainSubfield> subfields;
    /// (candidates - answers) / candidates; 0 when there were no
    /// candidates.
    double false_positive_ratio = 0.0;
    /// R*-tree descent profile of the filtering step.
    uint64_t rtree_nodes_visited = 0;
    uint32_t rtree_height = 0;
    /// What the simulated 2002 disk would charge for this query's
    /// physical read pattern (DiskModel on sequential/random reads).
    double est_disk_ms = 0.0;
    /// The planner's decision for this query: which physical plan ran,
    /// what it was predicted to cost, what the alternative would have
    /// cost, and why. `predicted_cost_ms` is comparable to `est_disk_ms`
    /// (same disk model; predicted vs observed read pattern).
    PlanKind chosen_plan = PlanKind::kFusedScan;
    double predicted_cost_ms = 0.0;
    double predicted_scan_cost_ms = 0.0;
    double predicted_index_cost_ms = 0.0;
    std::string planner_reason;

    std::string ToString() const;
    std::string ToJson() const;
  };

  /// EXPLAIN for a value query: runs the query cold (buffer pool
  /// cleared) with tracing on, then annotates the result with the
  /// subfields the filter chose, their false-positive ratios, the
  /// R*-tree descent count, and the disk-model cost of the observed I/O.
  /// Metrics recording is forced on for the duration (EXPLAIN is
  /// explicitly diagnostic); the previous enabled state is restored.
  Status ExplainValueQuery(const ValueInterval& query,
                           ExplainResult* out) const;

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

  /// Conventional point query.
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

  /// Flushes and closes the underlying buffer pool, surfacing write-back
  /// errors the destructor could only log. The database is unusable
  /// after a successful Close. In WAL mode the log is synced and closed
  /// and the dirty frames are *dropped* (no-steal: the disk keeps the
  /// last checkpoint, the log keeps everything since — the next Open
  /// replays it).
  Status Close();

  /// Simulated power cut (tests): everything not fsynced is gone. The
  /// WAL is truncated to its durable watermark and the buffer pool is
  /// abandoned without write-back. The database is unusable afterwards;
  /// destroy it and Open the prefix again to exercise recovery.
  Status SimulateCrashForTest();

  /// The write-ahead log, when the database runs in a WAL mode (null
  /// otherwise). Exposed for the CLI's `wal` subcommand and the crash
  /// tests' deterministic fault hooks.
  WriteAheadLog* wal() const { return engine_.wal(); }

  /// Attaches a structured event log after the fact (Build/Open attach
  /// one automatically when their options name a path). Replaces any
  /// previously attached log.
  Status AttachEventLog(const std::string& path,
                        double slow_query_threshold_ms);
  /// The attached event log, or null. Never used for page I/O.
  EventLog* event_log() const { return engine_.event_log(); }
  /// Adjusts the slow-query threshold without re-opening the log
  /// (bench_obs_overhead toggles it between measurement passes). Not
  /// thread-safe against concurrent queries.
  void set_slow_query_threshold_ms(double ms) {
    engine_.set_slow_query_threshold_ms(ms);
  }
  double slow_query_threshold_ms() const {
    return engine_.slow_query_threshold_ms();
  }

  /// Cumulative count of queries that fell back from a corrupt value
  /// index to a full store scan (see QueryStats::index_fallbacks).
  uint64_t index_fallbacks() const {
    return index_fallbacks_.load(std::memory_order_relaxed);
  }

  /// The planner's decision for `query` under the current mode, without
  /// executing anything. What ValueQuery would run; also the CLI's
  /// `plan` subcommand.
  PhysicalPlan PlanValueQuery(const ValueInterval& query) const {
    return planner_->Plan(query, planner_mode_.load(std::memory_order_relaxed));
  }

  /// Access-path policy for subsequent value queries. Safe to flip
  /// between queries from the owning thread; queries in flight read the
  /// mode once at entry.
  void set_planner_mode(PlannerMode mode) {
    planner_mode_.store(mode, std::memory_order_relaxed);
  }
  PlannerMode planner_mode() const {
    return planner_mode_.load(std::memory_order_relaxed);
  }

  const QueryPlanner& planner() const { return *planner_; }
  const ValueIndex& index() const { return *index_; }
  const IndexBuildInfo& build_info() const { return index_->build_info(); }
  IndexMethod method() const { return index_->method(); }
  const ValueInterval& value_range() const { return value_range_; }
  const Rect2& domain() const { return domain_; }
  BufferPool& pool() const { return *engine_.pool(); }

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

  /// The bookkeeping every single-query entry point shares: validates
  /// `query`, clears the outputs (`region` may be null for stats-only
  /// queries; `traced` attaches a QueryTrace to `stats`), counts the
  /// query's I/O through a ScopedIoSink on `ctx` (a local one when
  /// null), runs AnswerValueQuery, and records wall time, metrics and
  /// the slow-query event.
  Status RunValueQuery(const ValueInterval& query, Region* region,
                       QueryStats* stats, QueryContext* ctx,
                       bool traced) const;

  /// SharedValueQuery[Stats]'s bookkeeping around AnswerShared, the
  /// batch counterpart of RunValueQuery (a one-member batch runs as a
  /// single query). `regions` is null for stats-only batches.
  Status RunShared(const std::vector<ValueInterval>& queries,
                   std::vector<Region>* regions,
                   std::vector<QueryStats>* stats, QueryContext* ctx) const;

  /// The one execution path of the grid's band scans (value, shared
  /// and isoline queries): runs `plan` over `band` with the operators
  /// from plan/operators.h — RunFuseOp for kFusedScan, RunFilterOp +
  /// RunScanOp for kIndexedFilter — feeding each zone-matching cell to
  /// `visit` (statically bound, no std::function per cell) and charging
  /// the scan to `members[0]`. With `count_candidates` it fills
  /// `members[0].candidate_cells` (the filter's count, or every visited
  /// cell without one); otherwise the visitor counts. A corrupt index
  /// page during filtering degrades to the fused scan regardless of the
  /// plan (the store holds the truth; the index is only an
  /// accelerator): counted once in index_fallbacks() and
  /// db.index_fallbacks, logged as one corruption_fallback event, and
  /// reported by every member. The metrics count the decision
  /// (db.plans_scan or db.plans_index), so a fallback counts as
  /// plans_index. `env` supplies the scratch context and trace.
  template <typename Visitor>
  Status ScanBand(PlanKind plan, const ValueInterval& band,
                  const OperatorEnv& env, std::span<QueryStats> members,
                  bool count_candidates, const char* fetch_detail,
                  Visitor& visit) const;

  /// Shared Q2 dispatch: asks the QueryPlanner which physical plan to
  /// run (under a "plan" span), then executes it through ScanBand with
  /// EstimateOp as the visitor. Uses `ctx` for scratch and span I/O
  /// attribution; a non-null `trace` records the phases as spans.
  Status AnswerValueQuery(const ValueInterval& query, Region* region,
                          QueryStats* stats, QueryContext* ctx,
                          QueryTrace* trace = nullptr) const;

  /// The fused multi-query sweep behind SharedValueQuery[Stats]: plans
  /// the members' hull, runs it as one pass through ScanBand (fused
  /// scan, or indexed filter+fetch over the envelope's candidate runs),
  /// and evaluates every member's predicate per visited cell. `regions`
  /// is null for stats-only batches, else one Region per member.
  Status AnswerShared(const std::vector<ValueInterval>& queries,
                      std::vector<Region>* regions,
                      std::vector<QueryStats>* stats,
                      QueryContext* ctx) const;

  /// Constructs planner_ over the finished index (and subfield table,
  /// when the method has one). Called once at the end of Build and Open;
  /// the planner borrows index_/subfields() so it must be re-created if
  /// the index ever were (it isn't).
  void InitPlanner(PlannerMode mode);

  /// FieldEngine::MaybeLogSlowQuery for a value query. Re-plans the
  /// query (zero I/O, deterministic) only when it was slow, to report
  /// the chosen plan next to the observed cost. Called from const query
  /// paths on any thread; EventLog synchronizes internally.
  void MaybeLogSlowQuery(const ValueInterval& query,
                         const QueryStats& stats) const;

  /// The shared lifecycle core: page file, buffer pool, WAL, event log
  /// and snapshot epoch (core/field_engine.h). Declared first so the
  /// storage outlives the index and planner at destruction.
  FieldEngine engine_;
  std::unique_ptr<ValueIndex> index_;
  std::unique_ptr<QueryPlanner> planner_;
  /// Atomic so tests/benches can flip the policy between queries while
  /// reader threads are quiescent without formal UB; queries load it
  /// once at entry.
  std::atomic<PlannerMode> planner_mode_{PlannerMode::kAuto};
  std::optional<RStarTree<2>> spatial_;
  ValueInterval value_range_;
  Rect2 domain_;
  /// Mutable + atomic: the corruption fallback bumps it from const query
  /// paths, possibly on several threads at once.
  mutable std::atomic<uint64_t> index_fallbacks_{0};
};

}  // namespace fielddb

#endif  // FIELDDB_CORE_FIELD_DATABASE_H_
