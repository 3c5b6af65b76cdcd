#ifndef FIELDDB_CORE_FIELD_ENGINE_H_
#define FIELDDB_CORE_FIELD_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/simd/interval_filter.h"
#include "common/status.h"
#include "core/catalog.h"
#include "core/query_context.h"
#include "core/stats.h"
#include "index/cell_store.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "plan/planner.h"
#include "storage/buffer_pool.h"
#include "storage/io_sink.h"
#include "storage/page_file.h"
#include "storage/record_store.h"
#include "storage/wal.h"

namespace fielddb {

/// Deterministic interruption points inside a snapshot save, in pipeline
/// order. Each stops the save ("crashes") right before the named step,
/// with everything earlier durable — the crash-matrix tests prove every
/// prefix of the pipeline leaves a loadable database behind. Shared by
/// every field type (FieldDatabase::SaveCrashPoint aliases it).
enum class SnapshotCrashPoint {
  kNone = 0,
  /// Mid-copy into `.pages.tmp`: the temp file is torn, neither
  /// snapshot file touched.
  kMidPagesTmp,
  /// Both temp files durable, neither rename done.
  kBeforeRename,
  /// `.pages` renamed, `.meta` not: the half-committed state Open
  /// self-heals by completing the second rename.
  kBetweenRenames,
  /// Fully committed but the superseded WAL not yet truncated: its
  /// frames carry the old epoch and replay as stale no-ops.
  kBeforeWalTruncate,
};

/// --- Filesystem helpers shared by every snapshot writer ---

Status RenameFile(const std::string& from, const std::string& to);

/// Best-effort directory fsync so renames themselves are durable.
void SyncParentDir(const std::string& path);

/// What recovery did during an engine-hosted Open (all zero for a clean
/// open with no log). `trace` holds a "recovery" span with wal.scan /
/// wal.replay / verify children when a replay actually ran. Every field
/// type's Open reports through this one struct
/// (FieldDatabase::RecoveryReport aliases it).
struct EngineRecoveryReport {
  /// Frames re-applied to the attached index (current epoch).
  uint64_t frames_replayed = 0;
  /// Intact frames skipped because a completed checkpoint already
  /// captured them (older epoch).
  uint64_t stale_frames = 0;
  /// Bytes cut off the log's tail (torn by a crash mid-append).
  uint64_t torn_bytes = 0;
  /// Length of the intact log prefix.
  uint64_t valid_bytes = 0;
  /// Post-replay verification (runs only when frames were replayed).
  uint64_t pages_verified = 0;
  std::vector<PageId> corrupt_pages;
  /// True when wal_mode=off folded a non-empty log into a fresh
  /// checkpoint and deleted it.
  bool folded = false;
  QueryTrace trace;
};

/// The build settings every field type shares; each facade's build
/// options derive from it (FieldDatabaseOptions, and the temporal,
/// vector and volume databases' Options).
struct EngineBuildOptions {
  uint32_t page_size = kDefaultPageSize;  // the paper uses 4 KB
  /// Buffer-pool frames. The default (1024 pages = 4 MB at the default
  /// page size) is small relative to the million-cell workloads, so page
  /// misses remain the dominant cost as in the paper's disk setting.
  size_t pool_pages = 1024;
  /// Factory for the backing page file (defaults to MemPageFile). Fault-
  /// injection tests pass a factory wrapping the file in a
  /// FaultInjectingPageFile and keep a pointer to the wrapper to
  /// schedule faults against the live database.
  std::function<std::unique_ptr<PageFile>(uint32_t page_size)>
      page_file_factory;
  /// Initial access-path policy for band queries (see ChoosePlan).
  /// kAuto picks fused-scan vs indexed filter+fetch per query from the
  /// disk-model cost; the forced modes pin one physical plan. Changeable
  /// later with set_planner_mode.
  PlannerMode planner_mode = PlannerMode::kAuto;

  /// Durability for mutations (DESIGN.md §14). With a WAL, every update
  /// is logged before it is applied, dirty pages are pinned in memory
  /// until the next Save (no-steal), and Open replays the log. Requires
  /// `wal_path`; use `<prefix>.wal` for the prefix the database will be
  /// saved under, so Open finds the log. Durability begins at the first
  /// Save: a crash before any checkpoint loses the freshly built
  /// (never-persisted) database, WAL or not.
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

  /// Bounded-memory build (DESIGN.md §16): when nonzero, the Hilbert
  /// linearization sorts (key, record) pairs with the external merge
  /// sorter under this in-RAM budget instead of materializing the whole
  /// keyed field, spilling sorted runs to temp files. The resulting
  /// store and index are byte-identical to an unlimited build. 0 =
  /// unlimited (everything in RAM).
  size_t build_memory_budget_bytes = 0;

  /// The paper's page accesses (§3.2): every band scan fetches every
  /// page of every run its plan hands the fetch step, which is what the
  /// 2002 disk model prices, instead of only the pages that hold a slot
  /// whose zone entry meets the band. Answers, candidates and piece
  /// order are the same either way; only the page reads differ. The
  /// figure benches set it so their page columns stay those of
  /// EXPERIMENTS.md. Not in the catalog: a reopened database reads only
  /// the pages that hold a match.
  bool read_whole_runs = false;
};

/// The reopen settings every field type shares. `wal_mode` both arms
/// logging for the reopened database and controls what happens to an
/// existing log: any mode replays committed frames; kOff then folds
/// them into a fresh checkpoint and deletes the log, the others keep
/// appending to it. A reopened database plans under kAuto until
/// set_planner_mode says otherwise.
struct EngineOpenOptions {
  size_t pool_pages = 1024;
  WalMode wal_mode = WalMode::kOff;
  /// Optional out-param describing the replay (may be null).
  EngineRecoveryReport* recovery_report = nullptr;
  /// See EngineBuildOptions::event_log_path. When set, Open also
  /// appends a "recovery" event describing the replay.
  std::string event_log_path;
  double slow_query_threshold_ms = 25.0;
};

namespace engine_internal {

/// Counts a scan's zone-filtered slots into db.zonemap_cells_skipped
/// and its skipped pages into db.zonemap_pages_skipped (out-of-line so
/// the header does not pull in the metrics registry).
void AddZoneSkips(const ZoneSkips& skipped);

}  // namespace engine_internal

/// The fetch and estimate steps of every band scan, over the store of
/// any field type: walks the given runs through
/// RecordStore::ScanRangesFiltered over the store's pages and zone map
/// (zone-map slot filtering against `zone`, a value interval or a (u, v)
/// box; readahead batches of the pages holding a match, or of every
/// page of every run with `read_whole_runs`) feeding each matching
/// record to `visit`, reported as a "fetch" span. On traced runs the
/// visitor's own work is timed per record, deducted from the fetch
/// span, and reported as a separate zero-I/O "estimate" span that
/// starts where the fetch span ends — the fetch span is then pure
/// retrieval, and the two tile the scan. `stats->candidate_cells` must
/// be final before the scan on indexed plans (the span items are read
/// from it after the walk, so fused visitors that count candidates
/// while scanning also report right).
///
/// Statically bound visitor (no std::function on the per-record path);
/// pass visitors whose state must survive — EstimateOp — as lvalues.
template <typename Record, typename Visitor>
Status ScanStoreRuns(const BasicCellStore<Record>& store,
                     const typename BasicCellStore<Record>::Key& zone,
                     const PosRange* ranges, size_t num_ranges,
                     QueryTrace* trace, const char* fetch_detail,
                     QueryStats* stats, bool read_whole_runs,
                     Visitor&& visit) {
  uint64_t est_ns = 0;
  ZoneSkips skipped;
  Status scan;
  ScopedSpan fetch("fetch", "query", trace);
  if (trace == nullptr) {
    scan = store.records().ScanRangesFiltered(
        ranges, num_ranges, store.zone_map(), zone, read_whole_runs,
        &skipped, visit);
  } else {
    scan = store.records().ScanRangesFiltered(
        ranges, num_ranges, store.zone_map(), zone, read_whole_runs,
        &skipped, [&](uint64_t pos, const Record& record) {
          const uint64_t t0 = TraceBuffer::NowNs();
          const bool keep_going = visit(pos, record);
          est_ns += TraceBuffer::NowNs() - t0;
          return keep_going;
        });
  }
  fetch.set_items(stats->candidate_cells);
  if (fetch_detail != nullptr) fetch.set_detail(fetch_detail);
  fetch.DeductNs(est_ns);
  fetch.Finish();
  FIELDDB_RETURN_IF_ERROR(scan);
  engine_internal::AddZoneSkips(skipped);
  if (trace != nullptr) {
    ScopedSpan::Record("estimate", "query", trace, fetch.end_ns(), est_ns,
                       stats->answer_cells);
  }
  return Status::OK();
}

/// One band scan (FieldEngine::BandScan): the plan it runs, where it
/// records, and what it is charged to.
struct BandScanSpec {
  PlanKind plan = PlanKind::kFusedScan;
  /// Scratch runs; required.
  QueryContext* ctx = nullptr;
  /// Per-query spans ("filter", "fetch", "estimate"), when traced.
  QueryTrace* trace = nullptr;
  /// Charged with the scan: its candidates and index fallback (the
  /// leader of a shared sweep).
  QueryStats* stats = nullptr;
  /// Fill `stats->candidate_cells`: the filter's count on an indexed
  /// plan, every zone-matching record on a fused one. Off when the
  /// visitor counts (a shared sweep's members).
  bool count_candidates = true;
  /// Annotates the fetch span of an indexed plan.
  const char* fetch_detail = nullptr;
  /// Adds the query's own fields to a corruption_fallback event.
  std::function<void(EventLog::Event*)> describe;
};

/// The shared core every field database is hosted on: owns the page
/// file, buffer pool, write-ahead log, event log and snapshot epoch, and
/// implements the field-type-agnostic halves of Build/Open/Save/Update/
/// Close and of querying — storage wiring, the crash-safe checkpoint
/// pipeline (temp files + atomic renames + epoch stamping), WAL
/// append/replay with stale-epoch filtering, the Build and Open
/// epilogues, page scrubbing, crash simulation, the one band scan,
/// slow-query logging and the workload loop. Field-type-specific
/// knowledge (catalog schema, record layout, logical redo, estimation)
/// enters exclusively through callbacks, so the grid facade and the
/// temporal/vector/volume databases are thin instantiations over one
/// tested core (DESIGN.md §16).
class FieldEngine {
 public:
  FieldEngine() = default;
  /// Best-effort durability for a database dropped without Close():
  /// syncs and closes the log, then closes the pool, logging (not
  /// throwing) failures.
  ~FieldEngine();

  FieldEngine(const FieldEngine&) = delete;
  FieldEngine& operator=(const FieldEngine&) = delete;

  /// Fresh storage for a Build: factory-backed (or in-memory) page file
  /// behind a buffer pool; adopts the options' planner mode.
  Status InitForBuild(const EngineBuildOptions& options);

  /// Attaches the storage of a persisted snapshot and returns its
  /// catalog. Completes a save that crashed between its renames, reads
  /// `<prefix>.meta` in `schema`'s format (ReadCatalog), opens
  /// `<prefix>.pages` (page checksums verified against the catalog's
  /// epoch) behind a pool of `options.pool_pages` frames and bounds
  /// every page the catalog names by the file (CheckCatalogPages) before
  /// the caller sizes anything from it. The pool is no-steal: an
  /// attached database never overwrites checkpoint pages in place; Save
  /// is the checkpoint's only mutator. Every field type's Open starts
  /// here.
  StatusOr<Catalog> InitForOpen(const std::string& prefix,
                                const CatalogSchema& schema,
                                const EngineOpenOptions& options);

  /// Write-ahead logs one update frame and makes it durable per the WAL
  /// mode. No-op when no log is armed (volatile-update contract). The
  /// caller validates first so only appliable updates are logged.
  Status LogUpdate(CellId id, const std::vector<double>& values);

  /// The crash-safe checkpoint pipeline shared by every Save
  /// (DESIGN.md §13): copies every page into `<prefix>.pages.tmp`
  /// (capturing no-steal residents straight out of the pool), writes
  /// a durable `<prefix>.meta.tmp` in `schema`'s format — `describe`
  /// fills the type's keys, the engine stamps `page_size` and the new
  /// `epoch` — renames pages-then-meta (the epoch in every page header
  /// turns a crash between the renames into detected — and self-healed
  /// — state, never a silent mix), fsyncs the directory, reconciles the
  /// no-steal pool with the live file, truncates the WAL, and adopts
  /// the new epoch.
  Status SaveSnapshot(const std::string& prefix,
                      SnapshotCrashPoint crash_point,
                      const CatalogSchema& schema,
                      const std::function<void(Catalog*)>& describe);

  /// Build epilogue shared by every field type: arms the WAL (any mode
  /// but off), attaches the event log (non-empty path) and records the
  /// build's wal_mode_transition there, then zeroes the pool's counters
  /// so the first query starts from a clean slate.
  Status FinishBuild(const EngineBuildOptions& options);

  /// Open epilogue shared by every field type: RecoverFromWal with the
  /// caller's logical redo `apply` and `fold_checkpoint`, then attaches
  /// the event log (non-empty path) and records the recovery there (and
  /// the wal_mode_transition of an off-mode open that folded the log),
  /// zeroes the pool's counters, and hands the report to
  /// `*options.recovery_report` when non-null.
  Status FinishOpen(const std::string& prefix,
                    const EngineOpenOptions& options,
                    const std::function<Status(const WalFrame&)>& apply,
                    const std::function<Status()>& fold_checkpoint);

  /// Runs `body(QueryContext*) -> Status` as one query's measured
  /// stretch — every field type's queries run inside one. The query's
  /// I/O is counted by a ScopedIoSink on `ctx` (a local context when
  /// null), never derived from the pool-wide counters, so concurrent
  /// queries each report exactly their own reads. Stamps
  /// `stats->wall_seconds` and `stats->io` when `body` succeeds.
  template <typename Body>
  static Status MeasureQuery(QueryContext* ctx, QueryStats* stats,
                             Body&& body) {
    QueryContext local;
    if (ctx == nullptr) ctx = &local;
    ctx->io.Reset();
    ScopedIoSink sink(&ctx->io);
    const auto t0 = std::chrono::steady_clock::now();
    FIELDDB_RETURN_IF_ERROR(body(ctx));
    stats->wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    stats->io = ctx->io;
    return Status::OK();
  }

  /// The one band scan of every field type (DESIGN.md §16): runs
  /// `spec.plan` over `store`, feeding each record whose zone entry
  /// meets `zone` (a value interval, or a (u, v) box) to `visit`
  /// (statically bound, no std::function per record).
  ///  - Fused plan: one zone-filtered pass over the whole store.
  ///  - Indexed plan: `search(std::vector<PosRange>*) -> Status`, the
  ///    caller's index search, appends ascending, disjoint candidate
  ///    runs under a "filter" span (items = candidates, detail =
  ///    "runs=N"); the zone-filtered scan of those runs follows.
  /// The scan itself is ScanStoreRuns ("fetch" and "estimate" spans):
  /// both plans fetch only the store pages that hold a zone match, or
  /// every page of every run when the database was built with
  /// EngineBuildOptions::read_whole_runs.
  /// A corrupt index page (kCorruption from `search`, or a run that
  /// ends past the store) degrades to the fused scan regardless of the
  /// plan — the store holds the truth, the index is only an
  /// accelerator: counted once in index_fallbacks()
  /// and db.index_fallbacks, logged as one corruption_fallback event
  /// that `spec.describe` fills, and flagged in
  /// `spec.stats->index_fallbacks`. The metrics count the decision
  /// (db.plans_scan or db.plans_index), so a fallback counts as
  /// plans_index; db.zonemap_cells_skipped counts the filtered slots and
  /// db.zonemap_pages_skipped the pages of the runs left unread.
  template <typename Record, typename Search, typename Visitor>
  Status BandScan(const BasicCellStore<Record>& store,
                  const typename BasicCellStore<Record>::Key& zone,
                  const BandScanSpec& spec, Search&& search,
                  Visitor&& visit) const {
    QueryStats* const stats = spec.stats;
    // Without a filter step the scan counts each zone-matching record
    // it visits: the zone test is exact, so visited == matching.
    const auto scan_all = [&] {
      const PosRange whole{0, store.size()};
      if (!spec.count_candidates) {
        return ScanStoreRuns(store, zone, &whole, 1, spec.trace, "full_scan",
                             stats, read_whole_runs_, visit);
      }
      return ScanStoreRuns(store, zone, &whole, 1, spec.trace, "full_scan",
                           stats, read_whole_runs_,
                           [&](uint64_t pos, const Record& record) {
                             ++stats->candidate_cells;
                             return visit(pos, record);
                           });
    };
    CountPlan(spec.plan);
    if (spec.plan == PlanKind::kFusedScan) return scan_all();
    std::vector<PosRange>& runs = spec.ctx->ranges;
    runs.clear();
    Status filter;
    {
      ScopedSpan span("filter", "query", spec.trace);
      filter = search(&runs);
      span.set_items(TotalRangeLength(runs));
      if (span.traced()) {
        span.set_detail("runs=" + std::to_string(runs.size()));
      }
    }
    if (filter.ok() && !runs.empty() && runs.back().end > store.size()) {
      // An index entry past the store under a valid checksum is as
      // corrupt as a page that fails its checksum.
      filter = Status::Corruption("index run ends past the store");
    }
    if (filter.code() == StatusCode::kCorruption) {
      // Nothing was visited yet, so there is nothing to undo.
      RecordIndexFallback(filter, spec.describe);
      stats->index_fallbacks = 1;
      return scan_all();
    }
    FIELDDB_RETURN_IF_ERROR(filter);
    if (spec.count_candidates) stats->candidate_cells = TotalRangeLength(runs);
    return ScanStoreRuns(store, zone, runs.data(), runs.size(), spec.trace,
                         spec.fetch_detail, stats, read_whole_runs_, visit);
  }

  /// Appends a "slow_query" event when an event log is attached and the
  /// query's wall time reached the threshold — one record shape for
  /// every field type. `describe` adds the query's own fields and
  /// returns the plan it ran (it runs only for a slow query, so a caller
  /// may re-plan lazily); the plan, its reason, predicted vs observed
  /// disk-model cost, the counts and the full IoStats follow.
  void MaybeLogSlowQuery(
      const QueryStats& stats,
      const std::function<PhysicalPlan(EventLog::Event*)>& describe) const;

  /// The workload loop every field type shares: runs queries
  /// 0..num_queries-1 through `run`, which fills the query's stats,
  /// clearing the pool before each one when `cold_cache` (the paper's
  /// independent random queries), and averages the stats.
  StatusOr<WorkloadStats> RunWorkload(
      size_t num_queries, bool cold_cache,
      const std::function<Status(size_t i, QueryStats* stats)>& run) const;

  /// Flushes dirty frames, then walks every page of the backing file
  /// verifying integrity (checksums for disk files). Corrupt pages are
  /// collected rather than aborting the walk; transient read faults are
  /// retried with the same bounded policy as Fetch. Returns non-OK only
  /// for errors that persist after retries.
  Status ScrubPages(uint64_t* pages_checked,
                    std::vector<PageId>* corrupt_pages);

  /// Flushes and closes the storage, surfacing write-back errors the
  /// destructor could only log. In WAL mode the log is synced and
  /// closed and the dirty frames are *dropped* (no-steal: the disk
  /// keeps the last checkpoint, the log keeps everything since).
  Status Close();

  /// Simulated power cut (tests): everything not fsynced is gone. The
  /// WAL is truncated to its durable watermark and the buffer pool is
  /// abandoned without write-back.
  Status SimulateCrashForTest();

  /// Structured event-log plumbing shared by every facade. Append
  /// errors are counted by the log itself; an event must never fail the
  /// operation that emitted it.
  Status AttachEventLog(const std::string& path,
                        double slow_query_threshold_ms);
  void LogEvent(const EventLog::Event& event) const;

  PageFile* file() const { return file_.get(); }
  BufferPool* pool() const { return pool_.get(); }
  WriteAheadLog* wal() const { return wal_.get(); }
  EventLog* event_log() const { return event_log_.get(); }
  uint32_t epoch() const { return epoch_; }
  double slow_query_threshold_ms() const { return slow_query_threshold_ms_; }
  void set_slow_query_threshold_ms(double ms) {
    slow_query_threshold_ms_ = ms;
  }

  /// Access-path policy for subsequent band queries. Safe to flip
  /// between queries from the owning thread; queries in flight read the
  /// mode once at entry.
  PlannerMode planner_mode() const {
    return planner_mode_.load(std::memory_order_relaxed);
  }
  void set_planner_mode(PlannerMode mode) {
    planner_mode_.store(mode, std::memory_order_relaxed);
  }

  /// Cumulative count of band scans that fell back from a corrupt index
  /// to a full store scan (see QueryStats::index_fallbacks).
  uint64_t index_fallbacks() const {
    return index_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Registers the db.* counters the engine increments (band scans,
  /// fallbacks, scrubs) in one fixed order; any later lookup registers
  /// the rest. FieldDatabase's metrics call this between their own
  /// registrations: that order is what keeps perfbench's terrain_warm
  /// peak RSS where it is (registering these lazily, on the first scan,
  /// measured about 13% higher), so keep the call where it is.
  static void RegisterMetrics();

 private:
  /// Counts a band scan's plan into db.plans_scan or db.plans_index.
  static void CountPlan(PlanKind kind);

  /// BandScan's corruption bookkeeping: counts the fallback here and in
  /// db.index_fallbacks, and logs one corruption_fallback event with
  /// the `describe`d query and the index's `error`.
  void RecordIndexFallback(
      const Status& error,
      const std::function<void(EventLog::Event*)>& describe) const;

  /// Arms the write-ahead log (Build epilogue, or Open keeping a WAL
  /// mode): opens `wal_path` stamping frames with the current epoch and
  /// pins dirty frames in memory until the next Save (no-steal).
  Status ArmWal(const std::string& wal_path, WalMode mode);

  /// Recovery over an attached snapshot: scans `<prefix>.wal`, skips
  /// frames a completed checkpoint already captured (stale epoch),
  /// replays the rest through `apply` (logical redo — the same update
  /// path the original mutations took, so derived structures are
  /// maintained, not just pages), verifies every page when anything was
  /// replayed, then either keeps logging (`mode` != off: the log is
  /// reopened for appends) or folds the replayed frames into a fresh
  /// checkpoint via `fold_checkpoint` and deletes the log. Fills
  /// `report` (trace spans included) for the caller's recovery report.
  Status RecoverFromWal(const std::string& prefix, WalMode mode,
                        const std::function<Status(const WalFrame&)>& apply,
                        const std::function<Status()>& fold_checkpoint,
                        EngineRecoveryReport* report);

  /// One structured "recovery" record per Open, identical fields across
  /// field types.
  void LogRecoveryEvent(const EngineRecoveryReport& report,
                        WalMode mode) const;

  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<WriteAheadLog> wal_;
  /// Mutable: const query paths append slow-query events. The log is
  /// internally synchronized and writes only to its own fd.
  mutable std::unique_ptr<EventLog> event_log_;
  double slow_query_threshold_ms_ = 25.0;
  /// Snapshot generation: 0 for a freshly built database, the catalog's
  /// epoch after Open. Save stamps epoch_ + 1.
  uint32_t epoch_ = 0;
  /// EngineBuildOptions::read_whole_runs of the build; false after Open.
  bool read_whole_runs_ = false;
  /// The pages live in the default in-memory file, which dies with the
  /// engine: destruction drops the pool's frames instead of writing
  /// them back into it.
  bool pages_in_memory_ = false;
  /// Atomic so tests and benches can flip the policy between queries
  /// while reader threads are quiescent without formal UB; queries load
  /// it once at entry.
  std::atomic<PlannerMode> planner_mode_{PlannerMode::kAuto};
  /// Mutable + atomic: the corruption fallback bumps it from const query
  /// paths, possibly on several threads at once.
  mutable std::atomic<uint64_t> index_fallbacks_{0};
};

/// What every facade exposes of its engine, declared once: the grid's
/// FieldDatabase and the temporal, vector and volume databases derive
/// from it and own their FieldEngine through it. The base is
/// constructed first and destroyed last, so the storage outlives every
/// index, tree and planner a facade builds over it.
class EngineHost {
 public:
  EngineHost(const EngineHost&) = delete;
  EngineHost& operator=(const EngineHost&) = delete;

  /// Flushes and closes the storage, surfacing write-back errors the
  /// destructor could only log. The database is unusable after a
  /// successful Close. In WAL mode the log is synced and closed and the
  /// dirty frames are *dropped* (no-steal: the disk keeps the last
  /// checkpoint, the log keeps everything since — the next Open replays
  /// it).
  Status Close() { return engine_.Close(); }

  /// Simulated power cut (tests): everything not fsynced is gone. The
  /// WAL is truncated to its durable watermark and the buffer pool is
  /// abandoned without write-back. The database is unusable afterwards;
  /// destroy it and Open the prefix again to exercise recovery.
  Status SimulateCrashForTest() { return engine_.SimulateCrashForTest(); }

  BufferPool& pool() const { return *engine_.pool(); }
  /// The write-ahead log, when the database runs in a WAL mode (null
  /// otherwise). Exposed for the CLI's `wal` subcommand and the crash
  /// tests' deterministic fault hooks.
  WriteAheadLog* wal() const { return engine_.wal(); }
  /// The attached event log, or null. Never used for page I/O.
  EventLog* event_log() const { return engine_.event_log(); }
  /// Snapshot epoch: 0 after Build, the catalog's after Open.
  uint32_t epoch() const { return engine_.epoch(); }

  /// See FieldEngine::set_planner_mode.
  void set_planner_mode(PlannerMode mode) { engine_.set_planner_mode(mode); }
  PlannerMode planner_mode() const { return engine_.planner_mode(); }

  /// See FieldEngine::index_fallbacks.
  uint64_t index_fallbacks() const { return engine_.index_fallbacks(); }

 protected:
  EngineHost() = default;
  ~EngineHost() = default;

  FieldEngine engine_;
};

/// EngineHost plus the external-sort build telemetry of the temporal,
/// vector and volume builds (the grid reports its own through
/// IndexBuildInfo).
class ExtEngineHost : public EngineHost {
 public:
  /// Sorted runs the build spilled to temp files (0 when it never
  /// spilled) and the high-water mark of the sorter's in-memory buffer.
  uint64_t ext_spill_runs() const { return ext_spill_runs_; }
  uint64_t ext_peak_buffered_bytes() const {
    return ext_peak_buffered_bytes_;
  }

 protected:
  /// Adopts a finished build sorter's telemetry.
  template <typename Sorter>
  void RecordBuildSort(const Sorter& sorter) {
    ext_spill_runs_ = sorter.spill_runs();
    ext_peak_buffered_bytes_ = sorter.peak_buffered_bytes();
  }

 private:
  uint64_t ext_spill_runs_ = 0;
  uint64_t ext_peak_buffered_bytes_ = 0;
};

}  // namespace fielddb

#endif  // FIELDDB_CORE_FIELD_ENGINE_H_
