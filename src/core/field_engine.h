#ifndef FIELDDB_CORE_FIELD_ENGINE_H_
#define FIELDDB_CORE_FIELD_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/simd/interval_filter.h"
#include "common/status.h"
#include "core/query_context.h"
#include "core/stats.h"
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

/// --- Filesystem helpers shared by every catalog writer ---

Status RenameFile(const std::string& from, const std::string& to);

/// Best-effort directory fsync so renames themselves are durable.
void SyncParentDir(const std::string& path);

/// Epoch a page file was stamped with, read from the raw slot-0 header
/// (bytes [4, 8): DiskPageFile::WriteSlot stores the epoch unmasked
/// there). Used by the rename self-heal to decide whether `.pages`
/// already holds the next snapshot; 0 on any failure, which no real
/// snapshot uses (Save stamps epoch + 1 >= 1).
uint32_t PeekPagesEpoch(const std::string& path);

/// Writes a text catalog at `path` through `body`, then makes it durable
/// (fflush + fsync) before it can become a rename target. `body` returns
/// false on a formatting failure.
Status WriteCatalogFile(const std::string& path,
                        const std::function<bool(std::FILE*)>& body);

/// Completes a save that crashed between its two renames: `.pages`
/// already holds the next snapshot but `.meta` still describes the
/// previous one. The signature is unforgeable — `.meta.tmp` parses (via
/// the caller's `catalog_epoch`), its epoch is exactly one past the
/// current catalog's (or there is no catalog at all: a first save), and
/// the page file is stamped with precisely that epoch (a leftover
/// `.meta.tmp` from a crash *before* the renames fails this check
/// because `.pages` kept the old stamp). Returns true when `.meta.tmp`
/// was promoted to `.meta`; the caller re-reads the catalog then.
bool TryCompleteInterruptedSave(
    const std::string& prefix,
    const std::function<StatusOr<uint32_t>(const std::string& path)>&
        catalog_epoch);

/// Reads and validates the catalog `<prefix>.meta` with `read` (one
/// field type's parser, returning a meta struct with an `epoch`), after
/// completing a save that crashed between its renames
/// (TryCompleteInterruptedSave). Every field type's Open starts here.
template <typename Meta>
StatusOr<Meta> ReadCatalog(const std::string& prefix,
                           StatusOr<Meta> (*read)(const std::string& path)) {
  TryCompleteInterruptedSave(
      prefix, [read](const std::string& path) -> StatusOr<uint32_t> {
        StatusOr<Meta> meta = read(path);
        if (!meta.ok()) return meta.status();
        return meta->epoch;
      });
  return read(prefix + ".meta");
}

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

/// The shared core every field database is hosted on: owns the page
/// file, buffer pool, write-ahead log, event log and snapshot epoch, and
/// implements the field-type-agnostic halves of Build/Open/Save/Update/
/// Close and of querying — storage wiring, the crash-safe checkpoint
/// pipeline (temp files + atomic renames + epoch stamping), WAL
/// append/replay with stale-epoch filtering, the Build and Open
/// epilogues, page scrubbing, crash simulation, the extension query
/// path, slow-query logging and the workload loop. Field-type-specific
/// knowledge (catalog format, record layout, logical redo, estimation)
/// enters exclusively through callbacks, so the grid facade and the
/// temporal/vector/volume databases are thin instantiations over one
/// tested core (DESIGN.md §16).
class FieldEngine {
 public:
  struct BuildConfig {
    uint32_t page_size = kDefaultPageSize;
    size_t pool_pages = 1024;
    /// Readahead window (pages) for range scans, installed into the
    /// pool (BufferPool::set_readahead_pages).
    size_t readahead_pages = BufferPool::kDefaultReadaheadPages;
    /// Backing page file (defaults to MemPageFile). Fault-injection
    /// tests pass a factory wrapping the file in a
    /// FaultInjectingPageFile to schedule faults against the live
    /// database.
    std::function<std::unique_ptr<PageFile>(uint32_t page_size)>
        page_file_factory;
  };

  FieldEngine() = default;
  /// Best-effort durability for a database dropped without Close():
  /// syncs and closes the log, then closes the pool, logging (not
  /// throwing) failures.
  ~FieldEngine();

  FieldEngine(const FieldEngine&) = delete;
  FieldEngine& operator=(const FieldEngine&) = delete;

  /// Fresh storage for a Build: factory-backed (or in-memory) page file
  /// behind a buffer pool.
  Status InitForBuild(const BuildConfig& config);

  /// Attaches the storage of a persisted snapshot: opens
  /// `<prefix>.pages` (page checksums verified against `epoch`) behind
  /// a no-steal pool — an attached database never overwrites checkpoint
  /// pages in place; Save is the checkpoint's only mutator.
  Status InitForOpen(const std::string& prefix, uint32_t page_size,
                     uint32_t epoch, size_t pool_pages,
                     size_t readahead_pages =
                         BufferPool::kDefaultReadaheadPages);

  /// Open-time bound check of a page id the catalog `<prefix>.meta`
  /// names under `key`: it must lie inside the attached page file, or a
  /// truncated or mismatched file would turn into out-of-range reads.
  Status CheckCatalogPage(const std::string& prefix, const char* key,
                          PageId page) const;

  /// Write-ahead logs one update frame and makes it durable per the WAL
  /// mode. No-op when no log is armed (volatile-update contract). The
  /// caller validates first so only appliable updates are logged.
  Status LogUpdate(CellId id, const std::vector<double>& values);

  /// The crash-safe checkpoint pipeline shared by every Save
  /// (DESIGN.md §13): copies every page into `<prefix>.pages.tmp`
  /// (capturing no-steal residents straight out of the pool), asks
  /// `write_catalog` for a durable `<prefix>.meta.tmp` stamping the new
  /// epoch, renames pages-then-meta (the epoch in every page header
  /// turns a crash between the renames into detected — and self-healed
  /// — state, never a silent mix), fsyncs the directory, reconciles the
  /// no-steal pool with the live file, truncates the WAL, and adopts
  /// the new epoch.
  Status SaveSnapshot(
      const std::string& prefix, SnapshotCrashPoint crash_point,
      const std::function<Status(const std::string& meta_tmp_path,
                                 uint32_t new_epoch)>& write_catalog);

  /// Build epilogue shared by every field type: arms the WAL (any mode
  /// but off), attaches the event log (non-empty path) and records the
  /// build's wal_mode_transition there, then zeroes the pool's counters
  /// so the first query starts from a clean slate.
  Status FinishBuild(WalMode wal_mode, const std::string& wal_path,
                     const std::string& event_log_path,
                     double slow_query_threshold_ms);

  /// Open epilogue shared by every field type: RecoverFromWal with the
  /// caller's logical redo `apply` and `fold_checkpoint`, then attaches
  /// the event log (non-empty path) and records the recovery there (and
  /// the wal_mode_transition of an off-mode open that folded the log),
  /// zeroes the pool's counters, and hands the report to `*report_out`
  /// when non-null.
  Status FinishOpen(const std::string& prefix, WalMode wal_mode,
                    const std::function<Status(const WalFrame&)>& apply,
                    const std::function<Status()>& fold_checkpoint,
                    const std::string& event_log_path,
                    double slow_query_threshold_ms,
                    EngineRecoveryReport* report_out);

  /// The query path of the temporal, vector and volume databases:
  /// executes `plan` over `store` — every record for a fused scan, else
  /// the runs `search(std::vector<PosRange>*) -> Status` collects from
  /// the index, merged by MergeRuns — feeding each record to `visit`
  /// through RecordStore::ScanRanges. The query's I/O is counted by a
  /// ScopedIoSink on `ctx` (a local context when null), never derived
  /// from the pool-wide counters, so concurrent queries each report
  /// exactly their own reads. Fills candidate_cells, wall_seconds and io
  /// into `*stats`. A visitor that stops the scan early must park its
  /// own error for the caller to check.
  template <typename T, typename Search, typename Visitor>
  Status RunStoreQuery(const RecordStore<T>& store, const PhysicalPlan& plan,
                       QueryContext* ctx, Search&& search, Visitor&& visit,
                       QueryStats* stats) const {
    QueryContext local;
    if (ctx == nullptr) ctx = &local;
    ctx->io.Reset();
    ScopedIoSink sink(&ctx->io);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<PosRange>& runs = ctx->ranges;
    runs.clear();
    if (plan.kind == PlanKind::kFusedScan) {
      runs.push_back(PosRange{0, store.size()});
    } else {
      std::vector<PosRange> hits;
      FIELDDB_RETURN_IF_ERROR(search(&hits));
      MergeRuns(&hits, &runs);
    }
    stats->candidate_cells = TotalRangeLength(runs);
    FIELDDB_RETURN_IF_ERROR(store.ScanRanges(runs.data(), runs.size(),
                                             std::forward<Visitor>(visit)));
    stats->wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    stats->io = ctx->io;
    return Status::OK();
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

 private:
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
};

}  // namespace fielddb

#endif  // FIELDDB_CORE_FIELD_ENGINE_H_
