// The field-type-agnostic lifecycle core (DESIGN.md §16): storage
// wiring, the crash-safe checkpoint pipeline, WAL replay with
// stale-epoch filtering, page scrubbing and crash simulation — hoisted
// out of the grid-only persistence code so the temporal, vector and
// volume databases share one tested implementation.

#include "core/field_engine.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fielddb {

Status RenameFile(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError("rename " + from + " -> " + to + " failed");
  }
  return Status::OK();
}

void SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

namespace {

/// Pages Save stages and writes per run (256 KB at 4 KB pages).
constexpr uint64_t kSaveRunPages = 64;

/// Epoch a page file was stamped with, read from the raw slot-0 header
/// (bytes [4, 8): DiskPageFile::WriteSlot stores the epoch unmasked
/// there); 0 on any failure, which no real snapshot uses (Save stamps
/// epoch + 1 >= 1).
uint32_t PeekPagesEpoch(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  uint8_t buf[8] = {};
  const size_t got = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  if (got != sizeof(buf)) return 0;
  uint32_t epoch = 0;
  std::memcpy(&epoch, buf + 4, sizeof(epoch));
  return epoch;
}

/// The db.* counters the engine increments, looked up together (in the
/// order FieldEngine::RegisterMetrics documents) so a metrics dump lists
/// every one of them from the first lookup on.
struct EngineMetrics {
  Counter* index_fallbacks;
  Counter* scrub_pages;
  Counter* scrub_corrupt_pages;
  Counter* zonemap_cells_skipped;
  Counter* zonemap_pages_skipped;
  Counter* plans_scan;
  Counter* plans_index;

  static const EngineMetrics& Get() {
    static const EngineMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Default();
      return EngineMetrics{reg.GetCounter("db.index_fallbacks"),
                           reg.GetCounter("db.scrub_pages"),
                           reg.GetCounter("db.scrub_corrupt_pages"),
                           reg.GetCounter("db.zonemap_cells_skipped"),
                           reg.GetCounter("db.zonemap_pages_skipped"),
                           reg.GetCounter("db.plans_scan"),
                           reg.GetCounter("db.plans_index")};
    }();
    return m;
  }
};

/// Completes a save that crashed between its two renames: `.pages`
/// already holds the next snapshot but `.meta` still describes the
/// previous one. The signature is unforgeable — `.meta.tmp` reads
/// cleanly, its epoch is exactly one past the current catalog's (or
/// there is no catalog at all: a first save), and the page file is
/// stamped with precisely that epoch (a leftover `.meta.tmp` from a
/// crash *before* the renames fails this check because `.pages` kept
/// the old stamp).
void TryCompleteInterruptedSave(const std::string& prefix,
                                const CatalogSchema& schema) {
  const StatusOr<Catalog> tmp = ReadCatalog(prefix + ".meta.tmp", schema);
  if (!tmp.ok() || PeekPagesEpoch(prefix + ".pages") != tmp->epoch) return;
  const std::string meta_path = prefix + ".meta";
  const StatusOr<Catalog> current = ReadCatalog(meta_path, schema);
  if (current.ok() && current->epoch + 1 != tmp->epoch) return;
  if (!RenameFile(prefix + ".meta.tmp", meta_path).ok()) return;
  SyncParentDir(meta_path);
}

}  // namespace

FieldEngine::~FieldEngine() {
  if (wal_ != nullptr) {
    // Best-effort durability for a database dropped without Close():
    // sync the log (the dirty frames it covers are about to be
    // discarded by the no-steal pool destructor).
    const Status s = wal_->Close();
    if (!s.ok()) {
      std::fprintf(stderr,
                   "FieldEngine: wal close failed at destruction: %s\n",
                   s.ToString().c_str());
    }
  }
  if (pool_ != nullptr && !pool_->closed()) {
    // In-memory pages die with the engine: writing the frames back into
    // them would only copy every page once more.
    if (pages_in_memory_ && pool_->Abandon().ok()) return;
    const Status s = pool_->Close();
    if (!s.ok()) {
      std::fprintf(stderr, "FieldEngine: close failed at destruction: %s\n",
                   s.ToString().c_str());
    }
  }
}

Status FieldEngine::InitForBuild(const EngineBuildOptions& options) {
  pages_in_memory_ = !options.page_file_factory;
  file_ = pages_in_memory_ ? std::make_unique<MemPageFile>(options.page_size)
                           : options.page_file_factory(options.page_size);
  pool_ = std::make_unique<BufferPool>(file_.get(), options.pool_pages);
  set_planner_mode(options.planner_mode);
  read_whole_runs_ = options.read_whole_runs;
  return Status::OK();
}

StatusOr<Catalog> FieldEngine::InitForOpen(const std::string& prefix,
                                           const CatalogSchema& schema,
                                           const EngineOpenOptions& options) {
  ScopedSpan span("open.catalog", "open");
  TryCompleteInterruptedSave(prefix, schema);
  const std::string meta_path = prefix + ".meta";
  StatusOr<Catalog> catalog = ReadCatalog(meta_path, schema);
  if (!catalog.ok()) return catalog.status();
  StatusOr<std::unique_ptr<DiskPageFile>> file = DiskPageFile::Open(
      prefix + ".pages", catalog->page_size, catalog->epoch);
  if (!file.ok()) return file.status();
  // A truncated or mismatched page file must not turn into out-of-range
  // reads, or into allocations sized from a `num_cells` the file cannot
  // hold.
  FIELDDB_RETURN_IF_ERROR(
      CheckCatalogPages(meta_path, schema, *catalog, (*file)->NumPages()));
  file_ = std::move(file).value();
  pool_ = std::make_unique<BufferPool>(file_.get(), options.pool_pages);
  // An attached database never overwrites checkpoint pages in place:
  // Save is the checkpoint's only mutator (atomic temp-file renames).
  // No-steal enforces that — dirty frames stay pooled until the next
  // Save captures them; under wal_mode off they are simply dropped at
  // Close (updates there are volatile by contract, DESIGN.md §14).
  pool_->set_no_steal(true);
  epoch_ = catalog->epoch;
  return catalog;
}

Status FieldEngine::ArmWal(const std::string& wal_path, WalMode mode) {
  if (mode == WalMode::kOff) return Status::OK();
  if (wal_path.empty()) {
    return Status::InvalidArgument(
        "wal_mode requires wal_path (use \"<prefix>.wal\")");
  }
  StatusOr<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Open(wal_path, mode, epoch_);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal).value();
  pool_->set_no_steal(true);
  return Status::OK();
}

Status FieldEngine::LogUpdate(CellId id, const std::vector<double>& values) {
  if (wal_ == nullptr) return Status::OK();
  FIELDDB_RETURN_IF_ERROR(wal_->AppendUpdate(id, values));
  return wal_->Commit();
}

Status FieldEngine::SaveSnapshot(
    const std::string& prefix, SnapshotCrashPoint crash_point,
    const CatalogSchema& schema,
    const std::function<void(Catalog*)>& describe) {
  // No-steal (WAL mode): dirty frames must not be written back in
  // place — the checkpoint captures them straight out of the pool into
  // the fresh snapshot below, so the live `.pages` file stays exactly
  // the previous checkpoint until the rename commits.
  const bool no_steal = pool_->no_steal();
  if (!no_steal) FIELDDB_RETURN_IF_ERROR(pool_->Flush());

  const uint32_t epoch = epoch_ + 1;
  const std::string pages_tmp = prefix + ".pages.tmp";
  const std::string meta_tmp = prefix + ".meta.tmp";

  {
    StatusOr<std::unique_ptr<DiskPageFile>> out =
        DiskPageFile::Create(pages_tmp, file_->page_size(), epoch);
    if (!out.ok()) return out.status();
    const uint64_t num_pages = file_->NumPages();
    // The crash point stops after exactly half the pages.
    const uint64_t stop = crash_point == SnapshotCrashPoint::kMidPagesTmp
                              ? num_pages / 2
                              : num_pages;
    {
      ScopedSpan span("save.pages", "save");
      span.set_items(stop);
      // Runs of pages are staged in one reused buffer and each written
      // with one positioned vector write.
      std::vector<Page> run(std::min(kSaveRunPages, num_pages),
                            Page(file_->page_size()));
      for (PageId id = 0; id < stop;) {
        const size_t n = std::min<uint64_t>(run.size(), stop - id);
        for (size_t k = 0; k < n; ++k) {
          if (!no_steal || !pool_->TryGetResident(id + k, &run[k])) {
            FIELDDB_RETURN_IF_ERROR(file_->Read(id + k, &run[k]));
          }
        }
        FIELDDB_RETURN_IF_ERROR((*out)->AppendRun(run.data(), n).status());
        id += n;
      }
    }
    if (stop < num_pages) {
      return Status::OK();  // "crash": torn temp file, snapshot untouched
    }
    ScopedSpan span("save.sync", "save");
    FIELDDB_RETURN_IF_ERROR((*out)->Sync());
    // Scope end closes the temp file before it is renamed into place.
  }

  {
    ScopedSpan span("save.catalog", "save");
    Catalog catalog;
    catalog.page_size = file_->page_size();
    catalog.epoch = epoch;
    describe(&catalog);
    FIELDDB_RETURN_IF_ERROR(
        WriteCatalog(meta_tmp, schema, std::move(catalog)));
  }

  if (crash_point == SnapshotCrashPoint::kBeforeRename) return Status::OK();

  // Commit. Pages first: a crash between the renames leaves new pages
  // under the old catalog, which the epoch check in every page header
  // turns into a detected corruption instead of a silent mix — and Open
  // self-heals it by completing the `.meta.tmp` rename (it can verify
  // `.pages` carries exactly the epoch `.meta.tmp` declares). Before
  // the first rename the old snapshot is fully intact.
  FIELDDB_RETURN_IF_ERROR(RenameFile(pages_tmp, prefix + ".pages"));
  if (crash_point == SnapshotCrashPoint::kBetweenRenames) return Status::OK();
  FIELDDB_RETURN_IF_ERROR(RenameFile(meta_tmp, prefix + ".meta"));
  SyncParentDir(prefix + ".meta");

  if (no_steal) {
    // The snapshot is committed; the checkpoint epilogue reconciles the
    // live (still-open) page file with the pool. The open DiskPageFile
    // handle now points at the *unlinked* previous `.pages` inode, so
    // write the dirty frames down into it — for clean pages the two
    // inodes are byte-identical already, and for dirty ones this makes
    // the handle serve post-checkpoint state on any future cache miss.
    // Nothing here affects what a reopen reads (that is the renamed
    // snapshot); it only keeps this open database self-consistent.
    pool_->set_no_steal(false);
    const Status flush = pool_->Flush();
    pool_->set_no_steal(true);
    FIELDDB_RETURN_IF_ERROR(flush);
  }
  if (wal_ != nullptr) {
    if (crash_point == SnapshotCrashPoint::kBeforeWalTruncate) {
      epoch_ = epoch;
      return Status::OK();  // frames left behind now carry a stale epoch
    }
    // Every logged frame is captured by the snapshot: drop them and
    // stamp future frames with the snapshot's epoch.
    const Status truncated = wal_->Truncate(epoch);
    if (!truncated.ok()) {
      // The renames above already committed: the on-disk catalog is at
      // the new epoch while the log still stamps frames with the old
      // one, which the next recovery would skip as stale. Truncate has
      // poisoned the log, so no further update can be acknowledged;
      // adopt the committed epoch and surface the failure.
      epoch_ = epoch;
      return truncated;
    }
  }
  epoch_ = epoch;
  return Status::OK();
}

Status FieldEngine::RecoverFromWal(
    const std::string& prefix, WalMode mode,
    const std::function<Status(const WalFrame&)>& apply,
    const std::function<Status()>& fold_checkpoint,
    EngineRecoveryReport* report) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  const std::string wal_path = prefix + ".wal";
  uint64_t replayed = 0;
  uint64_t stale = 0;
  {
    ScopedSpan recovery("recovery", "recovery", &report->trace);
    WalScanResult scan;
    {
      ScopedSpan scan_span("wal.scan", "wal", &report->trace);
      StatusOr<WalScanResult> scanned = WriteAheadLog::Scan(wal_path);
      if (!scanned.ok()) return scanned.status();
      scan = std::move(scanned).value();
      scan_span.set_items(scan.frames.size());
      if (!scan.torn_reason.empty()) scan_span.set_detail(scan.torn_reason);
    }
    report->torn_bytes = scan.torn_bytes();
    report->valid_bytes = scan.valid_bytes;

    if (!scan.frames.empty()) {
      // Replayed pages become dirty pool frames that no-steal keeps off
      // the checkpoint they redo (a crash mid-replay must stay
      // re-playable). Logical redo through the caller's `apply` — the
      // same update path the original mutations took, so derived
      // structures (zone maps, subfield hulls, tree entries) are all
      // maintained, not just pages.
      ScopedSpan replay_span("wal.replay", "wal", &report->trace);
      for (const WalFrame& frame : scan.frames) {
        if (frame.epoch != epoch_) {
          // A completed checkpoint already captured this frame; only
          // the not-yet-truncated log survived the crash.
          ++stale;
          continue;
        }
        const Status applied = apply(frame);
        if (!applied.ok()) {
          return Status::Corruption(
              "wal replay failed at lsn " + std::to_string(frame.lsn) +
              ": " + applied.ToString());
        }
        ++replayed;
      }
      replay_span.set_items(replayed);
      if (stale > 0) {
        replay_span.set_detail(std::to_string(stale) + " stale frames");
      }
    }
    report->frames_replayed = replayed;
    report->stale_frames = stale;
    reg.GetCounter("storage.wal.replayed_frames")->Increment(replayed);
    reg.GetCounter("storage.wal.stale_frames")->Increment(stale);

    if (replayed > 0) {
      // Post-replay verification with the scrub machinery: under
      // no-steal the flush inside is a no-op, so this proves the
      // checkpoint base the redo was applied over is bit-intact.
      ScopedSpan verify_span("verify", "recovery", &report->trace);
      FIELDDB_RETURN_IF_ERROR(
          ScrubPages(&report->pages_verified, &report->corrupt_pages));
      verify_span.set_items(report->pages_verified);
    }
    recovery.set_items(replayed);
  }

  if (mode != WalMode::kOff) {
    // Keep logging: reopen the log for appends (physically truncating
    // any torn tail); dirty frames stay pinned until the next
    // checkpoint.
    FIELDDB_RETURN_IF_ERROR(ArmWal(wal_path, mode));
  } else {
    if (replayed > 0) {
      // The caller wants a log-less database but the log held committed
      // mutations: fold them into a fresh checkpoint, then drop the
      // log. (A crash in between is safe — the checkpoint bumped the
      // epoch, so the leftover log replays as stale no-ops.)
      FIELDDB_RETURN_IF_ERROR(fold_checkpoint());
      report->folded = true;
    }
    std::remove(wal_path.c_str());  // absent file is fine
  }
  return Status::OK();
}

Status FieldEngine::FinishBuild(const EngineBuildOptions& options) {
  FIELDDB_RETURN_IF_ERROR(ArmWal(options.wal_path, options.wal_mode));
  if (!options.event_log_path.empty()) {
    FIELDDB_RETURN_IF_ERROR(AttachEventLog(options.event_log_path,
                                           options.slow_query_threshold_ms));
    if (options.wal_mode != WalMode::kOff) {
      LogEvent(EventLog::Event("wal_mode_transition")
                   .Add("from", WalModeName(WalMode::kOff))
                   .Add("to", WalModeName(options.wal_mode))
                   .Add("at", "build"));
    }
  }
  pool_->ResetStats();
  return Status::OK();
}

Status FieldEngine::FinishOpen(
    const std::string& prefix, const EngineOpenOptions& options,
    const std::function<Status(const WalFrame&)>& apply,
    const std::function<Status()>& fold_checkpoint) {
  EngineRecoveryReport report;
  FIELDDB_RETURN_IF_ERROR(RecoverFromWal(prefix, options.wal_mode, apply,
                                         fold_checkpoint, &report));
  if (!options.event_log_path.empty()) {
    FIELDDB_RETURN_IF_ERROR(AttachEventLog(options.event_log_path,
                                           options.slow_query_threshold_ms));
    // One structured record per open: what recovery found and did. The
    // event log writes through its own fd, never the page file, so this
    // cannot disturb recovery state or I/O attribution.
    LogRecoveryEvent(report, options.wal_mode);
    if (options.wal_mode == WalMode::kOff && report.folded) {
      LogEvent(EventLog::Event("wal_mode_transition")
                   .Add("from", "unknown")
                   .Add("to", WalModeName(WalMode::kOff))
                   .Add("at", "open_fold"));
    }
  }
  pool_->ResetStats();
  if (options.recovery_report != nullptr) {
    *options.recovery_report = std::move(report);
  }
  return Status::OK();
}

void engine_internal::AddZoneSkips(const ZoneSkips& skipped) {
  const EngineMetrics& m = EngineMetrics::Get();
  m.zonemap_cells_skipped->Increment(skipped.cells);
  m.zonemap_pages_skipped->Increment(skipped.pages);
}

void FieldEngine::RegisterMetrics() { EngineMetrics::Get(); }

void FieldEngine::CountPlan(PlanKind kind) {
  const EngineMetrics& m = EngineMetrics::Get();
  (kind == PlanKind::kFusedScan ? m.plans_scan : m.plans_index)->Increment();
}

void FieldEngine::RecordIndexFallback(
    const Status& error,
    const std::function<void(EventLog::Event*)>& describe) const {
  index_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics::Get().index_fallbacks->Increment();
  if (event_log_ == nullptr) return;
  EventLog::Event event("corruption_fallback");
  if (describe) describe(&event);
  LogEvent(event.Add("error", error.ToString()));
}

void FieldEngine::MaybeLogSlowQuery(
    const QueryStats& stats,
    const std::function<PhysicalPlan(EventLog::Event*)>& describe) const {
  if (event_log_ == nullptr) return;
  const double wall_ms = stats.wall_seconds * 1000.0;
  if (wall_ms < slow_query_threshold_ms_) return;
  EventLog::Event event("slow_query");
  event.Add("wall_ms", wall_ms).Add("threshold_ms", slow_query_threshold_ms_);
  const PhysicalPlan plan = describe(&event);
  LogEvent(event.Add("plan", PlanKindName(plan.kind))
               .Add("reason", plan.reason)
               .Add("predicted_cost_ms", plan.predicted_cost_ms)
               .Add("observed_disk_ms",
                    DiskModel{}.EstimateMs(stats.io.sequential_reads,
                                           stats.io.random_reads()))
               .Add("candidate_cells", stats.candidate_cells)
               .Add("answer_cells", stats.answer_cells)
               .Add("inside_cells", stats.inside_cells)
               .Add("index_fallbacks", stats.index_fallbacks)
               .Add("logical_reads", stats.io.logical_reads)
               .Add("physical_reads", stats.io.physical_reads)
               .Add("sequential_reads", stats.io.sequential_reads)
               .Add("random_reads", stats.io.random_reads())
               .Add("evictions", stats.io.evictions));
}

StatusOr<WorkloadStats> FieldEngine::RunWorkload(
    size_t num_queries, bool cold_cache,
    const std::function<Status(size_t i, QueryStats* stats)>& run) const {
  WorkloadStats ws;
  if (num_queries == 0) return ws;
  QueryStats total;
  std::vector<double> wall_ms;
  wall_ms.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    if (cold_cache) FIELDDB_RETURN_IF_ERROR(pool_->Clear());
    QueryStats qs;
    FIELDDB_RETURN_IF_ERROR(run(i, &qs));
    total.Accumulate(qs);
    wall_ms.push_back(qs.wall_seconds * 1000.0);
  }
  FinalizeWorkloadStats(total, &wall_ms, &ws);
  return ws;
}

Status FieldEngine::ScrubPages(uint64_t* pages_checked,
                               std::vector<PageId>* corrupt_pages) {
  const EngineMetrics& m = EngineMetrics::Get();
  // Dirty frames shadow the file contents; push them down first so the
  // walk verifies what a reopen would actually read.
  FIELDDB_RETURN_IF_ERROR(pool_->Flush());
  for (PageId id = 0; id < file_->NumPages(); ++id) {
    Status s = file_->VerifyPage(id);
    for (int attempt = 0; !s.ok() && s.code() == StatusCode::kIOError &&
                          attempt < BufferPool::kMaxReadRetries;
         ++attempt) {
      s = file_->VerifyPage(id);
    }
    ++*pages_checked;
    m.scrub_pages->Increment();
    if (s.code() == StatusCode::kCorruption) {
      corrupt_pages->push_back(id);
      m.scrub_corrupt_pages->Increment();
    } else if (!s.ok()) {
      return s;  // persistent I/O error: the medium, not the data
    }
  }
  return Status::OK();
}

Status FieldEngine::Close() {
  if (wal_ != nullptr) {
    // Sync the log first: it is the only copy of the mutations the
    // no-steal pool is about to discard.
    FIELDDB_RETURN_IF_ERROR(wal_->Close());
    return pool_->Abandon();
  }
  return pool_->Close();
}

Status FieldEngine::SimulateCrashForTest() {
  if (wal_ != nullptr) {
    FIELDDB_RETURN_IF_ERROR(wal_->SimulateCrashForTest());
  }
  return pool_->Abandon();
}

Status FieldEngine::AttachEventLog(const std::string& path,
                                   double slow_query_threshold_ms) {
  StatusOr<std::unique_ptr<EventLog>> log = EventLog::Open(path);
  if (!log.ok()) return log.status();
  event_log_ = std::move(log).value();
  slow_query_threshold_ms_ = slow_query_threshold_ms;
  return Status::OK();
}

void FieldEngine::LogEvent(const EventLog::Event& event) const {
  if (event_log_ == nullptr) return;
  // Append errors are counted by the log itself
  // (obs.event_log_append_errors); an operation must never fail because
  // its telemetry could not be written.
  (void)event_log_->Append(event);
}

void FieldEngine::LogRecoveryEvent(const EngineRecoveryReport& report,
                                   WalMode mode) const {
  LogEvent(EventLog::Event("recovery")
               .Add("frames_replayed", report.frames_replayed)
               .Add("stale_frames", report.stale_frames)
               .Add("torn_bytes", report.torn_bytes)
               .Add("pages_verified", report.pages_verified)
               .Add("corrupt_pages",
                    static_cast<uint64_t>(report.corrupt_pages.size()))
               .Add("folded", report.folded)
               .Add("wal_mode", WalModeName(mode)));
}

}  // namespace fielddb
