// Crash-matrix tests of WAL recovery: every deterministic crash site in
// the append -> commit -> apply -> checkpoint -> rename pipeline, for
// every persistable index method, must recover to exactly the
// pre-mutation or post-mutation state — never a torn mix. State equality
// is checked differentially: the recovered database must answer a query
// workload bit-identically to a reference built fresh with the same
// updates applied in memory. (Row-IP is the fifth method; it has no
// persistence support by contract — pinned by a test below — so the
// matrix covers the four on-disk methods.)

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/field_database.h"
#include "gen/monotonic.h"
#include "gen/workload.h"
#include "storage/wal.h"
#include "query_util.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// The two mutations the matrix toggles. Values far outside the field's
// native range so their presence is unambiguous in value queries.
constexpr CellId kCellA = 3;
constexpr CellId kCellB = 10;
const std::vector<double> kValuesA = {400.0, 400.0, 400.0, 400.0};
const std::vector<double> kValuesB = {500.0, 500.0, 500.0, 500.0};

class RecoveryTest : public ::testing::TestWithParam<IndexMethod> {
 protected:
  void SetUp() override {
    prefix_ = TestTempDir() + "/fielddb_recovery_" +
              std::to_string(static_cast<int>(GetParam()));
    Cleanup();
    auto field = MakeMonotonicField(8, 8);
    ASSERT_TRUE(field.ok());
    field_ = std::make_unique<GridField>(std::move(*field));
    FieldDatabaseOptions options;
    options.method = GetParam();
    auto db = FieldDatabase::Build(*field_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Save(prefix_).ok());  // checkpoint, epoch 1
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    for (const char* suffix :
         {".pages", ".meta", ".pages.tmp", ".meta.tmp", ".wal"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  std::unique_ptr<FieldDatabase> OpenWal(
      WalMode mode = WalMode::kFsyncOnCommit,
      FieldDatabase::RecoveryReport* report = nullptr) {
    FieldDatabase::OpenOptions options;
    options.wal_mode = mode;
    options.recovery_report = report;
    auto db = FieldDatabase::Open(prefix_, options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  // Asserts `got` answers a workload bit-identically to a reference
  // database built from the original field with the given updates
  // applied in memory (the same maintenance code path recovery replays).
  void ExpectState(FieldDatabase* got, bool a_applied, bool b_applied) {
    ASSERT_NE(got, nullptr);
    FieldDatabaseOptions options;
    options.method = GetParam();
    auto reference = FieldDatabase::Build(*field_, options);
    ASSERT_TRUE(reference.ok());
    if (a_applied) {
      ASSERT_TRUE((*reference)->UpdateCellValues(kCellA, kValuesA).ok());
    }
    if (b_applied) {
      ASSERT_TRUE((*reference)->UpdateCellValues(kCellB, kValuesB).ok());
    }
    std::vector<ValueInterval> queries = GenerateValueQueries(
        field_->ValueRange(), WorkloadOptions{0.05, 10, 17});
    queries.push_back(ValueInterval{399, 401});  // A's band
    queries.push_back(ValueInterval{499, 501});  // B's band
    queries.push_back(ValueInterval{-1000, 1000});
    for (const ValueInterval& q : queries) {
      SCOPED_TRACE(q.min);
      ValueQueryResult expected, actual;
      ASSERT_TRUE(QueryOne(**reference, q, &expected).ok());
      ASSERT_TRUE(QueryOne(*got, q, &actual).ok());
      EXPECT_EQ(actual.stats.answer_cells, expected.stats.answer_cells);
      EXPECT_EQ(actual.region.TotalArea(), expected.region.TotalArea());
    }
  }

  std::string prefix_;
  std::unique_ptr<GridField> field_;
};

// --- Crash sites in the update pipeline ------------------------------

TEST_P(RecoveryTest, AckedUpdateSurvivesPowerCut) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->UpdateCellValues(kCellA, kValuesA).ok());  // acked
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  FieldDatabase::RecoveryReport report;
  auto recovered = OpenWal(WalMode::kFsyncOnCommit, &report);
  EXPECT_EQ(report.frames_replayed, 1u);
  EXPECT_EQ(report.stale_frames, 0u);
  EXPECT_TRUE(report.corrupt_pages.empty());
  EXPECT_GT(report.pages_verified, 0u);
  EXPECT_NE(report.trace.Find("wal.replay"), nullptr);
  ExpectState(recovered.get(), true, false);
}

TEST_P(RecoveryTest, AppendFailureLosesNothing) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  db->wal()->ArmAppendErrorForTest(0);
  EXPECT_FALSE(db->UpdateCellValues(kCellA, kValuesA).ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();
  ExpectState(OpenWal().get(), false, false);
}

TEST_P(RecoveryTest, BatchAppendFailureAtEveryPositionRejectsWhole) {
  // The batch appends three frames before its single commit; kill the
  // log at each append position. No frame was committed, so recovery
  // lands on the pre-batch state every time.
  for (int fail_at = 0; fail_at < 3; ++fail_at) {
    SCOPED_TRACE(fail_at);
    SetUp();
    auto db = OpenWal();
    ASSERT_NE(db, nullptr);
    db->wal()->ArmAppendErrorForTest(fail_at);
    const std::vector<FieldDatabase::CellUpdate> batch = {
        {kCellA, kValuesA}, {kCellB, kValuesB}, {17, {450, 450, 450, 450}}};
    EXPECT_FALSE(db->UpdateCellValuesBatch(batch).ok());
    ASSERT_TRUE(db->SimulateCrashForTest().ok());
    db.reset();
    ExpectState(OpenWal().get(), false, false);
  }
}

TEST_P(RecoveryTest, TornAppendAtEveryOffsetKeepsCommittedPrefix) {
  // Power cut mid-append: only `keep` bytes of B's frame reached the
  // platter. Whatever the tear position, recovery must keep committed
  // update A and drop torn update B. A 4-value frame is 68 bytes
  // (24-byte header + 8-byte cell id + 4-byte count + 32 bytes values).
  for (const uint32_t keep :
       {0u, 1u, 4u, 8u, 12u, 16u, 20u, 23u, 24u, 32u, 36u, 67u}) {
    SCOPED_TRACE(keep);
    SetUp();
    auto db = OpenWal();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->UpdateCellValues(kCellA, kValuesA).ok());
    db->wal()->ArmShortAppendForTest(0, keep);
    EXPECT_FALSE(db->UpdateCellValues(kCellB, kValuesB).ok());
    ASSERT_TRUE(db->SimulateCrashForTest().ok());
    db.reset();

    FieldDatabase::RecoveryReport report;
    auto recovered = OpenWal(WalMode::kFsyncOnCommit, &report);
    EXPECT_EQ(report.frames_replayed, 1u);
    EXPECT_EQ(report.torn_bytes, keep);
    ExpectState(recovered.get(), true, false);
  }
}

TEST_P(RecoveryTest, FsyncFailureMeansNotAcknowledged) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  db->wal()->ArmSyncErrorForTest(1);
  EXPECT_EQ(db->UpdateCellValues(kCellA, kValuesA).code(),
            StatusCode::kIOError);
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();
  // The update was never acknowledged, so losing it is correct — and
  // required: the frame never became durable.
  ExpectState(OpenWal().get(), false, false);
}

TEST_P(RecoveryTest, CommittedThenFailedUpdateKeepsOnlyCommitted) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->UpdateCellValues(kCellA, kValuesA).ok());
  db->wal()->ArmAppendErrorForTest(0);
  EXPECT_FALSE(db->UpdateCellValues(kCellB, kValuesB).ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();
  ExpectState(OpenWal().get(), true, false);
}

// --- Crash sites in the checkpoint pipeline --------------------------

TEST_P(RecoveryTest, CheckpointCrashMatrixNeverLosesAckedUpdates) {
  // A committed update must survive a crash at every interruption point
  // of the checkpoint: before the rename the WAL still carries it, after
  // the renames the new snapshot does (and the un-truncated WAL replays
  // as stale no-ops).
  using CP = FieldDatabase::SaveCrashPoint;
  for (const CP point : {CP::kMidPagesTmp, CP::kBeforeRename,
                         CP::kBetweenRenames, CP::kBeforeWalTruncate}) {
    SCOPED_TRACE(static_cast<int>(point));
    SetUp();
    auto db = OpenWal();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->UpdateCellValues(kCellA, kValuesA).ok());
    ASSERT_TRUE(db->SaveWithCrashPointForTest(prefix_, point).ok());
    ASSERT_TRUE(db->SimulateCrashForTest().ok());
    db.reset();
    ExpectState(OpenWal().get(), true, false);
  }
}

TEST_P(RecoveryTest, StaleFramesAreSkippedNotReplayed) {
  // Crash after the checkpoint committed but before the WAL truncate:
  // the log still holds the update's frame, stamped with the superseded
  // epoch. Recovery must not apply it on top of the snapshot that
  // already contains it.
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->UpdateCellValues(kCellA, kValuesA).ok());
  ASSERT_TRUE(db->SaveWithCrashPointForTest(
                    prefix_, FieldDatabase::SaveCrashPoint::kBeforeWalTruncate)
                  .ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  FieldDatabase::RecoveryReport report;
  auto recovered = OpenWal(WalMode::kFsyncOnCommit, &report);
  EXPECT_EQ(report.frames_replayed, 0u);
  EXPECT_EQ(report.stale_frames, 1u);
  ExpectState(recovered.get(), true, false);
}

TEST_P(RecoveryTest, CleanCheckpointTruncatesTheLog) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->UpdateCellValues(kCellA, kValuesA).ok());
  EXPECT_GT(db->wal()->size_bytes(), 0u);
  ASSERT_TRUE(db->Save(prefix_).ok());
  EXPECT_EQ(db->wal()->size_bytes(), 0u);
  ASSERT_TRUE(db->Close().ok());
  db.reset();

  FieldDatabase::RecoveryReport report;
  auto recovered = OpenWal(WalMode::kFsyncOnCommit, &report);
  EXPECT_EQ(report.frames_replayed, 0u);
  ExpectState(recovered.get(), true, false);
}

TEST_P(RecoveryTest, CheckpointTruncateFailureRefusesFurtherUpdates) {
  // The WAL truncate runs after the snapshot renames commit. If it
  // fails, the on-disk catalog is at the new epoch while the log would
  // keep stamping frames with the old one — frames the next recovery
  // skips as stale. Acknowledging any further update would therefore be
  // silent data loss; the poisoned log must refuse them instead.
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->UpdateCellValues(kCellA, kValuesA).ok());
  db->wal()->ArmSyncErrorForTest(1);  // fires inside Save's Truncate
  EXPECT_EQ(db->Save(prefix_).code(), StatusCode::kIOError);
  EXPECT_FALSE(db->UpdateCellValues(kCellB, kValuesB).ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  // The committed snapshot carries A; the never-acknowledged B is gone.
  FieldDatabase::RecoveryReport report;
  auto recovered = OpenWal(WalMode::kFsyncOnCommit, &report);
  EXPECT_EQ(report.frames_replayed, 0u);
  ExpectState(recovered.get(), true, false);
}

// --- Repeated and compound failures ----------------------------------

TEST_P(RecoveryTest, DoubleCrashReplayIsIdempotent) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->UpdateCellValues(kCellA, kValuesA).ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  auto once = OpenWal();  // replays A
  ASSERT_NE(once, nullptr);
  ASSERT_TRUE(once->SimulateCrashForTest().ok());  // crash again, no writes
  once.reset();

  FieldDatabase::RecoveryReport report;
  auto twice = OpenWal(WalMode::kFsyncOnCommit, &report);
  EXPECT_EQ(report.frames_replayed, 1u);  // same frame, same result
  ExpectState(twice.get(), true, false);
}

TEST_P(RecoveryTest, BitRotInTheLogLosesOnlyTheTail) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->UpdateCellValues(kCellA, kValuesA).ok());
  const uint64_t second_start = db->wal()->size_bytes();
  ASSERT_TRUE(db->UpdateCellValues(kCellB, kValuesB).ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  // Flip one byte of B's frame on disk: its checksum no longer matches,
  // so the scan truncates there. A survives; B is gone.
  const std::string wal_path = prefix_ + ".wal";
  std::FILE* f = std::fopen(wal_path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(second_start + 30), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(second_start + 30), SEEK_SET), 0);
  std::fputc(c ^ 0x10, f);
  std::fclose(f);

  FieldDatabase::RecoveryReport report;
  auto recovered = OpenWal(WalMode::kFsyncOnCommit, &report);
  EXPECT_EQ(report.frames_replayed, 1u);
  EXPECT_GT(report.torn_bytes, 0u);
  ExpectState(recovered.get(), true, false);
}

// --- Mode contracts --------------------------------------------------

TEST_P(RecoveryTest, AsyncModeLosesPowerCutTailKeepsCheckpoint) {
  // kAsync survives process crashes, not power cuts: the commit was
  // flushed to the OS but never fsynced, so the simulated power cut
  // erases it. The checkpoint state must still load cleanly.
  auto db = OpenWal(WalMode::kAsync);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->UpdateCellValues(kCellA, kValuesA).ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();
  ExpectState(OpenWal(WalMode::kAsync).get(), false, false);
}

TEST_P(RecoveryTest, ReopenWithWalOffFoldsTheLogIntoACheckpoint) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->UpdateCellValues(kCellA, kValuesA).ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  FieldDatabase::RecoveryReport report;
  FieldDatabase::OpenOptions options;
  options.wal_mode = WalMode::kOff;
  options.recovery_report = &report;
  auto folded = FieldDatabase::Open(prefix_, options);
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(report.frames_replayed, 1u);
  EXPECT_TRUE(report.folded);
  EXPECT_FALSE(FileExists(prefix_ + ".wal"));
  ExpectState(folded->get(), true, false);

  // The fold is durable: a plain reopen sees the update with no log.
  folded->reset();
  FieldDatabase::RecoveryReport second;
  FieldDatabase::OpenOptions plain;
  plain.recovery_report = &second;
  auto reopened = FieldDatabase::Open(prefix_, plain);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(second.frames_replayed, 0u);
  ExpectState(reopened->get(), true, false);
}

TEST_P(RecoveryTest, NonFiniteUpdateNeverReachesTheLog) {
  // A +inf sample has no value interval: acknowledging it would let the
  // off-mode reopen fold it into a checkpoint no later Open can read.
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  const std::vector<double> bad = {1.0, std::numeric_limits<double>::infinity(),
                                   1.0, 1.0};
  EXPECT_EQ(db->UpdateCellValues(kCellA, bad).code(),
            StatusCode::kInvalidArgument);
  ASSERT_NE(db->wal(), nullptr);
  EXPECT_EQ(db->wal()->size_bytes(), 0u);
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  // Two reopens in a row: the off-mode one (which would fold a logged
  // frame into a new checkpoint), then a plain one.
  FieldDatabase::OpenOptions off;
  off.wal_mode = WalMode::kOff;
  auto first = FieldDatabase::Open(prefix_, off);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  first->reset();
  auto second = FieldDatabase::Open(prefix_);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectState(second->get(), false, false);
}

TEST_P(RecoveryTest, CleanCloseThenReopenReplaysTheLog) {
  // Close syncs the log and drops the dirty pages (no-steal): the next
  // open rebuilds the updates from the log alone.
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->UpdateCellValues(kCellA, kValuesA).ok());
  ASSERT_TRUE(db->UpdateCellValues(kCellB, kValuesB).ok());
  ASSERT_TRUE(db->Close().ok());
  db.reset();

  FieldDatabase::RecoveryReport report;
  auto recovered = OpenWal(WalMode::kFsyncOnCommit, &report);
  EXPECT_EQ(report.frames_replayed, 2u);
  ExpectState(recovered.get(), true, true);
}

INSTANTIATE_TEST_SUITE_P(
    AllPersistableMethods, RecoveryTest,
    ::testing::Values(IndexMethod::kLinearScan, IndexMethod::kIAll,
                      IndexMethod::kIHilbert,
                      IndexMethod::kIntervalQuadtree),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Row-IP is the comparison baseline without persistence — and therefore
// without WAL durability. Pin the contract so the matrix's method list
// stays honest.
TEST(RecoveryContractTest, RowIpHasNoPersistence) {
  auto field = MakeMonotonicField(8, 8);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = IndexMethod::kRowIp;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->Save(TestTempDir() + "/fielddb_rowip").code(),
            StatusCode::kUnimplemented);
}

// Building with a WAL requires a path to log to.
TEST(RecoveryContractTest, WalModeRequiresWalPath) {
  auto field = MakeMonotonicField(8, 8);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.wal_mode = WalMode::kFsyncOnCommit;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fielddb
