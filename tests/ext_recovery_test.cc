// WAL-backed crash recovery for the extension engines (vector, volume,
// temporal), mirroring the grid's recovery_test: acked updates survive
// power cuts, unlogged updates are lost (correctly), the checkpoint
// crash matrix never loses acked state, and stale frames are skipped.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

void Cleanup(const std::string& prefix) {
  for (const char* suffix :
       {".pages", ".meta", ".pages.tmp", ".meta.tmp", ".wal"}) {
    std::remove((prefix + suffix).c_str());
  }
}

// --- Volume ----------------------------------------------------------

class VolumeRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = TestTempDir() + "/fielddb_ext_rec_vol";
    Cleanup(prefix_);
    VolumeFractalOptions fo;
    fo.nx = fo.ny = fo.nz = 4;
    auto field = MakeFractalVolume(fo);
    ASSERT_TRUE(field.ok());
    auto db = VolumeFieldDatabase::Build(*field, {});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Save(prefix_).ok());  // checkpoint, epoch 1
  }
  void TearDown() override { Cleanup(prefix_); }

  std::unique_ptr<VolumeFieldDatabase> OpenWal(
      WalMode mode = WalMode::kFsyncOnCommit,
      EngineRecoveryReport* report = nullptr) {
    VolumeFieldDatabase::OpenOptions options;
    options.wal_mode = mode;
    options.recovery_report = report;
    auto db = VolumeFieldDatabase::Open(prefix_, options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  // Voxels answering the marker band [699, 701] (update writes 700s).
  uint64_t MarkerCount(VolumeFieldDatabase* db) {
    VolumeQueryResult result;
    EXPECT_TRUE(db->BandQuery(ValueInterval{699, 701}, &result).ok());
    return result.stats.answer_cells;
  }

  std::string prefix_;
};

TEST_F(VolumeRecoveryTest, AckedUpdateSurvivesPowerCut) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(
      db->UpdateVoxelValues(7, std::vector<double>(8, 700.0)).ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  EngineRecoveryReport report;
  auto recovered = OpenWal(WalMode::kFsyncOnCommit, &report);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(report.frames_replayed, 1u);
  EXPECT_EQ(report.stale_frames, 0u);
  EXPECT_TRUE(report.corrupt_pages.empty());
  EXPECT_EQ(MarkerCount(recovered.get()), 1u);
}

TEST_F(VolumeRecoveryTest, UnloggedUpdateIsLostAfterCrash) {
  auto db = OpenWal(WalMode::kOff);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(
      db->UpdateVoxelValues(7, std::vector<double>(8, 700.0)).ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  auto recovered = OpenWal(WalMode::kOff);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(MarkerCount(recovered.get()), 0u);  // nothing promised
}

TEST_F(VolumeRecoveryTest, CheckpointCrashMatrixNeverLosesAckedUpdates) {
  for (const SnapshotCrashPoint point :
       {SnapshotCrashPoint::kMidPagesTmp, SnapshotCrashPoint::kBeforeRename,
        SnapshotCrashPoint::kBetweenRenames,
        SnapshotCrashPoint::kBeforeWalTruncate}) {
    SCOPED_TRACE(static_cast<int>(point));
    SetUp();
    auto db = OpenWal();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(
        db->UpdateVoxelValues(7, std::vector<double>(8, 700.0)).ok());
    ASSERT_TRUE(db->SaveWithCrashPointForTest(prefix_, point).ok());
    ASSERT_TRUE(db->SimulateCrashForTest().ok());
    db.reset();

    auto recovered = OpenWal();
    ASSERT_NE(recovered, nullptr);
    EXPECT_EQ(MarkerCount(recovered.get()), 1u);
  }
}

TEST_F(VolumeRecoveryTest, StaleFramesAreSkippedNotReplayed) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(
      db->UpdateVoxelValues(7, std::vector<double>(8, 700.0)).ok());
  ASSERT_TRUE(db->SaveWithCrashPointForTest(
                    prefix_, SnapshotCrashPoint::kBeforeWalTruncate)
                  .ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  EngineRecoveryReport report;
  auto recovered = OpenWal(WalMode::kFsyncOnCommit, &report);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(report.frames_replayed, 0u);
  EXPECT_EQ(report.stale_frames, 1u);
  EXPECT_EQ(MarkerCount(recovered.get()), 1u);
}

TEST_F(VolumeRecoveryTest, WalOffFoldsPendingFramesIntoCheckpoint) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(
      db->UpdateVoxelValues(7, std::vector<double>(8, 700.0)).ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  // Opening with the WAL disabled must not drop the durable frames:
  // they are folded into a fresh checkpoint and the log is deleted.
  EngineRecoveryReport report;
  auto folded = OpenWal(WalMode::kOff, &report);
  ASSERT_NE(folded, nullptr);
  EXPECT_TRUE(report.folded);
  EXPECT_EQ(MarkerCount(folded.get()), 1u);
  folded.reset();

  auto reopened = OpenWal(WalMode::kOff);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(MarkerCount(reopened.get()), 1u);
}

// --- Vector ----------------------------------------------------------

class VectorRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = TestTempDir() + "/fielddb_ext_rec_vec";
    Cleanup(prefix_);
    std::vector<double> su, sv;
    const uint32_t n = 8;
    for (uint32_t j = 0; j <= n; ++j) {
      for (uint32_t i = 0; i <= n; ++i) {
        su.push_back(static_cast<double>(i) / n);
        sv.push_back(static_cast<double>(j) / n);
      }
    }
    auto field =
        VectorGridField::Create(n, n, Rect2{{0, 0}, {1, 1}}, su, sv);
    ASSERT_TRUE(field.ok());
    auto db = VectorFieldDatabase::Build(*field, {});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Save(prefix_).ok());
  }
  void TearDown() override { Cleanup(prefix_); }

  std::unique_ptr<VectorFieldDatabase> OpenWal(
      WalMode mode = WalMode::kFsyncOnCommit,
      EngineRecoveryReport* report = nullptr) {
    VectorFieldDatabase::OpenOptions options;
    options.wal_mode = mode;
    options.recovery_report = report;
    auto db = VectorFieldDatabase::Open(prefix_, options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  uint64_t MarkerCount(VectorFieldDatabase* db) {
    VectorBandQuery marker;
    marker.u = ValueInterval{299, 301};
    marker.v = ValueInterval{-301, -299};
    VectorQueryResult result;
    EXPECT_TRUE(db->BandQuery(marker, &result).ok());
    return result.stats.answer_cells;
  }

  Status ApplyMarker(VectorFieldDatabase* db) {
    return db->UpdateCellValues(5, std::vector<double>(4, 300.0),
                                std::vector<double>(4, -300.0));
  }

  std::string prefix_;
};

TEST_F(VectorRecoveryTest, AckedUpdateSurvivesPowerCut) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(ApplyMarker(db.get()).ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  EngineRecoveryReport report;
  auto recovered = OpenWal(WalMode::kFsyncOnCommit, &report);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(report.frames_replayed, 1u);
  EXPECT_EQ(MarkerCount(recovered.get()), 1u);
}

TEST_F(VectorRecoveryTest, CheckpointCrashMatrixNeverLosesAckedUpdates) {
  for (const SnapshotCrashPoint point :
       {SnapshotCrashPoint::kMidPagesTmp, SnapshotCrashPoint::kBeforeRename,
        SnapshotCrashPoint::kBetweenRenames,
        SnapshotCrashPoint::kBeforeWalTruncate}) {
    SCOPED_TRACE(static_cast<int>(point));
    SetUp();
    auto db = OpenWal();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(ApplyMarker(db.get()).ok());
    ASSERT_TRUE(db->SaveWithCrashPointForTest(prefix_, point).ok());
    ASSERT_TRUE(db->SimulateCrashForTest().ok());
    db.reset();

    auto recovered = OpenWal();
    ASSERT_NE(recovered, nullptr);
    EXPECT_EQ(MarkerCount(recovered.get()), 1u);
  }
}

TEST_F(VectorRecoveryTest, TornFrameKeepsCommittedPrefix) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(ApplyMarker(db.get()).ok());
  db->wal()->ArmShortAppendForTest(0, 16);  // tear the second frame
  EXPECT_FALSE(db->UpdateCellValues(6, std::vector<double>(4, 800.0),
                                    std::vector<double>(4, 800.0))
                   .ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  EngineRecoveryReport report;
  auto recovered = OpenWal(WalMode::kFsyncOnCommit, &report);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(report.frames_replayed, 1u);
  EXPECT_EQ(report.torn_bytes, 16u);
  EXPECT_EQ(MarkerCount(recovered.get()), 1u);
  VectorBandQuery torn;
  torn.u = ValueInterval{799, 801};
  torn.v = ValueInterval{799, 801};
  VectorQueryResult result;
  ASSERT_TRUE(recovered->BandQuery(torn, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, 0u);
}

// --- Temporal --------------------------------------------------------

class TemporalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = TestTempDir() + "/fielddb_ext_rec_temp";
    Cleanup(prefix_);
    const uint32_t n = 6;
    std::vector<std::vector<double>> snapshots(3);
    for (uint32_t k = 0; k < 3; ++k) {
      for (uint32_t j = 0; j <= n; ++j) {
        for (uint32_t i = 0; i <= n; ++i) {
          snapshots[k].push_back(static_cast<double>(i + j) + 10.0 * k);
        }
      }
    }
    auto field = TemporalGridField::Create(n, n, Rect2{{0, 0}, {1, 1}},
                                           std::move(snapshots));
    ASSERT_TRUE(field.ok());
    auto db = TemporalFieldDatabase::Build(*field, {});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Save(prefix_).ok());
  }
  void TearDown() override { Cleanup(prefix_); }

  std::unique_ptr<TemporalFieldDatabase> OpenWal(
      WalMode mode = WalMode::kFsyncOnCommit,
      EngineRecoveryReport* report = nullptr) {
    TemporalFieldDatabase::OpenOptions options;
    options.wal_mode = mode;
    options.recovery_report = report;
    auto db = TemporalFieldDatabase::Open(prefix_, options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  // Cells answering the marker band around 900 at snapshot time 1.
  uint64_t MarkerCount(TemporalFieldDatabase* db) {
    ValueQueryResult result;
    EXPECT_TRUE(
        db->SnapshotValueQuery(1.0, ValueInterval{899, 901}, &result).ok());
    return result.stats.answer_cells;
  }

  std::string prefix_;
};

TEST_F(TemporalRecoveryTest, AckedUpdateSurvivesPowerCut) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->UpdateSnapshotCellValues(1, 5,
                                           std::vector<double>(4, 900.0))
                  .ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  EngineRecoveryReport report;
  auto recovered = OpenWal(WalMode::kFsyncOnCommit, &report);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(report.frames_replayed, 1u);
  EXPECT_GE(MarkerCount(recovered.get()), 1u);
}

TEST_F(TemporalRecoveryTest, CheckpointCrashMatrixNeverLosesAckedUpdates) {
  for (const SnapshotCrashPoint point :
       {SnapshotCrashPoint::kMidPagesTmp, SnapshotCrashPoint::kBeforeRename,
        SnapshotCrashPoint::kBetweenRenames,
        SnapshotCrashPoint::kBeforeWalTruncate}) {
    SCOPED_TRACE(static_cast<int>(point));
    SetUp();
    auto db = OpenWal();
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->UpdateSnapshotCellValues(1, 5,
                                             std::vector<double>(4, 900.0))
                    .ok());
    ASSERT_TRUE(db->SaveWithCrashPointForTest(prefix_, point).ok());
    ASSERT_TRUE(db->SimulateCrashForTest().ok());
    db.reset();

    auto recovered = OpenWal();
    ASSERT_NE(recovered, nullptr);
    EXPECT_GE(MarkerCount(recovered.get()), 1u);
  }
}

TEST_F(TemporalRecoveryTest, ReplayRefreshesBothBorderingSlabs) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  // Snapshot 1 borders slabs 0 and 1; after recovery both must reflect
  // the new samples (queries just inside each slab see the marker).
  ASSERT_TRUE(db->UpdateSnapshotCellValues(1, 5,
                                           std::vector<double>(4, 900.0))
                  .ok());
  ASSERT_TRUE(db->SimulateCrashForTest().ok());
  db.reset();

  auto recovered = OpenWal();
  ASSERT_NE(recovered, nullptr);
  for (const double t : {0.9, 1.1}) {
    SCOPED_TRACE(t);
    ValueQueryResult result;
    ASSERT_TRUE(recovered
                    ->SnapshotValueQuery(t, ValueInterval{500, 1000},
                                         &result)
                    .ok());
    EXPECT_GE(result.stats.answer_cells, 1u);
  }
}

TEST_F(TemporalRecoveryTest, UpdateValidatesBeforeLogging) {
  auto db = OpenWal();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->UpdateSnapshotCellValues(99, 0, {1, 1, 1, 1}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(db->UpdateSnapshotCellValues(1, 999999, {1, 1, 1, 1}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(db->UpdateSnapshotCellValues(1, 0, {1, 1}).code(),
            StatusCode::kInvalidArgument);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(db->UpdateSnapshotCellValues(1, 0, {1, 1, bad, 1}).code(),
              StatusCode::kInvalidArgument);
  }
  // None of the rejected updates reached the log.
  ASSERT_NE(db->wal(), nullptr);
  EXPECT_EQ(db->wal()->size_bytes(), 0u);
}

}  // namespace
}  // namespace fielddb
