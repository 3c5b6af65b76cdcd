// Unit tests of the write-ahead log: frame round-trips, torn-tail
// detection (every cut position), CRC and epoch checks, durability
// watermarks per mode, and the deterministic crash hooks the recovery
// suites build on.

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "storage/crc32c.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestTempDir() + "/fielddb_wal_test.wal";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<WriteAheadLog> OpenLog(WalMode mode, uint32_t epoch = 1) {
    auto wal = WriteAheadLog::Open(path_, mode, epoch);
    EXPECT_TRUE(wal.ok()) << wal.status().ToString();
    return wal.ok() ? std::move(*wal) : nullptr;
  }

  uint64_t FileSize() {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    if (f == nullptr) return 0;
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    return static_cast<uint64_t>(size);
  }

  void CorruptByte(uint64_t offset, uint8_t xor_mask) {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(c ^ xor_mask, f);
    std::fclose(f);
  }

  void TruncateFile(uint64_t size) {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::vector<char> bytes(size);
    ASSERT_EQ(std::fread(bytes.data(), 1, size, f), size);
    std::fclose(f);
    f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, size, f), size);
    std::fclose(f);
  }

  std::string path_;
};

TEST_F(WalTest, ModeNamesRoundTrip) {
  WalMode mode = WalMode::kOff;
  EXPECT_TRUE(ParseWalMode("off", &mode));
  EXPECT_EQ(mode, WalMode::kOff);
  EXPECT_TRUE(ParseWalMode("async", &mode));
  EXPECT_EQ(mode, WalMode::kAsync);
  EXPECT_TRUE(ParseWalMode("fsync", &mode));
  EXPECT_EQ(mode, WalMode::kFsyncOnCommit);
  EXPECT_TRUE(ParseWalMode("fsync_on_commit", &mode));
  EXPECT_EQ(mode, WalMode::kFsyncOnCommit);
  EXPECT_FALSE(ParseWalMode("sometimes", &mode));
  EXPECT_STREQ(WalModeName(WalMode::kOff), "off");
  EXPECT_STREQ(WalModeName(WalMode::kAsync), "async");
  EXPECT_STREQ(WalModeName(WalMode::kFsyncOnCommit), "fsync");
}

TEST_F(WalTest, ScanOfMissingFileIsEmpty) {
  auto scan = WriteAheadLog::Scan(path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->frames.empty());
  EXPECT_EQ(scan->file_bytes, 0u);
  EXPECT_EQ(scan->valid_bytes, 0u);
  EXPECT_TRUE(scan->torn_reason.empty());
}

TEST_F(WalTest, AppendCommitScanRoundTrip) {
  auto wal = OpenLog(WalMode::kFsyncOnCommit, 7);
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->next_lsn(), 1u);
  ASSERT_TRUE(wal->AppendUpdate(3, {1.0, 2.0, 3.0, 4.0}).ok());
  ASSERT_TRUE(wal->AppendUpdate(9, {5.5}).ok());
  ASSERT_TRUE(wal->Commit().ok());
  EXPECT_EQ(wal->next_lsn(), 3u);
  EXPECT_EQ(wal->synced_bytes(), wal->size_bytes());
  ASSERT_TRUE(wal->Close().ok());

  auto scan = WriteAheadLog::Scan(path_);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->frames.size(), 2u);
  EXPECT_TRUE(scan->torn_reason.empty());
  EXPECT_EQ(scan->valid_bytes, scan->file_bytes);
  const WalFrame& a = scan->frames[0];
  EXPECT_EQ(a.lsn, 1u);
  EXPECT_EQ(a.epoch, 7u);
  EXPECT_EQ(a.type, WriteAheadLog::kUpdateValuesFrame);
  EXPECT_EQ(a.cell_id, 3u);
  EXPECT_EQ(a.values, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  const WalFrame& b = scan->frames[1];
  EXPECT_EQ(b.lsn, 2u);
  EXPECT_EQ(b.cell_id, 9u);
  EXPECT_EQ(b.values, (std::vector<double>{5.5}));
  EXPECT_GT(b.offset, a.offset);
}

TEST_F(WalTest, OversizedPayloadRefused) {
  auto wal = OpenLog(WalMode::kAsync);
  ASSERT_NE(wal, nullptr);
  const std::vector<double> huge(WriteAheadLog::kMaxPayload / 8 + 1, 0.0);
  EXPECT_EQ(wal->AppendUpdate(0, huge).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(WalTest, EveryTruncationPointYieldsCleanTornTail) {
  // Cut the file after the first frame at every byte of the second
  // frame: the scan must always keep frame 1 intact and report a torn
  // tail, never crash or misparse.
  auto wal = OpenLog(WalMode::kFsyncOnCommit);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->AppendUpdate(1, {10.0, 11.0, 12.0, 13.0}).ok());
  ASSERT_TRUE(wal->Commit().ok());
  const uint64_t first_frame_end = wal->size_bytes();
  ASSERT_TRUE(wal->AppendUpdate(2, {20.0, 21.0, 22.0, 23.0}).ok());
  ASSERT_TRUE(wal->Commit().ok());
  ASSERT_TRUE(wal->Close().ok());
  const uint64_t full = FileSize();

  for (uint64_t cut = first_frame_end; cut < full; ++cut) {
    SCOPED_TRACE(cut);
    SetUp();  // fresh copy: rebuild the two-frame log
    auto rebuilt = OpenLog(WalMode::kFsyncOnCommit);
    ASSERT_TRUE(rebuilt->AppendUpdate(1, {10.0, 11.0, 12.0, 13.0}).ok());
    ASSERT_TRUE(rebuilt->Commit().ok());
    ASSERT_TRUE(rebuilt->AppendUpdate(2, {20.0, 21.0, 22.0, 23.0}).ok());
    ASSERT_TRUE(rebuilt->Commit().ok());
    ASSERT_TRUE(rebuilt->Close().ok());
    TruncateFile(cut);

    auto scan = WriteAheadLog::Scan(path_);
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(scan->frames.size(), 1u);
    EXPECT_EQ(scan->frames[0].cell_id, 1u);
    EXPECT_EQ(scan->valid_bytes, first_frame_end);
    EXPECT_EQ(scan->torn_bytes(), cut - first_frame_end);
    if (cut > first_frame_end) {
      EXPECT_FALSE(scan->torn_reason.empty());
    }
  }
}

TEST_F(WalTest, BitRotInFrameCutsScanThere) {
  auto wal = OpenLog(WalMode::kFsyncOnCommit);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->AppendUpdate(1, {1.0}).ok());
  ASSERT_TRUE(wal->Commit().ok());
  const uint64_t second_start = wal->size_bytes();
  ASSERT_TRUE(wal->AppendUpdate(2, {2.0}).ok());
  ASSERT_TRUE(wal->Commit().ok());
  ASSERT_TRUE(wal->Close().ok());

  // Flip one payload byte of the second frame.
  CorruptByte(second_start + WriteAheadLog::kFrameHeaderSize + 13, 0x01);
  auto scan = WriteAheadLog::Scan(path_);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->frames.size(), 1u);
  EXPECT_EQ(scan->valid_bytes, second_start);
  EXPECT_NE(scan->torn_reason.find("checksum"), std::string::npos)
      << scan->torn_reason;
}

TEST_F(WalTest, ReopenTruncatesTornTailAndContinuesLsn) {
  auto wal = OpenLog(WalMode::kFsyncOnCommit);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->AppendUpdate(1, {1.0}).ok());
  ASSERT_TRUE(wal->Commit().ok());
  const uint64_t intact = wal->size_bytes();
  ASSERT_TRUE(wal->AppendUpdate(2, {2.0}).ok());
  ASSERT_TRUE(wal->Commit().ok());
  ASSERT_TRUE(wal->Close().ok());
  TruncateFile(intact + 5);  // torn second frame

  auto reopened = OpenLog(WalMode::kFsyncOnCommit);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->size_bytes(), intact);  // tail physically removed
  EXPECT_EQ(FileSize(), intact);
  EXPECT_EQ(reopened->next_lsn(), 2u);  // after the surviving frame
  ASSERT_TRUE(reopened->AppendUpdate(3, {3.0}).ok());
  ASSERT_TRUE(reopened->Commit().ok());
  ASSERT_TRUE(reopened->Close().ok());

  auto scan = WriteAheadLog::Scan(path_);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->frames.size(), 2u);
  EXPECT_EQ(scan->frames[1].lsn, 2u);
  EXPECT_EQ(scan->frames[1].cell_id, 3u);
}

TEST_F(WalTest, TruncateDropsFramesAndAdoptsEpoch) {
  auto wal = OpenLog(WalMode::kFsyncOnCommit, 1);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->AppendUpdate(1, {1.0}).ok());
  ASSERT_TRUE(wal->Commit().ok());
  ASSERT_TRUE(wal->Truncate(2).ok());
  EXPECT_EQ(wal->epoch(), 2u);
  EXPECT_EQ(wal->size_bytes(), 0u);
  ASSERT_TRUE(wal->AppendUpdate(2, {2.0}).ok());
  ASSERT_TRUE(wal->Commit().ok());
  ASSERT_TRUE(wal->Close().ok());

  auto scan = WriteAheadLog::Scan(path_);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->frames.size(), 1u);
  EXPECT_EQ(scan->frames[0].epoch, 2u);
  EXPECT_EQ(scan->frames[0].cell_id, 2u);
}

TEST_F(WalTest, FsyncCommitAdvancesDurableWatermark) {
  auto wal = OpenLog(WalMode::kFsyncOnCommit);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->AppendUpdate(1, {1.0}).ok());
  EXPECT_EQ(wal->synced_bytes(), 0u);  // appended, not yet durable
  ASSERT_TRUE(wal->Commit().ok());
  EXPECT_EQ(wal->synced_bytes(), wal->size_bytes());
}

TEST_F(WalTest, AsyncCommitIsNotDurable) {
  auto wal = OpenLog(WalMode::kAsync);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->AppendUpdate(1, {1.0}).ok());
  ASSERT_TRUE(wal->Commit().ok());
  EXPECT_EQ(wal->synced_bytes(), 0u);  // flushed to the OS, not fsynced
  // A power cut now loses the commit.
  ASSERT_TRUE(wal->SimulateCrashForTest().ok());
  auto scan = WriteAheadLog::Scan(path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->frames.empty());
}

TEST_F(WalTest, SimulatedCrashKeepsExactlyTheSyncedPrefix) {
  auto wal = OpenLog(WalMode::kFsyncOnCommit);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->AppendUpdate(1, {1.0}).ok());
  ASSERT_TRUE(wal->Commit().ok());  // durable
  ASSERT_TRUE(wal->AppendUpdate(2, {2.0}).ok());  // buffered only
  ASSERT_TRUE(wal->SimulateCrashForTest().ok());

  auto scan = WriteAheadLog::Scan(path_);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->frames.size(), 1u);
  EXPECT_EQ(scan->frames[0].cell_id, 1u);
  // The log is poisoned afterwards.
  EXPECT_EQ(wal->AppendUpdate(3, {3.0}).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(WalTest, ArmedAppendErrorPoisonsTheLog) {
  auto wal = OpenLog(WalMode::kFsyncOnCommit);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->AppendUpdate(1, {1.0}).ok());
  wal->ArmAppendErrorForTest(1);  // the append after next fails
  ASSERT_TRUE(wal->AppendUpdate(2, {2.0}).ok());
  EXPECT_EQ(wal->AppendUpdate(3, {3.0}).code(), StatusCode::kIOError);
  // All subsequent appends refuse too: the "process" died mid-pipeline.
  EXPECT_FALSE(wal->AppendUpdate(4, {4.0}).ok());
}

TEST_F(WalTest, ArmedShortAppendLeavesDetectableTornFrame) {
  auto wal = OpenLog(WalMode::kFsyncOnCommit);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->AppendUpdate(1, {1.0}).ok());
  ASSERT_TRUE(wal->Commit().ok());
  const uint64_t intact = wal->size_bytes();
  wal->ArmShortAppendForTest(0, 10);  // 10 bytes of the frame hit disk
  EXPECT_EQ(wal->AppendUpdate(2, {2.0}).code(), StatusCode::kIOError);

  auto scan = WriteAheadLog::Scan(path_);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->frames.size(), 1u);
  EXPECT_EQ(scan->valid_bytes, intact);
  EXPECT_EQ(scan->torn_bytes(), 10u);
}

TEST_F(WalTest, ArmedSyncErrorFailsCommitAndPoisonsTheLog) {
  auto wal = OpenLog(WalMode::kFsyncOnCommit);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->AppendUpdate(1, {1.0}).ok());
  wal->ArmSyncErrorForTest(1);
  EXPECT_EQ(wal->Commit().code(), StatusCode::kIOError);
  EXPECT_EQ(wal->synced_bytes(), 0u);
  // fsyncgate: a failed fsync may have dropped the dirty pages, so a
  // retried "successful" sync could not be trusted. The log refuses
  // everything until it is reopened (which re-scans the file).
  EXPECT_EQ(wal->Commit().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(wal->AppendUpdate(2, {2.0}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(wal->synced_bytes(), 0u);
}

TEST_F(WalTest, ScanRejectsCountThatWrapsInUint32Arithmetic) {
  // A CRC-valid frame whose stored value count is 2^29: in 32-bit
  // arithmetic 12 + count * 8 wraps back to 12 and matches the actual
  // payload_len, after which the decoder would attempt a 4 GB values
  // allocation. The size check must run in 64 bits and cut the scan.
  std::vector<uint8_t> frame(WriteAheadLog::kFrameHeaderSize + 12, 0);
  const uint32_t epoch = 1, type = WriteAheadLog::kUpdateValuesFrame;
  const uint64_t lsn = 1, cell_id = 0;
  const uint32_t payload_len = 12;
  const uint32_t count = 1u << 29;
  std::memcpy(frame.data() + 4, &epoch, 4);
  std::memcpy(frame.data() + 8, &lsn, 8);
  std::memcpy(frame.data() + 16, &type, 4);
  std::memcpy(frame.data() + 20, &payload_len, 4);
  std::memcpy(frame.data() + 24, &cell_id, 8);
  std::memcpy(frame.data() + 32, &count, 4);
  const uint32_t crc =
      MaskCrc(Crc32c(frame.data() + 4, frame.size() - 4));
  std::memcpy(frame.data(), &crc, 4);
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(frame.data(), 1, frame.size(), f), frame.size());
  std::fclose(f);

  auto scan = WriteAheadLog::Scan(path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->frames.empty());
  EXPECT_EQ(scan->valid_bytes, 0u);
  EXPECT_EQ(scan->torn_reason, "update payload size mismatch");
}

TEST_F(WalTest, StaleEpochFramesAreKeptByScan) {
  // Scan reports frames of every epoch; filtering is the caller's job
  // (recovery skips stale ones, the CLI prints them).
  auto wal = OpenLog(WalMode::kFsyncOnCommit, 1);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->AppendUpdate(1, {1.0}).ok());
  ASSERT_TRUE(wal->Commit().ok());
  ASSERT_TRUE(wal->Close().ok());
  auto newer = OpenLog(WalMode::kFsyncOnCommit, 2);
  ASSERT_NE(newer, nullptr);
  ASSERT_TRUE(newer->AppendUpdate(2, {2.0}).ok());
  ASSERT_TRUE(newer->Commit().ok());
  ASSERT_TRUE(newer->Close().ok());

  auto scan = WriteAheadLog::Scan(path_);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->frames.size(), 2u);
  EXPECT_EQ(scan->frames[0].epoch, 1u);
  EXPECT_EQ(scan->frames[1].epoch, 2u);
}

}  // namespace
}  // namespace fielddb
