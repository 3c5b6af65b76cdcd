#include "storage/wal.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/crc32c.h"

namespace fielddb {

namespace {

/// Log instruments, shared by every WriteAheadLog in the process.
struct WalMetrics {
  Counter* appends;
  Counter* bytes_appended;
  Counter* commits;
  Counter* syncs;
  Counter* truncates;
  Counter* torn_truncations;
  Counter* torn_bytes;

  static const WalMetrics& Get() {
    static const WalMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Default();
      return WalMetrics{reg.GetCounter("storage.wal.appends"),
                        reg.GetCounter("storage.wal.bytes_appended"),
                        reg.GetCounter("storage.wal.commits"),
                        reg.GetCounter("storage.wal.syncs"),
                        reg.GetCounter("storage.wal.truncates"),
                        reg.GetCounter("storage.wal.torn_truncations"),
                        reg.GetCounter("storage.wal.torn_bytes")};
    }();
    return m;
  }
};

void PutU32(uint8_t* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
void PutU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, 8); }
uint32_t GetU32(const uint8_t* src) {
  uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
uint64_t GetU64(const uint8_t* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}

}  // namespace

const char* WalModeName(WalMode mode) {
  switch (mode) {
    case WalMode::kOff:
      return "off";
    case WalMode::kAsync:
      return "async";
    case WalMode::kFsyncOnCommit:
      return "fsync";
  }
  return "unknown";
}

bool ParseWalMode(const std::string& text, WalMode* out) {
  if (text == "off") {
    *out = WalMode::kOff;
  } else if (text == "async") {
    *out = WalMode::kAsync;
  } else if (text == "fsync" || text == "fsync_on_commit") {
    *out = WalMode::kFsyncOnCommit;
  } else {
    return false;
  }
  return true;
}

WriteAheadLog::WriteAheadLog(std::string path, std::FILE* file, WalMode mode,
                             uint32_t epoch, uint64_t next_lsn, uint64_t size)
    : path_(std::move(path)), file_(file), mode_(mode), epoch_(epoch),
      next_lsn_(next_lsn), size_(size), synced_size_(size) {}

WriteAheadLog::~WriteAheadLog() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

StatusOr<WalScanResult> WriteAheadLog::Scan(const std::string& path) {
  WalScanResult result;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return result;  // no log = empty log

  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IOError("seek failed on " + path);
  }
  const long length = std::ftell(f);
  if (length < 0) {
    std::fclose(f);
    return Status::IOError("tell failed on " + path);
  }
  result.file_bytes = static_cast<uint64_t>(length);
  std::rewind(f);

  std::vector<uint8_t> buf(kFrameHeaderSize);
  uint64_t offset = 0;
  uint64_t last_lsn = 0;
  for (;;) {
    if (offset + kFrameHeaderSize > result.file_bytes) {
      if (offset != result.file_bytes) {
        result.torn_reason = "short header";
      }
      break;
    }
    if (std::fread(buf.data(), 1, kFrameHeaderSize, f) !=
        kFrameHeaderSize) {
      result.torn_reason = "header read failed";
      break;
    }
    const uint32_t stored_crc = GetU32(buf.data());
    WalFrame frame;
    frame.epoch = GetU32(buf.data() + 4);
    frame.lsn = GetU64(buf.data() + 8);
    frame.type = GetU32(buf.data() + 16);
    const uint32_t payload_len = GetU32(buf.data() + 20);
    frame.offset = offset;
    if (payload_len > kMaxPayload) {
      result.torn_reason = "payload length out of range";
      break;
    }
    if (offset + kFrameHeaderSize + payload_len > result.file_bytes) {
      result.torn_reason = "short payload";
      break;
    }
    buf.resize(kFrameHeaderSize + payload_len);
    if (std::fread(buf.data() + kFrameHeaderSize, 1, payload_len, f) !=
        payload_len) {
      result.torn_reason = "payload read failed";
      break;
    }
    const uint32_t actual = Crc32c(buf.data() + 4, buf.size() - 4);
    if (UnmaskCrc(stored_crc) != actual) {
      result.torn_reason = "checksum mismatch";
      break;
    }
    if (frame.lsn <= last_lsn) {
      result.torn_reason = "non-monotonic lsn";
      break;
    }
    if (frame.type == kUpdateValuesFrame) {
      if (payload_len < 12) {
        result.torn_reason = "update payload too small";
        break;
      }
      const uint64_t cell_id = GetU64(buf.data() + kFrameHeaderSize);
      if (cell_id >= kInvalidCellId) {
        result.torn_reason = "cell id out of range";
        break;
      }
      frame.cell_id = static_cast<CellId>(cell_id);
      const uint32_t count = GetU32(buf.data() + kFrameHeaderSize + 8);
      // 64-bit on purpose: in uint32 arithmetic a count near 2^29 wraps
      // 12 + count * 8 back onto a small payload_len, and the resize
      // below would become a multi-GB allocation from a hostile file.
      if (uint64_t{payload_len} != 12 + uint64_t{count} * 8) {
        result.torn_reason = "update payload size mismatch";
        break;
      }
      frame.values.resize(count);
      std::memcpy(frame.values.data(), buf.data() + kFrameHeaderSize + 12,
                  count * 8);
    } else {
      result.torn_reason = "unknown frame type";
      break;
    }
    last_lsn = frame.lsn;
    offset += buf.size();
    result.valid_bytes = offset;
    result.frames.push_back(std::move(frame));
    buf.resize(kFrameHeaderSize);
  }
  std::fclose(f);
  return result;
}

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, WalMode mode, uint32_t epoch) {
  StatusOr<WalScanResult> scan = Scan(path);
  if (!scan.ok()) return scan.status();

  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) f = std::fopen(path.c_str(), "w+b");
  if (f == nullptr) return Status::IOError("cannot open " + path);

  if (scan->torn_bytes() > 0) {
    // Cut the torn tail so fresh appends never interleave with garbage.
    if (::ftruncate(::fileno(f), static_cast<off_t>(scan->valid_bytes)) !=
            0 ||
        ::fsync(::fileno(f)) != 0) {
      std::fclose(f);
      return Status::IOError("cannot truncate torn tail of " + path);
    }
    WalMetrics::Get().torn_truncations->Increment();
    WalMetrics::Get().torn_bytes->Increment(scan->torn_bytes());
  }
  if (std::fseek(f, static_cast<long>(scan->valid_bytes), SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IOError("seek failed on " + path);
  }
  const uint64_t next_lsn =
      scan->frames.empty() ? 1 : scan->frames.back().lsn + 1;
  return std::unique_ptr<WriteAheadLog>(new WriteAheadLog(
      path, f, mode, epoch, next_lsn, scan->valid_bytes));
}

Status WriteAheadLog::AppendUpdate(CellId id,
                                   const std::vector<double>& values) {
  if (file_ == nullptr || broken_) {
    return Status::FailedPrecondition("wal is closed");
  }
  const uint64_t payload_len = 12 + values.size() * 8;
  if (payload_len > kMaxPayload) {
    return Status::InvalidArgument("wal frame payload too large");
  }

  if (append_error_countdown_ >= 0 && append_error_countdown_-- == 0) {
    broken_ = true;
    return Status::IOError("injected crash: append failed");
  }

  std::vector<uint8_t> frame(kFrameHeaderSize + payload_len);
  PutU32(frame.data() + 4, epoch_);
  PutU64(frame.data() + 8, next_lsn_);
  PutU32(frame.data() + 16, kUpdateValuesFrame);
  PutU32(frame.data() + 20, static_cast<uint32_t>(payload_len));
  PutU64(frame.data() + kFrameHeaderSize, id);
  PutU32(frame.data() + kFrameHeaderSize + 8,
         static_cast<uint32_t>(values.size()));
  std::memcpy(frame.data() + kFrameHeaderSize + 12, values.data(),
              values.size() * 8);
  PutU32(frame.data(), MaskCrc(Crc32c(frame.data() + 4, frame.size() - 4)));

  if (short_append_countdown_ >= 0 && short_append_countdown_-- == 0) {
    // Torn append: a prefix of the frame reaches the platter, then the
    // power cut. The partial bytes are made durable so the subsequent
    // recovery scan really sees them (and truncates them).
    const uint32_t keep =
        std::min<uint32_t>(short_append_keep_,
                           static_cast<uint32_t>(frame.size()));
    if (std::fwrite(frame.data(), 1, keep, file_) != keep ||
        std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
      broken_ = true;
      return Status::IOError("injected crash: torn append write failed");
    }
    synced_size_ = size_ + keep;
    broken_ = true;
    return Status::IOError("injected crash: torn append");
  }

  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    // A partial fwrite leaves torn bytes mid-file with the stream
    // position past them. Further appends would land after the tear and
    // the next recovery scan would silently truncate them even after
    // their Commit was acknowledged — so refuse everything until the
    // database reopens the log and re-scans it.
    broken_ = true;
    return Status::IOError("wal append failed");
  }
  size_ += frame.size();
  ++next_lsn_;
  WalMetrics::Get().appends->Increment();
  WalMetrics::Get().bytes_appended->Increment(frame.size());
  return Status::OK();
}

Status WriteAheadLog::DoSync() {
  if (sync_error_count_ > 0) {
    --sync_error_count_;
    broken_ = true;
    return Status::IOError("injected fsync failure on " + path_);
  }
  if (std::fflush(file_) != 0) {
    broken_ = true;
    return Status::IOError("wal fflush failed");
  }
  if (::fsync(::fileno(file_)) != 0) {
    // fsyncgate: a failed fsync may drop the dirty pages, after which a
    // later "successful" fsync would advance the durable watermark over
    // bytes that never reached the platter. The only safe reaction is
    // to poison the log and force a reopen + re-scan.
    broken_ = true;
    return Status::IOError("wal fsync failed");
  }
  synced_size_ = size_;
  WalMetrics::Get().syncs->Increment();
  return Status::OK();
}

Status WriteAheadLog::Commit() {
  if (file_ == nullptr || broken_) {
    return Status::FailedPrecondition("wal is closed");
  }
  ScopedSpan span("wal.commit", "wal");
  WalMetrics::Get().commits->Increment();
  if (mode_ == WalMode::kFsyncOnCommit) {
    return DoSync();
  }
  // Async: hand the frames to the OS so a process crash keeps them; a
  // power cut may not.
  if (std::fflush(file_) != 0) {
    broken_ = true;  // some buffered bytes may have been torn mid-file
    return Status::IOError("wal fflush failed");
  }
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  if (file_ == nullptr || broken_) {
    return Status::FailedPrecondition("wal is closed");
  }
  return DoSync();
}

Status WriteAheadLog::Truncate(uint32_t new_epoch) {
  if (file_ == nullptr || broken_) {
    return Status::FailedPrecondition("wal is closed");
  }
  if (sync_error_count_ > 0) {
    --sync_error_count_;
    broken_ = true;
    return Status::IOError("injected fsync failure on " + path_);
  }
  if (std::fflush(file_) != 0 ||
      ::ftruncate(::fileno(file_), 0) != 0 ||
      std::fseek(file_, 0, SEEK_SET) != 0 ||
      ::fsync(::fileno(file_)) != 0) {
    // A half-truncated log in an unknown epoch state must not accept
    // more frames: the checkpoint that requested the truncation has
    // already committed, so anything appended under the old epoch stamp
    // would be skipped as stale by the next recovery.
    broken_ = true;
    return Status::IOError("wal truncate failed");
  }
  epoch_ = new_epoch;
  next_lsn_ = 1;
  size_ = 0;
  synced_size_ = 0;
  WalMetrics::Get().truncates->Increment();
  return Status::OK();
}

Status WriteAheadLog::Close() {
  if (file_ == nullptr) return Status::OK();
  Status s = broken_ ? Status::OK() : DoSync();
  std::fclose(file_);
  file_ = nullptr;
  return s;
}

void WriteAheadLog::ArmAppendErrorForTest(int countdown) {
  append_error_countdown_ = countdown;
}

void WriteAheadLog::ArmShortAppendForTest(int countdown,
                                          uint32_t keep_bytes) {
  short_append_countdown_ = countdown;
  short_append_keep_ = keep_bytes;
}

void WriteAheadLog::ArmSyncErrorForTest(int count) {
  sync_error_count_ = count;
}

Status WriteAheadLog::SimulateCrashForTest() {
  if (file_ == nullptr) return Status::OK();
  // Not fsynced: stdio-buffered bytes evaporate with the process; bytes
  // the OS had but the platter did not evaporate with the power. Both
  // reduce to truncating at the durable watermark. (The fflush first
  // drains the stdio buffer so fclose cannot resurrect bytes after the
  // truncation below.)
  std::fflush(file_);
  if (::ftruncate(::fileno(file_), static_cast<off_t>(synced_size_)) != 0) {
    return Status::IOError("simulate-crash truncate failed");
  }
  ::fsync(::fileno(file_));
  std::fclose(file_);
  file_ = nullptr;
  broken_ = true;
  return Status::OK();
}

}  // namespace fielddb
