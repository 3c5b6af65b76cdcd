#include "storage/page_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace_buffer.h"
#include "storage/crc32c.h"

namespace fielddb {

Status PageFile::VerifyPage(PageId id) const {
  Page scratch(page_size_);
  return Read(id, &scratch);
}

Status PageFile::ReadBatch(const PageId* ids, size_t count, Page* outs,
                           Status* statuses) const {
  Status first = Status::OK();
  for (size_t i = 0; i < count; ++i) {
    statuses[i] = Read(ids[i], &outs[i]);
    if (first.ok() && !statuses[i].ok()) first = statuses[i];
  }
  return first;
}

uint64_t MemPageFile::NumPages() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return pages_.size();
}

StatusOr<PageId> MemPageFile::Allocate(const Page& page) {
  if (page.size() != page_size_) {
    return Status::InvalidArgument("page size mismatch");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  pages_.emplace_back(page.data(), page.data() + page_size_);
  return PageId{pages_.size() - 1};
}

Status MemPageFile::Read(PageId id, Page* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id >= pages_.size()) {
    return Status::OutOfRange("page id " + std::to_string(id) +
                              " >= " + std::to_string(pages_.size()));
  }
  if (out->size() != page_size_) *out = Page(page_size_);
  std::memcpy(out->data(), pages_[id].data(), page_size_);
  return Status::OK();
}

Status MemPageFile::Write(PageId id, const Page& page) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id >= pages_.size()) {
    return Status::OutOfRange("page id " + std::to_string(id) +
                              " >= " + std::to_string(pages_.size()));
  }
  if (page.size() != page_size_) {
    return Status::InvalidArgument("page size mismatch");
  }
  std::memcpy(pages_[id].data(), page.data(), page_size_);
  return Status::OK();
}

namespace {

/// A run is one preadv: keep it well under IOV_MAX (1024 on Linux);
/// readahead windows are far smaller anyway.
constexpr size_t kMaxRun = 512;

/// pread that retries EINTR and partial transfers until `len` bytes are
/// in or the file ends.
Status PreadFully(int fd, uint8_t* buf, size_t len, uint64_t offset) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, buf + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read failed at offset " +
                             std::to_string(offset) + ": " +
                             std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("short read at offset " + std::to_string(offset) +
                             ": " + std::to_string(done) + " of " +
                             std::to_string(len) + " bytes");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads `n` (<= kMaxRun) consecutive slots of `slot` bytes from byte
/// `offset` on into `buf` with one preadv, one status per slot.
void ReadRun(int fd, uint64_t slot, uint64_t offset, size_t n, uint8_t* buf,
             Status* statuses) {
  if (n > 1) {
    struct iovec iov[kMaxRun];
    for (size_t k = 0; k < n; ++k) iov[k] = {buf + k * slot, slot};
    ssize_t got = 0;
    do {
      got = ::preadv(fd, iov, static_cast<int>(n), static_cast<off_t>(offset));
    } while (got < 0 && errno == EINTR);
    if (got == static_cast<ssize_t>(n * slot)) {
      for (size_t k = 0; k < n; ++k) statuses[k] = Status::OK();
      return;
    }
  }
  // A lone slot, or a failed or short run: slot by slot, so each slot
  // reports its own status and only those past the short point fail.
  for (size_t k = 0; k < n; ++k) {
    statuses[k] = PreadFully(fd, buf + k * slot, slot, offset + k * slot);
  }
}

/// pwrite that retries EINTR and partial transfers.
bool PwriteFully(int fd, const uint8_t* buf, size_t len, uint64_t offset) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd, buf + done, len - done,
                               static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

DiskPageFile::~DiskPageFile() { ::close(fd_); }

StatusOr<std::unique_ptr<DiskPageFile>> DiskPageFile::Create(
    const std::string& path, uint32_t page_size, uint32_t epoch) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::IOError("cannot create " + path);
  }
  return std::unique_ptr<DiskPageFile>(
      new DiskPageFile(fd, page_size, 0, epoch));
}

StatusOr<std::unique_ptr<DiskPageFile>> DiskPageFile::Open(
    const std::string& path, uint32_t page_size, uint32_t epoch) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open " + path);
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat failed on " + path);
  }
  const uint64_t length = static_cast<uint64_t>(st.st_size);
  const uint64_t slot = uint64_t{kPageHeaderSize} + page_size;
  if (length % slot != 0) {
    ::close(fd);
    return Status::Corruption(
        "file length not a multiple of the page slot size: " + path);
  }
  return std::unique_ptr<DiskPageFile>(
      new DiskPageFile(fd, page_size, length / slot, epoch));
}

Status DiskPageFile::WriteSlot(PageId id, const uint8_t* payload) {
  std::vector<uint8_t> slot(SlotSize());
  std::memcpy(slot.data() + 4, &epoch_, sizeof(epoch_));
  std::memcpy(slot.data() + 8, &id, sizeof(id));
  std::memcpy(slot.data() + kPageHeaderSize, payload, page_size_);
  const uint32_t crc =
      MaskCrc(Crc32c(slot.data() + 4, slot.size() - 4));
  std::memcpy(slot.data(), &crc, sizeof(crc));
  if (!PwriteFully(fd_, slot.data(), slot.size(), id * SlotSize())) {
    return Status::IOError("write failed for page " + std::to_string(id));
  }
  return Status::OK();
}

StatusOr<PageId> DiskPageFile::Allocate(const Page& page) {
  if (page.size() != page_size_) {
    return Status::InvalidArgument("page size mismatch");
  }
  std::lock_guard<std::mutex> lock(allocate_mu_);
  const PageId id = num_pages_.load(std::memory_order_relaxed);
  FIELDDB_RETURN_IF_ERROR(WriteSlot(id, page.data()));
  num_pages_.store(id + 1, std::memory_order_release);
  return id;
}

Status DiskPageFile::VerifySlot(PageId id, const uint8_t* slot,
                                Page* out) const {
  static Counter* const corrupt_reads =
      MetricsRegistry::Default().GetCounter("storage.file.corrupt_page_reads");
  uint32_t stored_crc = 0;
  uint32_t stored_epoch = 0;
  uint64_t stored_id = 0;
  std::memcpy(&stored_crc, slot, sizeof(stored_crc));
  std::memcpy(&stored_epoch, slot + 4, sizeof(stored_epoch));
  std::memcpy(&stored_id, slot + 8, sizeof(stored_id));
  const uint32_t actual = Crc32c(slot + 4, SlotSize() - 4);
  if (UnmaskCrc(stored_crc) != actual) {
    corrupt_reads->Increment();
    return Status::Corruption("checksum mismatch on page " +
                              std::to_string(id));
  }
  if (stored_id != id) {
    corrupt_reads->Increment();
    return Status::Corruption("misdirected page: slot " + std::to_string(id) +
                              " holds page " + std::to_string(stored_id));
  }
  if (epoch_ != 0 && stored_epoch != epoch_) {
    corrupt_reads->Increment();
    return Status::Corruption(
        "epoch mismatch on page " + std::to_string(id) + ": stored " +
        std::to_string(stored_epoch) + ", expected " + std::to_string(epoch_));
  }
  if (out->size() != page_size_) *out = Page(page_size_);
  std::memcpy(out->data(), slot + kPageHeaderSize, page_size_);
  return Status::OK();
}

Status DiskPageFile::Read(PageId id, Page* out) const {
  Status status;
  return ReadBatch(&id, 1, out, &status);
}

Status DiskPageFile::ReadBatch(const PageId* ids, size_t count, Page* outs,
                               Status* statuses) const {
  const uint64_t num_pages = NumPages();
  const uint64_t slot = SlotSize();
  std::vector<uint8_t> slots(count * slot);
  for (size_t i = 0; i < count;) {
    if (ids[i] >= num_pages) {
      statuses[i++] = Status::OutOfRange("page id out of range");
      continue;
    }
    size_t j = i + 1;
    while (j < count && j - i < kMaxRun && ids[j] < num_pages &&
           ids[j] == ids[j - 1] + 1) {
      ++j;
    }
    ReadRun(fd_, slot, ids[i] * slot, j - i, slots.data() + i * slot,
            statuses + i);
    i = j;
  }
  Status first = Status::OK();
  for (size_t i = 0; i < count; ++i) {
    if (statuses[i].ok()) {
      statuses[i] = VerifySlot(ids[i], slots.data() + i * slot, &outs[i]);
    }
    if (first.ok() && !statuses[i].ok()) first = statuses[i];
  }
  return first;
}

Status DiskPageFile::Write(PageId id, const Page& page) {
  if (id >= NumPages()) {
    return Status::OutOfRange("page id out of range");
  }
  if (page.size() != page_size_) {
    return Status::InvalidArgument("page size mismatch");
  }
  return WriteSlot(id, page.data());
}

Status DiskPageFile::Sync() {
  // fsync is the single most expensive storage call; always worth a
  // span so checkpoint/commit stalls are visible in the trace.
  TraceScope span("file.sync", "pool");
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync failed");
  }
  return Status::OK();
}

Status DiskPageFile::CorruptRawForTest(PageId id, uint32_t offset,
                                       uint8_t xor_mask) {
  if (id >= NumPages() || offset >= SlotSize()) {
    return Status::OutOfRange("corrupt target out of range");
  }
  const off_t pos = static_cast<off_t>(id * SlotSize() + offset);
  uint8_t byte = 0;
  if (::pread(fd_, &byte, 1, pos) != 1) {
    return Status::IOError("corrupt-for-test read failed");
  }
  byte ^= xor_mask;
  if (::pwrite(fd_, &byte, 1, pos) != 1) {
    return Status::IOError("corrupt-for-test write failed");
  }
  return Status::OK();
}

}  // namespace fielddb
