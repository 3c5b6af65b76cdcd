#include "storage/page_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
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

StatusOr<PageId> MemPageFile::AllocateZeroed() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  pages_.emplace_back();
  return PageId{pages_.size() - 1};
}

Status MemPageFile::Read(PageId id, Page* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id >= pages_.size()) {
    return Status::OutOfRange("page id " + std::to_string(id) +
                              " >= " + std::to_string(pages_.size()));
  }
  if (out->size() != page_size_) *out = Page(page_size_);
  if (pages_[id].empty()) {
    out->Zero();
  } else {
    std::memcpy(out->data(), pages_[id].data(), page_size_);
  }
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
  // The slot is this page's alone (writers of one page are excluded by
  // the caller), so its first write may size it under the shared lock.
  pages_[id].assign(page.data(), page.data() + page_size_);
  return Status::OK();
}

namespace {

/// A run is one preadv or pwritev of two iovecs per slot (its header and
/// its payload): keep it within IOV_MAX (1024 on Linux); readahead
/// windows and Save's runs are far smaller anyway.
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

/// Reads `n` (<= kMaxRun) consecutive slots from byte `offset` on with
/// one preadv: slot k's header into `headers` + k * kPageHeaderSize and
/// its payload straight into pages[k] (each page_size bytes). One
/// status per slot.
void ReadRun(int fd, uint32_t page_size, uint64_t offset, size_t n,
             uint8_t* headers, Page* pages, Status* statuses) {
  const uint64_t slot = uint64_t{kPageHeaderSize} + page_size;
  struct iovec iov[2 * kMaxRun];
  for (size_t k = 0; k < n; ++k) {
    iov[2 * k] = {headers + k * kPageHeaderSize, kPageHeaderSize};
    iov[2 * k + 1] = {pages[k].data(), page_size};
  }
  ssize_t got = 0;
  do {
    got = ::preadv(fd, iov, static_cast<int>(2 * n),
                   static_cast<off_t>(offset));
  } while (got < 0 && errno == EINTR);
  if (got == static_cast<ssize_t>(n * slot)) {
    for (size_t k = 0; k < n; ++k) statuses[k] = Status::OK();
    return;
  }
  // A failed or short run: slot by slot, so each slot reports its own
  // status and only those past the short point fail.
  for (size_t k = 0; k < n; ++k) {
    const uint64_t at = offset + k * slot;
    statuses[k] = PreadFully(fd, headers + k * kPageHeaderSize,
                             kPageHeaderSize, at);
    if (statuses[k].ok()) {
      statuses[k] = PreadFully(fd, pages[k].data(), page_size,
                               at + kPageHeaderSize);
    }
  }
}

/// pwritev that retries EINTR and partial transfers. Consumes `iov`.
bool PwritevFully(int fd, struct iovec* iov, size_t n, uint64_t offset) {
  while (n > 0) {
    const ssize_t w =
        ::pwritev(fd, iov, static_cast<int>(n), static_cast<off_t>(offset));
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    offset += static_cast<uint64_t>(w);
    size_t left = static_cast<size_t>(w);
    while (n > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --n;
    }
    if (n > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
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

uint32_t DiskPageFile::SlotCrc(const uint8_t* header,
                               const uint8_t* payload) const {
  return Crc32cExtend(Crc32c(header + 4, kPageHeaderSize - 4), payload,
                      page_size_);
}

Status DiskPageFile::WriteSlots(PageId first, const Page* pages,
                                size_t count) {
  uint8_t headers[kMaxRun * kPageHeaderSize];
  struct iovec iov[2 * kMaxRun];
  for (size_t k = 0; k < count; ++k) {
    uint8_t* const header = headers + k * kPageHeaderSize;
    const PageId id = first + k;
    std::memcpy(header + 4, &epoch_, sizeof(epoch_));
    std::memcpy(header + 8, &id, sizeof(id));
    const uint32_t crc = MaskCrc(SlotCrc(header, pages[k].data()));
    std::memcpy(header, &crc, sizeof(crc));
    iov[2 * k] = {header, kPageHeaderSize};
    // pwritev does not write through its iovecs.
    iov[2 * k + 1] = {const_cast<uint8_t*>(pages[k].data()), page_size_};
  }
  if (!PwritevFully(fd_, iov, 2 * count, first * SlotSize())) {
    return Status::IOError("write failed for page " + std::to_string(first));
  }
  return Status::OK();
}

StatusOr<PageId> DiskPageFile::AppendRun(const Page* pages, size_t count) {
  for (size_t k = 0; k < count; ++k) {
    if (pages[k].size() != page_size_) {
      return Status::InvalidArgument("page size mismatch");
    }
  }
  std::lock_guard<std::mutex> lock(allocate_mu_);
  const PageId first = num_pages_.load(std::memory_order_relaxed);
  for (size_t done = 0; done < count;) {
    const size_t n = std::min(count - done, kMaxRun);
    FIELDDB_RETURN_IF_ERROR(WriteSlots(first + done, pages + done, n));
    done += n;
    num_pages_.store(first + done, std::memory_order_release);
  }
  return first;
}

StatusOr<PageId> DiskPageFile::Allocate(const Page& page) {
  return AppendRun(&page, 1);
}

Status DiskPageFile::VerifySlot(PageId id, const uint8_t* header,
                                const Page& payload) const {
  static Counter* const corrupt_reads =
      MetricsRegistry::Default().GetCounter("storage.file.corrupt_page_reads");
  uint32_t stored_crc = 0;
  uint32_t stored_epoch = 0;
  uint64_t stored_id = 0;
  std::memcpy(&stored_crc, header, sizeof(stored_crc));
  std::memcpy(&stored_epoch, header + 4, sizeof(stored_epoch));
  std::memcpy(&stored_id, header + 8, sizeof(stored_id));
  if (UnmaskCrc(stored_crc) != SlotCrc(header, payload.data())) {
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
  return Status::OK();
}

Status DiskPageFile::Read(PageId id, Page* out) const {
  Status status;
  return ReadBatch(&id, 1, out, &status);
}

Status DiskPageFile::ReadBatch(const PageId* ids, size_t count, Page* outs,
                               Status* statuses) const {
  const uint64_t num_pages = NumPages();
  uint8_t headers[kMaxRun * kPageHeaderSize];
  Status first = Status::OK();
  for (size_t i = 0; i < count;) {
    size_t j = i + 1;
    if (ids[i] >= num_pages) {
      statuses[i] = Status::OutOfRange("page id out of range");
    } else {
      while (j < count && j - i < kMaxRun && ids[j] < num_pages &&
             ids[j] == ids[j - 1] + 1) {
        ++j;
      }
      for (size_t k = i; k < j; ++k) {
        if (outs[k].size() != page_size_) outs[k] = Page(page_size_);
      }
      ReadRun(fd_, page_size_, ids[i] * SlotSize(), j - i, headers, outs + i,
              statuses + i);
      for (size_t k = i; k < j; ++k) {
        if (statuses[k].ok()) {
          statuses[k] = VerifySlot(
              ids[k], headers + (k - i) * kPageHeaderSize, outs[k]);
        }
      }
    }
    for (; i < j; ++i) {
      if (first.ok() && !statuses[i].ok()) first = statuses[i];
    }
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
  return WriteSlots(id, &page, 1);
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
